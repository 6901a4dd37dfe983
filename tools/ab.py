"""Time this checkout against another on one bench workload, in one process, op by op.

    python3 tools/ab.py OTHER_CHECKOUT --workload parse --seed 1 --rounds 3
    python3 tools/ab.py OTHER_CHECKOUT --workload all --seed 4242
    python3 tools/ab.py . --workload all --seed 4242     # A/A: this checkout against itself
    python3 tools/ab.py OTHER_CHECKOUT --workload all --seed 1 --rounds 5 --processes 8

Whole-process bench runs of one tree spread widely from run to run on
a shared host, so two trees are compared here in pairs of calls
instead.  Each tree's `tci` is loaded under its own package name
(`tci_this`, `tci_other`).  The workload's ops are generated by this
checkout's `bench/workloads.py` and written to a temporary directory
with `bench/run.py`'s pool size, warm-up count and `write_ops`.  Each
round runs every op once on each side, back to back, each call after
`gc.collect()`, with the side that goes first alternating from pair to
pair.  Every call is checked with `workloads.check`.

It prints each side's median op time, the median per-op time ratio
(this / other) with its 25th-75th percentile range, so that a 1%
difference can be told from noise, and the share of pairs this
checkout won.  It also prints each side's `peak_mb` as the bench
measures it: the largest tracemalloc peak over the pool's `MEMORY_OPS`
largest ops, each run by `bench/run.py`'s `_PEAK_SCRIPT` in a fresh
process on that side's `src`.  `--workload all` compares the four
workloads in turn, printing that block, ratio line included, for each.
A workload read there can differ from the same workload read alone: a
`trace` change that read 0.986 with `--workload trace` read 1.000 in
`--workload all`, where it runs last, after the other three in the same
process.  `tools/record.py` takes each workload from processes of its
own.  Times are raw
`perf_counter` times of `cli.main`, not scaled to a reference host.
The exit code is 1 when any call is wrong, else 0.  It refuses to run
while either tree's `src/tci` holds a `__pycache__`: a bytecode cache
has moved `peak_mb` by 2.6% with no change in the code.  It writes no
bytecode itself, nor do the processes it starts.

An A/A reading, a checkout against itself, shows how far identical code
reads from 1 on the host at hand: at 5 rounds the same tree has read a
median of up to 1.008.  Report one, at the same seed and rounds, beside
every A/B ratio; a ratio within the A/A spread is no difference.

One process's median also moves from one process to the next (the same
tree has read 0.978-1.016 at 5 rounds), so `--processes K` runs this
tool K times against OTHER and K times against this checkout (A/A),
alternating, each in a fresh process with the same workload, seed and
rounds.  For each workload it prints the median of the K per-process
median ratios, with their minimum and maximum and their 2nd-smallest
and 2nd-largest, for A/B and for A/A.  One outlying process widens the
minimum-maximum range but not the inner one, which holds the true
median of the per-process medians with probability 1 - 2 (K + 1) 2^-K
(0.93 at K = 8; the minimum-maximum range, 1 - 2^(1-K)).  It stops,
with exit code 1, at the first process that fails or reports a wrong
call.
"""

from __future__ import annotations

import argparse
import gc
import importlib.util
import io
import os
import re
import statistics
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "bench"))

import workloads  # noqa: E402
from run import _PEAK_SCRIPT, MEMORY_OPS, POOL, WARMUP_OPS, write_ops  # noqa: E402

sys.dont_write_bytecode = True  # for the trees' modules, loaded below
NO_BYTECODE = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")  # for the processes started


def refuse_bytecode(tool: str, *trees: Path) -> None:
    """Exit when a tree's `src/tci` holds a `__pycache__`, which moves `peak_mb` with no code change."""
    for tree in trees:
        for cache in (tree / "src" / "tci").rglob("__pycache__"):
            sys.exit(f"{tool}: {cache} exists, and a bytecode cache moves peak_mb; delete it first")


def load_cli(tree: Path, package: str):
    """`tci.cli` of the checkout at `tree`, imported as `<package>.cli`."""
    init = tree / "src" / "tci" / "__init__.py"
    if not init.is_file():
        sys.exit(f"ab: no tci sources under {tree / 'src'}")
    spec = importlib.util.spec_from_file_location(package, init, submodule_search_locations=[str(init.parent)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[package] = module
    spec.loader.exec_module(module)
    return importlib.import_module(f"{package}.cli")


def call(main, argv: list[str]) -> tuple[float, int | None, str, str]:
    """One op: (seconds, exit code, stdout, stderr), from a collected heap."""
    out, err = io.StringIO(), io.StringIO()
    gc.collect()
    with redirect_stdout(out), redirect_stderr(err):
        start = perf_counter()
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        elapsed = perf_counter() - start
    return elapsed, code, out.getvalue(), err.getvalue()


def peak_mb(tree: Path, ops: list[workloads.Op], argvs: list[list[str]]) -> float:
    """The bench's `peak_mb` for `tree`: its largest peak over the largest ops, each in a fresh process."""
    largest = sorted(range(len(ops)), key=lambda i: ops[i].size)[-MEMORY_OPS:]
    peaks = []
    for i in largest:
        done = subprocess.run([sys.executable, "-c", _PEAK_SCRIPT, str(tree / "src"), *argvs[i]], cwd=tree,
                              env=NO_BYTECODE, capture_output=True, text=True, timeout=120, check=True)
        peaks.append(int(done.stdout) / 2**20)
    return max(peaks)


def compare(mains: dict, trees: dict, workload: str, seed: int, rounds: int) -> int:
    """Time both sides on one workload's ops and print the comparison; returns the number of wrong calls."""
    ops = workloads.generate(workload, seed, POOL)
    times: dict[str, list[float]] = {"this": [], "other": []}
    wrong = 0
    with tempfile.TemporaryDirectory() as tmp:
        argvs = write_ops(ops, Path(tmp))
        for i in range(WARMUP_OPS):
            for side in mains:
                call(mains[side], argvs[i])
        for n in range(rounds * len(ops)):
            i = n % len(ops)
            for side in ("this", "other") if n % 2 == 0 else ("other", "this"):
                elapsed, code, out, err = call(mains[side], argvs[i])
                diff = workloads.check(ops[i], code, out, err)
                if diff is not None:
                    wrong += 1
                    print(f"ab: {side} is wrong on {workload} op {i}: {diff}", file=sys.stderr)
                times[side].append(elapsed * 1000)
        peaks = {side: peak_mb(trees[side], ops, argvs) for side in trees}

    ratios = [a / b for a, b in zip(times["this"], times["other"])]
    won = sum(a < b for a, b in zip(times["this"], times["other"])) / len(ratios)
    print(f"{workload} seed {seed}: {len(ratios)} pairs, {wrong} wrong calls")
    for side in mains:
        print(f"  {side:5} median {statistics.median(times[side]):8.3f} ms")
    q1, median, q3 = statistics.quantiles(ratios, n=4)
    print(f"  ratio this/other: median {median:.3f} (p25-p75 {q1:.3f}-{q3:.3f}); this won {won:.0%} of pairs")
    print(f"  peak_mb this {peaks['this']:.5f}, other {peaks['other']:.5f}")
    return wrong


# This tool's output: a workload's header, its ratio line and its peak line.
_HEADER = re.compile(r"^(\w+) seed \d+: (\d+) pairs, (\d+) wrong calls$")
_RATIO = re.compile(r"ratio this/other: median ([\d.]+) \(p25-p75 ([\d.]+)-([\d.]+)\); this won (\d+)% of pairs")
_PEAK = re.compile(r"peak_mb this ([\d.]+), other ([\d.]+)")


def fresh_reading(other: Path, workload: str, seed: int, rounds: int) -> dict[str, dict]:
    """This tool against `other` in a fresh process, parsed: per workload, its ratio and peaks.

    Exits when the process fails or reports a wrong call.
    """
    done = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), str(other), "--workload", workload, "--seed", str(seed),
         "--rounds", str(rounds)],
        cwd=ROOT, env=NO_BYTECODE, capture_output=True, text=True,
    )
    if done.returncode != 0:
        sys.exit(f"ab: tools/ab.py {other} --workload {workload} at seed {seed} failed:\n{done.stderr}")
    found: dict[str, dict] = {}
    for line in done.stdout.splitlines():
        if m := _HEADER.match(line):
            reading = found.setdefault(m[1], {"pairs": int(m[2])})
        elif m := _RATIO.search(line):
            reading.update(median=float(m[1]), p25=float(m[2]), p75=float(m[3]), won=int(m[4]) / 100)
        elif m := _PEAK.search(line):
            reading["peak_mb"] = {"this": float(m[1]), "other": float(m[2])}
    return found


def inner_range(medians: list[float]) -> tuple[float, float]:
    """The 2nd-smallest and 2nd-largest of per-process medians (the smallest and largest of fewer than 3)."""
    ordered = sorted(medians)
    inner = ordered[1:-1] or ordered
    return inner[0], inner[-1]


def across_processes(other: Path, workload: str, seed: int, rounds: int, processes: int) -> dict[str, dict]:
    """`processes` fresh A/B and A/A readings, alternating: {"A/B" or "A/A": {workload: [reading, ...]}}.

    Prints, per workload, the median (min-max; 2nd-smallest-2nd-largest)
    of each side's per-process median ratios.
    """
    readings: dict[str, dict[str, list[dict]]] = {"A/B": {}, "A/A": {}}
    for _ in range(processes):
        for label, tree in (("A/B", other), ("A/A", ROOT)):
            for name, reading in fresh_reading(tree, workload, seed, rounds).items():
                readings[label].setdefault(name, []).append(reading)

    def summary(name: str, label: str) -> str:
        medians = [reading["median"] for reading in readings[label][name]]
        low, high = inner_range(medians)
        return f"{statistics.median(medians):.3f} ({min(medians):.3f}-{max(medians):.3f}; {low:.3f}-{high:.3f})"

    print(f"seed {seed}, {rounds} rounds: median (min-max; 2nd-smallest-2nd-largest) of {processes} per-process"
          " median ratios this/other")
    for name in readings["A/B"]:
        print(f"  {name:8} A/B {summary(name, 'A/B')}  A/A {summary(name, 'A/A')}")
    return readings


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("other", type=Path, help="the checkout to compare against")
    ap.add_argument("--workload", choices=(*workloads.WORKLOADS, "all"), default="parse")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--rounds", type=int, default=3)
    ap.add_argument("--processes", type=int, default=0, metavar="K",
                    help="run K fresh A/B and K fresh A/A processes, alternating, and summarize their medians")
    args = ap.parse_args(argv)

    trees = {"this": ROOT, "other": args.other.resolve()}
    refuse_bytecode("ab", *trees.values())
    if args.processes > 0:
        across_processes(trees["other"], args.workload, args.seed, args.rounds, args.processes)
        return 0
    mains = {side: load_cli(tree, f"tci_{side}").main for side, tree in trees.items()}
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    wrong = sum(compare(mains, trees, name, args.seed, args.rounds) for name in names)
    return 1 if wrong else 0

if __name__ == "__main__":
    sys.exit(main())
