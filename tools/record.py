"""Write a benchmark record: repeated bench runs, A/B ratios and opcode counts, as one JSON file.

    python3 tools/record.py BENCH_N.json --against ../parent-checkout
    python3 tools/record.py BENCH_N.json

The committed records are the `BENCH_*.json` files at the root of the
repository; a change that claims a gain commits its own, made against
its parent.

The record holds:

- the Python version and the core count;
- `bench/run.py --workload W --seed S --seconds SECONDS --trace 0` for
  each workload W, run `RUNS` times at each seed in `SEEDS`: each run's
  raw `bench.kernel_ms`, one per workload, and per seed the median, 25th
  and 75th percentile and IQR of each end-to-end metric over the runs.
  (`--workload all` would also run every workload's traced pass, whose
  per-layer metrics a record does not keep);
- with `--against`, `tools/ab.py OTHER --workload W --processes K`
  for each workload W at each seed, with `ROUNDS` rounds and K =
  `PROCESSES`: K fresh processes against OTHER and K fresh A/A
  processes (this checkout against itself), alternating, each running
  W alone.  (In `--workload all` a workload runs after the others in
  the same process, and its reading depends on them: a `trace` change
  that read 0.986 alone read 1.000 there.)  For each workload, side
  and seed it keeps each process's reading (pairs, median ratio
  this/other, its 25th and 75th percentile, the share of pairs won,
  both sides' `peak_mb`) and the median, minimum and maximum of their
  medians, and their 2nd-smallest and 2nd-largest (`inner_min`,
  `inner_max`: an interval that one outlying process does not widen);
- opcodes per op: the Python bytecode instructions `cli.main` executes
  per op, averaged over the first `OPCODE_OPS` ops of each workload at
  seed 1 (after one untraced warm-up call), counted with `sys.settrace`
  and `f_trace_opcodes` in a fresh process with PYTHONHASHSEED=0.  Each
  tree is counted twice, and the record is not written unless both
  counts agree.  With `--against` the other checkout is counted too.

Opcode counts do not depend on the host, but they see only Python
bytecode: work done in C (a dict lookup, `sorted`, a `str` method, the
store's `frozenset`s) counts as the one instruction that calls it, and
time spent waiting counts nothing.  So they compare two versions of the
program; they are not a speed.  Bench times are raw, as `bench/run.py`
reports them, and read only beside an A/A reading taken in the same
session.  The exit code is 1 when a run is wrong or a count does not
repeat, else 0.  A record takes about 12 minutes on a 2-core host
(734 s with Python 3.11.7), most of it in the 128 `tools/ab.py`
processes, 4-8 s each.  Like `tools/ab.py`, it refuses to run while a
`__pycache__` exists under either tree's `src/tci`, and the processes it
starts write no bytecode.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "bench"))

import workloads  # noqa: E402
from ab import NO_BYTECODE, across_processes, inner_range, refuse_bytecode  # noqa: E402
from run import END_TO_END, write_ops  # noqa: E402

SEEDS = (1, 4242)
RUNS = 3  # bench runs per seed: the fewest that give a median and an IQR
SECONDS = 2.0  # each bench run's timed pass per workload and mode
ROUNDS = 5  # tools/ab.py rounds: at 3, readings of nearly the same code moved by up to 1.7%
PROCESSES = 8  # tools/ab.py processes per side: of 8 medians, min-max holds their true median with p ~ 0.99, 2nd-7th with p ~ 0.93
OPCODE_SEED = 1
OPCODE_OPS = 8

# Runs in a fresh process on one tree: argv[1] is its src, argv[2] a JSON
# list of `tci` argument lists.  Prints a JSON list: each call's opcode count.
_OPCODE_SCRIPT = r"""
import io, json, sys
from contextlib import redirect_stderr, redirect_stdout
sys.path.insert(0, sys.argv[1])
from tci import cli

count = 0

def local(frame, event, arg):
    global count
    if event == "opcode":
        count += 1
    return local

def enter(frame, event, arg):
    frame.f_trace_lines = False
    frame.f_trace_opcodes = True
    return local

def call(argv, traced):
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        if traced:
            sys.settrace(enter)
        try:
            cli.main(argv)
        except SystemExit:
            pass
        finally:
            sys.settrace(None)

argvs = json.loads(sys.argv[2])
call(argvs[0], False)  # imports and caches that only a first call fills
counts = []
for argv in argvs:
    count = 0
    call(argv, True)
    counts.append(count)
print(json.dumps(counts))
"""


def quartiles(values: list[float]) -> dict[str, float]:
    """Median, 25th and 75th percentile (inclusive method) and their distance."""
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "p25": q1, "p75": q3, "iqr": q3 - q1}


def bench_run(seed: int, seconds: float) -> tuple[dict, dict[str, float]]:
    """One `bench/run.py --workload W --trace 0` run per workload: (their metrics, raw kernel_ms per workload)."""
    metrics, kernel = {}, {}
    for name in workloads.WORKLOADS:
        done = subprocess.run(
            [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", name, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", "0"],
            cwd=ROOT, env=NO_BYTECODE, capture_output=True, text=True, check=True,
        )
        lines = done.stdout.splitlines()
        result = json.loads(lines[-1])
        if not result["correct"]:
            sys.exit(f"record: bench run of {name} at seed {seed} was wrong on {result['failed']} ops")
        metrics.update({f"{name}:{m}": v["value"] for m, v in result["metrics"].items()})
        kernel[name] = next(float(line.split()[2]) for line in lines if " bench.kernel_ms " in line)
    return metrics, kernel


def opcodes(tree: Path, argvs: list[list[str]]) -> list[int]:
    """Each call's opcode count, run by `_OPCODE_SCRIPT` on `tree`'s src."""
    env = dict(NO_BYTECODE, PYTHONHASHSEED="0")
    env.pop("PYTHONPATH", None)
    done = subprocess.run([sys.executable, "-c", _OPCODE_SCRIPT, str(tree / "src"), json.dumps(argvs)],
                          cwd=tree, env=env, capture_output=True, text=True, check=True)
    return json.loads(done.stdout)


def opcodes_per_op(tree: Path) -> dict[str, float]:
    """Mean opcodes per op over each workload's first ops at `OPCODE_SEED`; exits unless two counts agree."""
    per_op = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name in workloads.WORKLOADS:
            ops = workloads.generate(name, OPCODE_SEED, OPCODE_OPS)
            (Path(tmp) / name).mkdir()
            argvs = write_ops(ops, Path(tmp) / name)
            first, second = opcodes(tree, argvs), opcodes(tree, argvs)
            if first != second:
                sys.exit(f"record: opcode counts of {tree} on {name} did not repeat: {first} then {second}")
            per_op[name] = sum(first) / len(first)
    return per_op


def process_medians(readings: list[dict]) -> dict:
    """One side's per-process readings of a workload, with the median, extremes and inner range of their medians."""
    medians = [reading["median"] for reading in readings]
    low, high = inner_range(medians)
    return {"readings": readings, "median": statistics.median(medians), "min": min(medians), "max": max(medians),
            "inner_min": low, "inner_max": high}


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("out", type=Path, help="the record to write, e.g. BENCH_N.json")
    ap.add_argument("--against", type=Path, help="a checkout to compare with by tools/ab.py and opcode counts")
    args = ap.parse_args(argv)
    refuse_bytecode("record", *filter(None, (ROOT, args.against)))

    record: dict = {
        "python": platform.python_version(),
        "cores": os.cpu_count(),
        "bench": {"command": "bench/run.py --workload W --trace 0", "seconds": SECONDS, "runs": RUNS},
        "kernel_ms": {},
        "end_to_end": {},
    }
    for seed in SEEDS:
        runs = [bench_run(seed, SECONDS) for _ in range(RUNS)]
        record["kernel_ms"][str(seed)] = [kernel for _, kernel in runs]
        summary: dict[str, dict] = {}
        for name in workloads.WORKLOADS:
            summary[name] = {m: quartiles([metrics[f"{name}:{m}"] for metrics, _ in runs]) for m in END_TO_END}
        record["end_to_end"][str(seed)] = summary

    record["opcodes_per_op"] = {"seed": OPCODE_SEED, "ops": OPCODE_OPS, "this": opcodes_per_op(ROOT)}
    if args.against is not None:
        other = args.against.resolve()
        theirs = opcodes_per_op(other)
        record["opcodes_per_op"]["other"] = theirs
        record["opcodes_per_op"]["this/other"] = {
            name: count / theirs[name] for name, count in record["opcodes_per_op"]["this"].items()
        }
        record["ab"] = {"against": other.name, "rounds": ROUNDS, "processes": PROCESSES, "seeds": {}}
        for seed in SEEDS:
            by_side = record["ab"]["seeds"][str(seed)] = {"this/other": {}, "A/A": {}}
            for name in workloads.WORKLOADS:
                readings = across_processes(other, name, seed, ROUNDS, PROCESSES)
                by_side["this/other"][name] = process_medians(readings["A/B"][name])
                by_side["A/A"][name] = process_medians(readings["A/A"][name])
    args.out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(f"record: wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
