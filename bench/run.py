"""tci benchmark: seeded `tci run` workloads, end-to-end and per-layer metrics.

    python3 bench/run.py --workload calls --seed 1 --seconds 10 --trace 0

Each op is one in-process `tci.cli.main(["run", file, ...])` call with
stdout and stderr captured, in a closed loop: one client, one process, no
threads, the next op starting when the last returns.  Every op's exit code
and output are checked against what the generator worked out.

`--trace 0` times ops with tracing off for `--seconds` (run_ms,
ops_per_s), spawns `python -m tci run` on `main t` a few times (setup_s)
and runs the largest ops under tracemalloc, each in a fresh process
(peak_mb).  `--trace 1` runs the same timed pass, then every op of the
pool once while `probe.Probe` wraps tci's layer boundaries, and reports
per-layer means per op.  `--workload all` runs every workload in both
modes and prints every metric.  Times are scaled to the reference host's
speed with `kernel`.

Human-readable lines go first; the last line of stdout is one JSON object
with `correct`, `attempted`, `failed` and the metrics of the chosen mode.
See README.md for why each workload exists and which metric each layer
moves.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import io
import json
import os
import statistics
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from time import perf_counter

import kernel
import probe
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

POOL = 64  # distinct programs per run, cycled in order
MIN_OPS = 100  # timed ops per run at least, so p90 has ten samples beyond it
WARMUP_OPS = 4
SETUP_SPAWNS = 7
MEMORY_OPS = 3  # the largest ops of the pool, each run under tracemalloc in a fresh process

# name -> unit
END_TO_END = {
    "setup_s": "s",
    "run_ms.p50": "ms",
    "run_ms.p90": "ms",
    "ops_per_s": "1/s",
    "peak_mb": "MB",
}
PER_LAYER = {
    "cli.self_ms": "ms",
    "parser.tokens": "count",
    "parser.tokenize_ms": "ms",
    "parser.parse_ms": "ms",
    "parser.ns_per_token": "ns",
    "syntax.substitute_calls": "count",
    "syntax.substitute_ms": "ms",
    "syntax.pretty_print_calls": "count",
    "syntax.pretty_print_ms": "ms",
    "interp.steps": "count",
    "interp.self_ms": "ms",
    "interp.steps_per_s": "1/s",
    "store.checkpoints": "count",
    "store.rollbacks": "count",
    "store.binds": "count",
    "store.undone": "count",
    "store.undone_per_bind": "ratio",
    "store.undo_peak": "count",
    "store.ms": "ms",
    "failure.merges": "count",
    "failure.merge_paths": "count",
    "failure.ms": "ms",
    "trace.bytes": "bytes",
    "trace.bytes_per_step": "B/step",
    "trace.render_ms": "ms",
    "bench.traced_op_ms": "ms",
    "bench.span_overhead_x": "ratio",
    "bench.kernel_ms": "ms",
    "bench.failed_share": "ratio",
}


def load_tci() -> dict:
    """Import tci from the checkout's own src/, never from an installed copy."""
    if not (SRC / "tci" / "__init__.py").is_file():
        sys.exit(f"bench: no tci sources under {SRC}")
    sys.path.insert(0, str(SRC))
    modules = {name: importlib.import_module(f"tci.{name}") for name in ("cli", "parser", "interp", "store")}
    if not Path(modules["cli"].__file__).resolve().is_relative_to(SRC):
        sys.exit(f"bench: imported tci from {modules['cli'].__file__}, not from {SRC}")
    return modules


class Tally:
    """Attempted and failed ops; keeps the first mismatch for the report."""

    def __init__(self, seed: int):
        self.seed = seed
        self.attempted = 0
        self.failed = 0

    def record(self, workload: str, index: int, diff: str | None) -> None:
        self.attempted += 1
        if diff is None:
            return
        self.failed += 1
        if self.failed == 1:
            print(f"bench: {workload} op {index} (seed {self.seed}) is wrong: {diff}", file=sys.stderr)


def write_ops(ops: list[workloads.Op], workdir: Path) -> list[list[str]]:
    """Write each op's program and input; return the argv for `tci.cli.main`."""
    argvs = []
    for i, op in enumerate(ops):
        path = workdir / f"op{i}.tc"
        path.write_text(op.source, encoding="utf-8")
        argv = ["run", str(path)]
        if op.input is not None:
            data = workdir / f"op{i}.in"
            data.write_text(" ".join(map(str, op.input)) + "\n", encoding="utf-8")
            argv += ["--input", str(data)]
        if op.trace:
            argv.append("--trace")
        argvs.append(argv)
    return argvs


def call(main, argv: list[str]):
    """One op: (seconds, exit code, stdout, stderr).  Exit code None if main raised."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        start = perf_counter()
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # noqa: BLE001 - a raising op is a failed op, not a crash
            code, err = None, io.StringIO(repr(exc))
        elapsed = perf_counter() - start
    return elapsed, code, out.getvalue(), err.getvalue()


def closed_loop(run_one, count: int, seconds: float, min_ops: int) -> tuple[list[float], float]:
    """Run ops 0, 1, 2, ... (cycling over `count`) for `seconds` and at least `min_ops` ops.

    Each op starts from a collected heap, as a fresh `tci run` process
    would, so no op pays for garbage an earlier one left.  The kernel runs
    before every op.  Returns the op times in seconds at the reference
    speed, and the kernel's median time in ms.
    """
    times, kernel_times = [], []
    start = perf_counter()
    while len(times) < min_ops or perf_counter() - start < seconds:
        gc.collect()
        kernel_times.append(kernel.run_ms())
        times.append(run_one(len(times) % count, len(times)))
    median = statistics.median(kernel_times)
    return [t * kernel.factor(median) for t in times], median


def measure(name: str, seed: int, seconds: float, traced: bool, *, workdir: Path, tci: dict,
            scale: float = 1.0, min_ops: int = MIN_OPS,
            spawns: int = SETUP_SPAWNS) -> tuple[Tally, dict, dict]:
    """One run of one workload: (tally, end-to-end metrics, per-layer metrics or {}).

    `scale`, `min_ops` and `spawns` shrink the run for the smoke test.
    """
    main = tci["cli"].main
    ops = workloads.generate(name, seed, POOL, scale)
    argvs = write_ops(ops, workdir)
    tally = Tally(seed)

    def run_one(i: int, n: int) -> float:
        elapsed, code, out, err = call(main, argvs[i])
        tally.record(name, n, workloads.check(ops[i], code, out, err))
        return elapsed

    for i in range(min(WARMUP_OPS, len(ops))):
        run_one(i, -1 - i)
    times, kernel_ms = closed_loop(run_one, len(ops), seconds, min_ops)
    ms = [t * 1000 for t in times]
    e2e = {
        "run_ms.p50": statistics.median(ms),
        "run_ms.p90": statistics.quantiles(ms, n=10)[8],
        "ops_per_s": len(times) / sum(times),
        "bench.kernel_ms": kernel_ms,
    }
    if not traced:
        e2e["setup_s"] = setup_seconds(workdir, spawns, tally)
        e2e["peak_mb"] = peak_mb(ops, argvs)
        return tally, e2e, {}
    return tally, e2e, traced_pass(name, ops, argvs, times, tally, tci)


def setup_seconds(workdir: Path, spawns: int, tally: Tally) -> float:
    """Median wall time of `python -m tci run` on `main t`, after one unmeasured spawn."""
    program = workdir / "setup.tc"
    program.write_text("main t\n", encoding="utf-8")
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    argv = [sys.executable, "-m", "tci", "run", str(program)]
    times, kernel_times = [], []
    for i in range(spawns + 1):
        kernel_times.append(kernel.run_ms())
        start = perf_counter()
        done = subprocess.run(argv, cwd=ROOT, env=env, capture_output=True, text=True, timeout=60)
        times.append(perf_counter() - start)
        ok = done.returncode == 0 and done.stdout == ""
        tally.record("setup", i, None if ok else f"exit {done.returncode}, stdout {done.stdout!r}")
    return statistics.median(times[1:]) * kernel.factor(statistics.median(kernel_times))


# One op under tracemalloc in a fresh interpreter; prints the peak in bytes.
_PEAK_SCRIPT = """
import contextlib, io, sys, tracemalloc
sys.path.insert(0, sys.argv[1])
from tci.cli import main
tracemalloc.start()
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    main(sys.argv[2:])
print(tracemalloc.get_traced_memory()[1])
"""


def peak_mb(ops: list[workloads.Op], argvs: list[list[str]]) -> float:
    """Largest tracemalloc peak of one op over the pool's largest ops, each in a fresh process.

    A fresh process starts from the collector state a `tci run` user sees;
    after the timed pass, when cyclic garbage is collected varies by run.
    """
    largest = sorted(range(len(ops)), key=lambda i: ops[i].size)[-MEMORY_OPS:]
    peaks = []
    for i in largest:
        done = subprocess.run([sys.executable, "-c", _PEAK_SCRIPT, str(SRC), *argvs[i]], cwd=ROOT,
                              capture_output=True, text=True, timeout=120, check=True)
        peaks.append(int(done.stdout) / 2**20)
    return max(peaks)


def traced_pass(name, ops, argvs, untraced, tally, tci) -> dict:
    """Every op of the pool once, under the probe; per-layer means per op."""
    stderr_bytes = 0

    with probe.Probe(tci) as p:
        main = p.op(tci["cli"].main)

        def run_one(i: int, n: int) -> float:
            nonlocal stderr_bytes
            elapsed, code, out, err = call(main, argvs[i])
            stderr_bytes += len(err.encode("utf-8"))
            tally.record(name, n, workloads.check(ops[i], code, out, err))
            return elapsed

        traced, kernel_ms = closed_loop(run_one, len(ops), 0.0, len(ops))

    layers, spans = p.layer_ns()
    speed = kernel.factor(kernel_ms)
    n, c, k = p.ops, p.calls, p.counts
    per_op_ms = lambda ns: ns * speed / n / 1e6  # noqa: E731
    store_calls = lambda method: c["store." + method] / n  # noqa: E731
    parser_ns = layers["parser.tokenize"] + layers["parser.parse"]
    same = min(len(traced), len(untraced))  # the timed pass ran the same ops in the same order
    return {
        "cli.self_ms": per_op_ms(layers["cli"]),
        "parser.tokens": k["tokens"] / n,
        "parser.tokenize_ms": per_op_ms(layers["parser.tokenize"]),
        "parser.parse_ms": per_op_ms(layers["parser.parse"]),
        "parser.ns_per_token": parser_ns * speed / k["tokens"] if k["tokens"] else 0.0,
        "syntax.substitute_calls": c["substitute"] / n,
        "syntax.substitute_ms": per_op_ms(layers["syntax.substitute"]),
        "syntax.pretty_print_calls": c["pretty_print"] / n,
        "syntax.pretty_print_ms": per_op_ms(layers["syntax.pretty_print"]),
        "interp.steps": k["steps"] / n,
        "interp.self_ms": per_op_ms(layers["interp"]),
        "interp.steps_per_s": k["steps"] / (spans["run_main"] * speed / 1e9) if spans["run_main"] else 0.0,
        "store.checkpoints": store_calls("checkpoint"),
        "store.rollbacks": store_calls("rollback"),
        "store.binds": store_calls("bind"),
        "store.undone": k["undone"] / n,
        "store.undone_per_bind": k["undone"] / k["writes"] if k["writes"] else 0.0,
        "store.undo_peak": k["undo_peak"] / n,
        "store.ms": per_op_ms(layers["store"]),
        "failure.merges": c["merge"] / n,
        "failure.merge_paths": k["merge_paths"] / n,
        "failure.ms": per_op_ms(layers["failure"]),
        "trace.bytes": stderr_bytes / n,
        "trace.bytes_per_step": stderr_bytes / k["steps"] if k["steps"] else 0.0,
        "trace.render_ms": per_op_ms(layers["trace.render"]),
        "bench.traced_op_ms": per_op_ms(spans["op"]),
        "bench.span_overhead_x": sum(traced[:same]) / sum(untraced[:same]),
        "bench.kernel_ms": kernel_ms,
        "bench.failed_share": tally.failed / tally.attempted,
    }


def print_metrics(workload: str, metrics: dict, units: dict) -> None:
    for metric, unit in units.items():
        if metric in metrics:
            print(f"{workload:<9} {metric:<26} {metrics[metric]:>16.6g} {unit}")


def result_line(tally: Tally, metrics: dict, units: dict) -> str:
    return json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {m: {"value": v, "unit": units[m.rsplit(":", 1)[-1]]} for m, v in metrics.items()},
    })


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=(*workloads.WORKLOADS, "all"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True, help="length of the timed pass")
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True,
                    help="0: end-to-end metrics; 1: per-layer metrics from a traced pass")
    args = ap.parse_args(argv)
    tci = load_tci()
    units = {**END_TO_END, **PER_LAYER}
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    modes = (False, True) if args.workload == "all" else (bool(args.trace),)
    total = Tally(args.seed)
    reported = {}
    work_root = ROOT / ".bench_work"
    work_root.mkdir(exist_ok=True)
    try:
        for name in names:
            for traced in modes:
                with tempfile.TemporaryDirectory(dir=work_root) as tmp:
                    tally, e2e, layers = measure(name, args.seed, args.seconds, traced,
                                                 workdir=Path(tmp), tci=tci)
                total.attempted += tally.attempted
                total.failed += tally.failed
                print(f"{name:<9} {'failed_share':<26} {tally.failed / tally.attempted:>16.6g} "
                      f"ratio  ({tally.failed} of {tally.attempted} ops)")
                print_metrics(name, e2e, {**END_TO_END, "bench.kernel_ms": "ms"})
                print_metrics(name, layers, PER_LAYER)
                if traced == bool(args.trace):
                    chosen = layers if traced else {m: e2e[m] for m in END_TO_END}
                    prefix = f"{name}:" if len(names) > 1 else ""
                    reported.update({prefix + m: v for m, v in chosen.items()})
    finally:
        if not any(work_root.iterdir()):
            work_root.rmdir()
    print(result_line(total, reported, units))
    return 0


if __name__ == "__main__":
    sys.exit(main())
