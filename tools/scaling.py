"""Measure how `tci run` grows on hostile input shapes, at sizes n and 2n.

    python3 tools/scaling.py                        # every shape, this checkout
    python3 tools/scaling.py ../other-checkout      # every shape, another checkout
    python3 tools/scaling.py --shape union --shape parens

Each shape is a program built for a size n.  It is written to a
temporary file and run through `cli.main` at n and at 2n, each run in a
fresh process on the checkout's `src`: once without tracemalloc, for
the wall time (best of `REPEAT` runs in that process) and the bytes
written to stdout and stderr, and once by `bench/run.py`'s
`_PEAK_SCRIPT`, for the tracemalloc peak.  For each shape it prints the
three at both sizes and the 2n/n ratio of each: a ratio of 1 means
the size does not grow with n, about 2 that it grows linearly, about 4
that it is quadratic (the log2 of a ratio is an empirical growth
exponent; Goldsmith, Aiken & Wilkerson, FSE 2007).  Times are raw
`perf_counter` seconds of `cli.main`.  The sizes keep each run under
about 2 s on a 2-core host with Python 3.11, and each timed run over
about 30 ms, so that a ratio is not noise; a checkout where a shape is
still quadratic takes longer.
"""

from __future__ import annotations

import argparse
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "bench"))

from run import _PEAK_SCRIPT  # noqa: E402

REPEAT = 3

# Runs `cli.main` on argv[3:] argv[2] times with stdout and stderr
# captured; prints the best time in seconds and the bytes the last run wrote.
_TIME_SCRIPT = """
import io, sys, time
from contextlib import redirect_stderr, redirect_stdout
sys.path.insert(0, sys.argv[1])
from tci.cli import main
best = float("inf")
for _ in range(int(sys.argv[2])):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        start = time.perf_counter()
        main(sys.argv[3:])
        best = min(best, time.perf_counter() - start)
written = len(out.getvalue().encode("utf-8")) + len(err.getvalue().encode("utf-8"))
print(best, written)
"""


def chain(n: int, names: int) -> str:
    """`n` assignments after `v0 = 0`, each reading the name the one before bound, over `names` names."""
    return "main " + "; ".join(["v0 = 0", *(f"v{(i + 1) % names} = v{i % names} + 1" for i in range(n))])


def union(n: int) -> str:
    """A `|` chain of `n` throws of distinct paths."""
    return "main " + " | ".join(f"f(a{i})" for i in range(n))


# name: (n, program for a size, whether the run is traced)
SHAPES = {
    "chain": (40_000, lambda n: chain(n, 4), False),
    "chain-distinct": (40_000, lambda n: chain(n, n + 1), False),
    "parens": (200_000, lambda n: "main x = " + "(" * n + "1" + ")" * n, False),
    "int-literal": (200_000, lambda n: "main x = " + "1234567890" * (n // 10), False),
    "union": (4_000, union, False),
    "union-traced": (4_000, union, True),
    "chain-traced": (8_000, lambda n: chain(n, 4), True),
    "sum-traced": (10_000, lambda n: f"sum(n, acc) = (n == 0; ret = acc) else sum(n - 1, acc + n)\nmain sum({n}, 0)", True),
    # 201 traced calls whose frame holds an n-digit integer; each call head is cut to the trace width
    "frame-traced": (10_000, lambda n: f"p(n, k) = (k == 0; ret = 0) else p(n, k - 1)\nmain x = {'1234567890' * (n // 10)}; p(x, 200)", True),
    "deep-path": (20_000, lambda n: "main f(" + "/".join(["a"] * n) + ")", False),
}


def measure(src: Path, path: Path, trace: bool) -> tuple[float, int, float]:
    """(seconds, bytes written, tracemalloc peak in MB) of `tci run` on `path`, each from a fresh process."""
    argv = ["run", str(path), *(["--trace"] if trace else [])]
    timed = subprocess.run([sys.executable, "-c", _TIME_SCRIPT, str(src), str(REPEAT), *argv],
                           capture_output=True, text=True, timeout=600, check=True)
    seconds, written = timed.stdout.split()
    peak = subprocess.run([sys.executable, "-c", _PEAK_SCRIPT, str(src), *argv],
                          capture_output=True, text=True, timeout=600, check=True)
    return float(seconds), int(written), int(peak.stdout) / 2**20


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("checkout", type=Path, nargs="?", default=ROOT, help="the checkout to measure (default: this one)")
    ap.add_argument("--shape", action="append", choices=SHAPES, help="a shape to run (default: all)")
    args = ap.parse_args(argv)

    src = args.checkout.resolve() / "src"
    if not (src / "tci" / "__init__.py").is_file():
        sys.exit(f"scaling: no tci sources under {src}")
    print(f"{'shape':15} {'n':>7}  {'s at n':>7} {'s at 2n':>7} {'x':>5}  {'B at n':>9} {'B at 2n':>9} {'x':>5}"
          f"  {'MB at n':>8} {'MB at 2n':>8} {'x':>5}")
    with tempfile.TemporaryDirectory() as tmp:
        for name in args.shape or SHAPES:
            n, program, trace = SHAPES[name]
            rows = []
            for size in (n, 2 * n):
                path = Path(tmp) / f"{name}-{size}.tc"
                path.write_text(program(size), encoding="utf-8")
                rows.append(measure(src, path, trace))
            (t1, b1, p1), (t2, b2, p2) = rows
            print(f"{name:15} {n:7d}  {t1:7.3f} {t2:7.3f} {t2 / t1:5.2f}  {b1:9d} {b2:9d} {b2 / max(b1, 1):5.2f}"
                  f"  {p1:8.3f} {p2:8.3f} {p2 / p1:5.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
