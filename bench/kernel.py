"""A fixed plain-Python kernel that tracks the host's speed.

The benchmark runs the kernel before every op it times and scales each
reported time by `factor(kernel median in the same pass)`.  On a shared
host whose speed drifts by 10-60% over minutes, this removes most of the
drift: the kernel never touches tci, so a change to tci moves only the
ops.  `bench.kernel_ms` reports the raw median.

Op times do not follow the kernel one for one: fitted over windows of
4 s on the reference host, log(op time) against log(kernel time) had
slope 0.54-0.76 by workload (0.63 on `calls`, 0.75 on `trace`, 0.73 on
`parse`).  Scaling by the full ratio over-corrects, so the factor uses
the exponent THETA: a regression adjustment on the log of the kernel
time, as in CUPED (Deng et al., WSDM 2013).
"""

from __future__ import annotations

from dataclasses import dataclass
from time import perf_counter

# Median kernel time on the reference host (2-core x86-64 VM, CPython 3.11.7).
REF_MS = 2.5
THETA = 0.65


def factor(kernel_ms: float) -> float:
    """Multiplier that brings a time measured alongside `kernel_ms` to the reference speed."""
    return (REF_MS / kernel_ms) ** THETA


@dataclass(frozen=True)
class _Num:
    value: int


@dataclass(frozen=True)
class _Add:
    left: object
    right: object


@dataclass(frozen=True)
class _Arg:
    pass


@dataclass(frozen=True)
class _If2:  # then-branch when the condition is below 2
    cond: object
    then: object
    other: object


@dataclass(frozen=True)
class _Fib:
    arg: object


_FIB = _If2(_Arg(), _Arg(), _Add(_Fib(_Add(_Arg(), _Num(-1))), _Fib(_Add(_Arg(), _Num(-2)))))


def _walk(e, arg: int) -> int:
    match e:
        case _Num(value):
            return value
        case _Arg():
            return arg
        case _Add(left, right):
            return _walk(left, arg) + _walk(right, arg)
        case _If2(cond, then, other):
            return _walk(then, arg) if _walk(cond, arg) < 2 else _walk(other, arg)
        case _Fib(inner):
            return _walk(_FIB, _walk(inner, arg))
    raise TypeError(e)


def _work() -> int:
    """Fixed plain-Python work like tci's: a dataclass tree walk, then trace-style text."""
    lines = [f"[rule {i % 11}] x{i} = {i * 7} => success" for i in range(1500)]
    return _walk(_Fib(_Num(11)), 0) + len("\n".join(lines))


def run_ms() -> float:
    """Wall time of one kernel run, in ms."""
    start = perf_counter()
    _work()
    return (perf_counter() - start) * 1000
