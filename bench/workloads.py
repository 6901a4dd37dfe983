"""Seeded TC programs for the benchmark, each with its expected result.

Every expected value is worked out here in plain Python (closed forms,
direct arithmetic, the set of thrown paths), never by running tci.  Sizes
are stratified over each workload's ranges, so every seed draws the same
spread of sizes and the names, constants and input differ.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

WORKLOADS = ("calls", "rollback", "parse", "trace")

# Size ranges (inclusive) per workload.  Recursion stays well below the
# host-stack ceiling: `sum(3000, 0)` fails with /F/sys/depth at the seed.
# A range of few values has an odd count, so the median op falls inside
# one value's group rather than in the gap between two.
SIZES = {
    "calls": {"fib": (9, 11), "sum": (200, 600)},
    "rollback": {"attempts": (20, 40), "binds": (12, 24), "width": (60, 120)},
    "parse": {"defs": (50, 100), "stmts": (300, 500), "nest": (40, 60)},
    "trace": {"fib": (4, 6), "chain": (60, 120)},
}

# One op in four of `rollback` ends with main failing, so the CLI renders the tree.
ROLLBACK_FAIL_EVERY = 4


@dataclass
class Op:
    """One `tci run` call and what it must print."""

    source: str
    input: list[int] | None
    trace: bool
    exit_code: int
    stdout: str | None  # exact stdout, or None when `leaves` is checked instead
    leaves: frozenset[str] | None = None  # failure paths the rendered tree must hold
    size: int = 0  # rough count of evaluation writes or tokens; ranks ops for the memory pass


def generate(name: str, seed: int, count: int, scale: float = 1.0) -> list[Op]:
    """`count` ops of workload `name`; `scale` shrinks the size ranges (tests use it).

    Op i takes one size fraction from the i-th stratum in van der Corput
    order, jittered by the seed, and every size parameter is that fraction
    of its range.  Any prefix of the ops then spreads evenly over the
    sizes, so a run that stops partway through the pool, and the median
    op, look the same on every seed.
    """
    rng = random.Random(f"{name}:{seed}")
    make = _GENERATORS[name]
    ops = []
    for i in range(count):
        frac = min(_van_der_corput(i) + rng.random() / count, 0.999999)
        sizes = {}
        for param, (lo, hi) in SIZES[name].items():
            lo, hi = max(1, round(lo * scale)), max(1, round(hi * scale))
            sizes[param] = lo + int(frac * (hi - lo + 1))
        ops.append(make(rng, sizes, i))
    return ops


def _van_der_corput(i: int) -> float:
    """i with its binary digits mirrored after the point: 0, .5, .25, .75, .125, ..."""
    value, unit = 0.0, 0.5
    while i:
        value += unit * (i & 1)
        i >>= 1
        unit /= 2
    return value


class _Names:
    """Fresh identifiers that never collide with keywords, builtins or each other."""

    def __init__(self, rng: random.Random):
        self.rng = rng
        self.taken: set[str] = set()

    def __call__(self) -> str:
        while True:
            stem = self.rng.choice("bcdghjklmnpqrsvwxyz") + self.rng.choice("aeiou")
            name = f"{stem}{self.rng.randint(0, 99)}"
            if name not in self.taken:
                self.taken.add(name)
                return name


def bindings_text(bindings: dict[str, int], printed: list[int] = ()) -> str:
    """What `tci run` prints on success: sorted `name = value` lines, then print() lines."""
    lines = [f"{k} = {bindings[k]}" for k in sorted(bindings)]
    lines += [str(v) for v in printed]
    return "".join(line + "\n" for line in lines)


def _fib(n: int, g0: int, g1: int) -> int:
    """g(0)=g0, g(1)=g1, g(n)=g(n-1)+g(n-2), via g(n) = g0*F(n-1) + g1*F(n)."""
    if n == 0:
        return g0
    prev, cur = 1, 0  # F(-1), F(0)
    for _ in range(n):
        prev, cur = cur, prev + cur
    return g0 * prev + g1 * cur


def _fib_defs(new, g0: int, step: int) -> tuple[str, str]:
    """Expression-position fib; the helper takes F(n-1) as a parameter, so only `ret` is shared."""
    fib, helper, n, a = new(), new(), new(), new()
    text = (
        f"{fib}({n}) = ({n} < 2; ret = {g0} + {n} * {step}) else {helper}({n}, {fib}({n} - 1))\n"
        f"{helper}({n}, {a}) = ret = {a} + {fib}({n} - 2)\n"
    )
    return fib, text


def _fib_calls(n: int) -> int:
    """Calls of fib plus its helper for argument n."""
    return 1 if n < 2 else 2 + _fib_calls(n - 1) + _fib_calls(n - 2)


def _calls(rng: random.Random, sizes: dict[str, int], i: int) -> Op:
    new = _Names(rng)
    n, m = sizes["fib"], sizes["sum"]
    g0, step = rng.randint(0, 5), rng.randint(0, 5)
    fib, fib_text = _fib_defs(new, g0, step)
    summ, k, acc, x, z = new(), new(), new(), new(), new()
    mul, start = rng.randint(1, 4), rng.randint(0, 50)
    source = (
        fib_text
        + f"{summ}({k}, {acc}) = ({k} == 0; {z} = {acc}) else {summ}({k} - 1, {acc} + {k} * {mul})\n"
        + f"main {x} = {fib}({n}); {summ}({m}, {start}); print({x} + {z})\n"
    )
    fib_n = _fib(n, g0, g0 + step)
    total = start + mul * m * (m + 1) // 2
    stdout = bindings_text({x: fib_n, z: total, "ret": fib_n}, [fib_n + total])
    return Op(source, None, False, 0, stdout, size=_fib_calls(n) + m)


def _rollback(rng: random.Random, sizes: dict[str, int], i: int) -> Op:
    """Failing attempts in an `else` chain, then a wide `|` of throws dispatched by `case`."""
    new = _Names(rng)
    attempts, nbinds, width = sizes["attempts"], max(2, sizes["binds"]), sizes["width"]
    attempt, chain, k = new(), new(), new()
    winner = rng.randint(0, 9)
    tokens = [rng.randint(0, 99) for _ in range(4)]

    # The attempt for k == winner succeeds; each one above it binds, reads
    # two tokens, fails on the final test and is rolled back, cursor included.
    names = [new() for _ in range(nbinds)]
    stmts = [f"{names[0]} = read() + {k}", f"{names[1]} = read() - {names[0]}"]
    values = {names[0]: tokens[0] + winner}
    values[names[1]] = tokens[1] - values[names[0]]
    for j in range(2, nbinds):
        mul, add, prev = rng.randint(1, 3), rng.randint(0, 9), names[j - 1]
        op = rng.choice("+-")
        stmts.append(f"{names[j]} = {prev} * {mul} {op} {add}")
        values[names[j]] = values[prev] * mul + (add if op == "+" else -add)
    stmts.append(f"{k} == {winner}")
    defs = (
        f"{attempt}({k}) = " + "; ".join(stmts) + "\n"
        f"{chain}({k}) = {attempt}({k}) else ({k} > 0; {chain}({k} - 1))\n"
    )

    groups = [new() for _ in range(3)]
    paths = [(rng.choice(groups), f"q{j}") for j in range(width)]
    union = " | ".join(f"f({g}/{leaf})" for g, leaf in paths)
    hit = new()
    missing = f"/F/usr/{new()}/none"
    # i // 4 rather than i: op i's size stratum follows i's low bits
    fails = (i // ROLLBACK_FAIL_EVERY) % ROLLBACK_FAIL_EVERY == 0
    if fails:
        arms = f"{missing}: t; /F/usr/{new()}: t"
    else:
        g, leaf = rng.choice(paths)
        arms = f"{missing}: t; /F/usr/{g}/{leaf}: {hit} = {leaf[1:]}"
        values[hit] = int(leaf[1:])
    source = defs + f"main {chain}({winner + attempts}); (({union}) else case Failtree of {{ {arms} }})\n"
    size = attempts * nbinds + width * width // 2
    if fails:
        leaves = frozenset(f"/F/usr/{g}/{leaf}" for g, leaf in paths)
        return Op(source, tokens, False, 1, None, leaves, size)
    return Op(source, tokens, False, 0, bindings_text(values), size=size)


class _Chain:
    """A `;` chain of assignments over a few variables, with its final values."""

    def __init__(self, rng: random.Random, new, nvars: int):
        self.rng = rng
        self.vars = [new() for _ in range(nvars)]
        self.values: dict[str, int] = {}

    def stmt(self) -> str:
        rng, target = self.rng, self.rng.choice(self.vars)
        a, b = rng.randint(0, 99), rng.randint(1, 9)
        if self.values and rng.random() < 0.7:
            src = rng.choice(sorted(self.values))
            text, value = f"{target} = {src} + {a} * {b}", self.values[src] + a * b
        else:
            text, value = f"{target} = {a} - {b}", a - b
        self.values[target] = value
        return text


def _parse(rng: random.Random, sizes: dict[str, int], i: int) -> Op:
    """Mostly source: unused definitions, a long `;` chain and deep parentheses."""
    new = _Names(rng)
    lines = []
    for _ in range(sizes["defs"]):
        proc, p, q, w, z = new(), new(), new(), new(), new()
        c, leaf = rng.randint(1, 9), new()
        lines.append(
            f"{proc}({p}, {q}) = ({p} < {q}; ret = {p} * {c} + {q}) "
            f"else ({w} = {p} - {q}; f({leaf}/x)) | ({z} = {q}; print({z}))\n"
        )
    chain = _Chain(rng, new, 16)
    stmts = [chain.stmt() for _ in range(sizes["stmts"])]
    # Each parenthesis level sends atom_goal down the expression route first.
    at, nest = rng.randrange(len(stmts)), sizes["nest"]
    stmts[at] = "(" * nest + stmts[at] + ")" * nest
    source = "".join(lines) + "main " + ";\n  ".join(stmts) + "\n"
    return Op(source, None, False, 0, bindings_text(chain.values), size=len(source))


def _trace(rng: random.Random, sizes: dict[str, int], i: int) -> Op:
    """`run --trace` on a small call-heavy program plus a `;` chain."""
    new = _Names(rng)
    n = sizes["fib"]
    g0, step = rng.randint(0, 5), rng.randint(0, 5)
    fib, fib_text = _fib_defs(new, g0, step)
    x = new()
    chain = _Chain(rng, new, 8)
    stmts = [f"{x} = {fib}({n})"] + [chain.stmt() for _ in range(sizes["chain"])]
    fib_n = _fib(n, g0, g0 + step)
    values = {**chain.values, x: fib_n, "ret": fib_n}
    source = fib_text + "main " + "; ".join(stmts) + "\n"
    return Op(source, None, True, 0, bindings_text(values), size=sizes["chain"])


_GENERATORS = {"calls": _calls, "rollback": _rollback, "parse": _parse, "trace": _trace}


def tree_leaves(drawing: str) -> set[str]:
    """Leaf paths of a rendered failure tree (`F`, then `├─ `/`└─ ` lines, 3 columns a level)."""
    lines = drawing.splitlines()
    if not lines or lines[0] != "F":
        return set()
    stack, leaves = ["F"], set()
    for line in lines[1:]:
        for mark in ("├─ ", "└─ "):
            at = line.find(mark)
            if at >= 0 and at % 3 == 0:
                break
        else:
            return set()
        depth = at // 3 + 1
        if depth > len(stack):
            return set()
        del stack[depth:]
        leaves.discard("/" + "/".join(stack))
        stack.append(line[at + 3:])
        leaves.add("/" + "/".join(stack))
    return leaves


def check(op: Op, code: int | None, out: str, err: str) -> str | None:
    """None when the op printed what the generator expects, else a short diff."""
    if code != op.exit_code:
        return f"exit code {code!r}, expected {op.exit_code}; stderr: {err[-300:]!r}"
    if op.leaves is not None:
        got = tree_leaves(out)
        if got != op.leaves:
            return (
                f"failure paths differ: missing {sorted(op.leaves - got)[:5]}, "
                f"unexpected {sorted(got - op.leaves)[:5]}"
            )
    elif out != op.stdout:
        want, got = op.stdout.splitlines(), out.splitlines()
        for j, (a, b) in enumerate(zip(want, got)):
            if a != b:
                return f"stdout line {j + 1}: expected {a!r}, got {b!r}"
        return f"stdout has {len(got)} lines, expected {len(want)}"
    if op.trace and not err:
        return "no trace on stderr"
    return None
