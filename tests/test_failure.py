import random

import pytest
from conftest import run

from tci.failure import (
    Failure,
    ROOT,
    matches,
    render,
    throw,
    user_path,
)
from tci.parser import parse_goal
from tci.syntax import Fail, Goal, Union


def tree(*texts: str) -> Failure:
    return Failure(frozenset(texts))


def segments(path: str) -> tuple[str, ...]:
    return tuple(path[1:].split("/"))


def matches_by_segments(handler: str, failure: Failure) -> bool:
    """Reference for `matches`: the handler's segments are a prefix of some path's segments."""
    h = segments(handler)
    return any(segments(p)[: len(h)] == h for p in failure.paths)


def failing_with(failure: Failure) -> Goal:
    """A goal that fails with exactly the failure's paths: a `|` of one `f(path)` per path."""
    goals = [Fail(p) for p in sorted(failure.paths)]
    g = goals.pop()
    while goals:
        g = Union(goals.pop(), g)
    return g


def either(a: Failure, b: Failure) -> Failure:
    """The outcome of `A | B`, where A fails with a's paths and B with b's: the `|` rule's merge."""
    out, _ = run(Union(failing_with(a), failing_with(b)))
    assert isinstance(out, Failure)
    return out


class TestFailPath:
    def test_canonical_text(self):
        assert parse_goal("f(/F/usr/EOF)").path == "/F/usr/EOF"
        assert parse_goal("f").path == ROOT == "/F"

    def test_user_path(self):
        assert user_path(["EOF"]) == "/F/usr/EOF"
        assert user_path(["io", "disk"]) == "/F/usr/io/disk"


class TestThrow:
    def test_user_failure(self):
        assert throw("/F/usr/EOF") == tree("/F/usr/EOF")

    def test_bare_failure_is_root(self):
        assert throw(ROOT) == tree("/F")

    def test_nested_user_failure(self):
        assert throw(user_path(["io", "disk"])) == tree("/F/usr/io/disk")


class TestMerge:
    def test_union(self):
        assert either(tree("/F/usr/EOF"), tree("/F/sys/test")) == tree("/F/usr/EOF", "/F/sys/test")

    def test_duplicate_is_noop(self):
        assert either(tree("/F/usr/EOF"), tree("/F/usr/EOF")) == tree("/F/usr/EOF")

    def test_idempotent(self):
        t = tree("/F/usr/EOF", "/F")
        assert either(t, t) == t


class TestMatches:
    def test_ancestor_matches(self):
        assert matches("/F/usr", tree("/F/usr/EOF"))

    def test_root_matches_everything(self):
        for t in (tree("/F"), tree("/F/usr/EOF"), tree("/F/sys/test", "/F/usr/a")):
            assert matches(ROOT, t)

    def test_disjoint_does_not_match(self):
        assert not matches("/F/sys", tree("/F/usr/EOF"))

    def test_exact_matches(self):
        assert matches("/F/usr/EOF", tree("/F/usr/EOF"))

    def test_more_specific_handler_does_not_match(self):
        assert not matches("/F/usr/EOF", tree("/F/usr"))

    def test_string_prefix_is_not_a_segment_prefix(self):
        assert not matches("/F/us", tree("/F/usr"))
        assert not matches("/F/usr/a", tree("/F/usr/ab"))
        assert matches("/F/usr/a", tree("/F/usr/ab", "/F/usr/a/b"))

    def test_evaluator_matches_whole_segments(self):
        _, store = run(parse_goal("f(ab) else case Failtree of { /F/usr/a: x = 1; _: x = 2 }"))
        assert store.bindings["x"] == 2


class TestRender:
    def test_single_chain(self):
        assert render(tree("/F/usr/EOF")) == "F\n└─ usr\n   └─ EOF"

    def test_root_only(self):
        assert render(tree("/F")) == "F"

    def test_children_sorted(self):
        text = render(tree("/F/usr/EOF", "/F/sys/test"))
        assert text.index("sys") < text.index("usr")
        assert text == "F\n├─ sys\n│  └─ test\n└─ usr\n   └─ EOF"


class TestProperties:
    # Pairs where one path is a string prefix of the other but not a
    # segment prefix (/F/us and /F/usr, /F/usr/a and /F/usr/ab) pin that
    # `matches` compares whole segments.
    PATH_POOL = (
        "/F", "/F/usr", "/F/usr/EOF", "/F/usr/a", "/F/sys", "/F/sys/test", "/F/sys/a/b",
        "/F/us", "/F/usr/ab", "/F/usr/a/b", "/F/sy", "/F/sys/tes", "/F/Fx",
    )

    # Random paths over these segments hold such pairs too, at every depth.
    SEGMENTS = ("a", "ab", "b", "us", "usr")

    def random_path(self, rng: random.Random) -> str:
        return "/".join(("", "F", *rng.choices(self.SEGMENTS, k=rng.randrange(4))))

    def random_tree(self, rng: random.Random) -> Failure:
        n = rng.randrange(1, 4)
        return Failure(frozenset(rng.choice(self.PATH_POOL) for _ in range(n)))

    def test_empty_tree_rejected(self):
        with pytest.raises(ValueError):
            Failure(frozenset())

    def test_matches_is_segment_prefix(self):
        rng = random.Random(5)
        for _ in range(2000):
            t = self.random_tree(rng)
            handler = rng.choice(self.PATH_POOL)
            assert matches(handler, t) == matches_by_segments(handler, t), (handler, t)
            t = Failure(frozenset(self.random_path(rng) for _ in range(rng.randrange(1, 4))))
            handler = self.random_path(rng)
            assert matches(handler, t) == matches_by_segments(handler, t), (handler, t)

    def test_matches_monotone_in_handler_prefix(self):
        rng = random.Random(7)
        for _ in range(300):
            t = self.random_tree(rng)
            handler = rng.choice(self.PATH_POOL)
            if matches(handler, t):
                segs = segments(handler)
                for cut in range(1, len(segs) + 1):
                    assert matches("/" + "/".join(segs[:cut]), t)

    def test_merge_is_a_semilattice(self):
        rng = random.Random(11)
        for _ in range(300):
            a, b, c = (self.random_tree(rng) for _ in range(3))
            assert either(a, b) == either(b, a)
            assert either(either(a, b), c) == either(a, either(b, c))
            assert either(a, a) == a

    def test_root_matches_every_tree(self):
        rng = random.Random(13)
        for _ in range(300):
            assert matches(ROOT, self.random_tree(rng))
