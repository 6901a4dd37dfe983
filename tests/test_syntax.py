import copy
import itertools
import pickle
import types
import typing

import pytest
from conftest import recursive_pretty

from tci.failure import Failure, ROOT, throw
from tci.oracle import gen_program, substitute
from tci.parser import decimal_int, parse_goal, parse_program
from tci.syntax import (
    Assign,
    Binary,
    Call,
    CallExpr,
    Case,
    Else,
    Expr,
    Fail,
    Goal,
    IntLit,
    Program,
    Seq,
    Test as RelopTest,
    TrueGoal,
    Union,
    Var,
    expr_vars,
    free_vars,
    int_text,
    iter_goals,
    pretty_print,
    pretty_program,
    shared_union_vars,
    Span,
    _children,
    _walk,
)

# the body of the golden factorial definition
FACTORIAL_BODY = Else(
    Seq(RelopTest(Var("n"), "==", IntLit(0)), Assign("ret", IntLit(1))),
    Seq(
        Assign("m", CallExpr("factorial", (Binary("-", Var("n"), IntLit(1)),))),
        Assign("ret", Binary("*", Var("n"), Var("m"))),
    ),
)


class TestSubstitute:
    def test_replaces_in_test(self):
        g = RelopTest(Var("n"), "!=", IntLit(-1))
        assert substitute(g, {"n": IntLit(3)}) == RelopTest(IntLit(3), "!=", IntLit(-1))

    def test_no_free_occurrences(self):
        assert substitute(TrueGoal(), {"n": IntLit(3)}) == TrueGoal()

    def test_factorial_body_instantiated(self):
        # every n replaced by 4, applied by hand below
        expected = Else(
            Seq(RelopTest(IntLit(4), "==", IntLit(0)), Assign("ret", IntLit(1))),
            Seq(
                Assign("m", CallExpr("factorial", (Binary("-", IntLit(4), IntLit(1)),))),
                Assign("ret", Binary("*", IntLit(4), Var("m"))),
            ),
        )
        assert substitute(FACTORIAL_BODY, {"n": IntLit(4)}) == expected

    def test_case_arms_patterns_untouched(self):
        g = Case((("/F/usr", Assign("x", Var("n"))),), None)
        out = substitute(g, {"n": IntLit(2)})
        assert out == Case((("/F/usr", Assign("x", IntLit(2))),), None)

    def test_idempotent_once_keys_are_gone(self):
        mapping = {"n": IntLit(4)}
        once = substitute(FACTORIAL_BODY, mapping)
        assert substitute(once, mapping) == once

    def test_free_vars_shrink_by_substitution(self):
        g = FACTORIAL_BODY
        out = substitute(g, {"n": Var("k")})
        assert free_vars(out) <= (free_vars(g) - {"n"}) | {"k"}


class TestPrettyPrint:
    def test_union_of_atoms(self):
        assert pretty_print(Union(TrueGoal(), Fail(ROOT))) == "t | f"

    def test_seq_of_atoms(self):
        assert pretty_print(Seq(Assign("x", IntLit(3)), TrueGoal())) == "x = 3; t"

    def test_nested_operands_parenthesized(self):
        assert pretty_print(Else(Seq(TrueGoal(), TrueGoal()), TrueGoal())) == "(t; t) else t"

    def test_fail_paths(self):
        assert pretty_print(Fail("/F/usr/EOF")) == "f(EOF)"
        assert pretty_print(Fail("/F/sys/test")) == "f(/F/sys/test)"
        assert pretty_print(Fail(ROOT)) == "f"

    def test_agrees_with_the_recursive_definition(self):
        for seed in range(1000):
            program, _, _ = gen_program(seed, 8)
            for g in [program.main] + [d.body for d in program.defs.values()]:
                # every goal and expression alone, and every span of the goal
                for sub in iter_goals(g):
                    for e in goal_exprs(sub):
                        assert pretty_print(e) == recursive_pretty(e)
                    assert pretty_print(sub) == recursive_pretty(sub)
                assert_spans(g)

    def test_spans_cover_every_goal_and_call(self):
        g = parse_goal("x = 1; (y = 2 + a | z = h(3)); t")
        spans: dict[int, Span] = {}
        text = pretty_print(g, spans)
        assert text == "x = 1; (y = 2 + a | z = h(3)); t"
        # one printed text, and a slice of it for each goal and call
        assert len({id(printed) for _, _, printed in spans.values()}) == 1
        assert all(printed == [text] for _, _, printed in spans.values())
        shown = {id(node): node for node in _walk(g) if id(node) in spans}
        assert sorted(text[spans[i][0]:spans[i][1]] for i in shown) == sorted([
            "x = 1; (y = 2 + a | z = h(3)); t", "x = 1", "(y = 2 + a | z = h(3)); t",
            "y = 2 + a | z = h(3)", "y = 2 + a", "z = h(3)", "h(3)", "t",
        ])
        assert all(isinstance(node, Goal) or type(node) is CallExpr for node in shown.values())

    def test_shared_sub_nodes(self):
        # a node built twice into one tree is printed, and has the same
        # text, at each place it occurs
        x = Binary("+", Var("x"), IntLit(1))
        a = Assign("y", x)
        g = Union(Seq(a, RelopTest(x, "<", x)), Else(a, Seq(a, a)))
        for node in (g, Seq(g, g), Seq(Seq(a, TrueGoal()), a)):
            assert pretty_print(node) == recursive_pretty(node)
            assert_spans(node)

    @staticmethod
    def chain(n: int) -> Goal:
        g = Assign("x", IntLit(1))
        for _ in range(n - 1):
            g = Seq(Assign("x", IntLit(1)), g)
        return g

    @staticmethod
    def total(n: int) -> Expr:
        e = IntLit(1)
        for _ in range(n - 1):
            e = Binary("+", e, IntLit(1))
        return e

    def test_deep_goals_print_without_host_recursion(self, default_recursion_limit):
        n = 20_000
        chain = "; ".join(["x = 1"] * n)
        assert pretty_print(self.chain(n)) == chain
        assert pretty_print(self.total(n)) == " + ".join(["1"] * n)
        # Neither text has a parenthesis, so both read back at this limit.
        # `==` on trees this deep recurses, so the reading is compared by
        # its text; shallow trees are compared directly.
        sum_goal = "y = " + " + ".join(["1"] * n)
        for text in (chain, sum_goal):
            assert pretty_print(parse_goal(text)) == text
        for g in (self.chain(150), Assign("y", self.total(150))):
            assert parse_goal(pretty_print(g)) == g

    def test_long_integers_print_exactly(self):
        # lengths on both sides of where binary splitting takes over from
        # `str()` (2**13 bits, 2,467 digits), with runs of zeros and nines
        for k in (2_466, 2_467, 2_468, 30_001):
            for digits in ("9" * k, "1" + "0" * k, "1" + "0" * (k - 1) + "1", ("1234567890" * k)[:k]):
                value = decimal_int(digits)
                assert int_text(value) == digits
                assert int_text(-value) == "-" + digits
                assert pretty_print(IntLit(value)) == digits

    def test_only_needed_parentheses(self):
        cases = {
            "a = 1; b = 2; c = 3": "a = 1; b = 2; c = 3",
            "(a = 1; b = 2); c = 3": "(a = 1; b = 2); c = 3",
            "t | t | (f else t else f)": "t | t | (f else t else f)",
            "(t | t) else t else (t; t)": "(t | t) else t else (t; t)",
            "x = 1 + 2 * 3 - 4 / 5 * 6": "x = 1 + (2 * 3) - (4 / 5 * 6)",
            "x = a - (b - c)": "x = a - (b - c)",
            "x = (a + b) * c": "x = (a + b) * c",
            "(a - b) - c < (a * b) - c": "(a - b - c) < (a * b - c)",
        }
        for source, text in cases.items():
            g = parse_goal(source)
            assert pretty_print(g) == text
            assert parse_goal(text) == g


def assert_spans(g: Goal) -> None:
    """`g` prints as the recursive definition says, and so does the span of each goal and call below it."""
    spans: dict[int, Span] = {}
    text = pretty_print(g, spans)
    assert text == recursive_pretty(g)
    for node in _walk(g):
        if isinstance(node, Goal) or type(node) is CallExpr:
            start, end, printed = spans[id(node)]
            assert printed[0] is text
            assert text[start:end] == recursive_pretty(node)


def goal_exprs(g: Goal) -> list[Expr]:
    match g:
        case Assign(_, expr):
            return [expr]
        case RelopTest(left, _, right):
            return [left, right]
        case Call(_, args):
            return list(args)
    return []


class TestFreeVars:
    def test_assignment_and_read(self):
        g = parse_goal("x = 3; y = x + 1")
        assert free_vars(g) == {"x", "y"}

    def test_no_variables(self):
        assert free_vars(TrueGoal()) == set()

    def test_union_branches(self):
        g = parse_goal("(x = 1) | (y = 2)")
        assert free_vars(g) == {"x", "y"}

    def test_call_args_counted_but_not_proc_names(self):
        g = Call("p", (Var("a"), CallExpr("q", (Var("b"),))))
        assert free_vars(g) == {"a", "b"}

    def test_expr_vars(self):
        assert expr_vars(Binary("+", Var("x"), CallExpr("f", (Var("y"),)))) == {"x", "y"}


def sample(hint, fresh: itertools.count):
    """A value of the field type `hint`, each node in it a new one."""
    origin = typing.get_origin(hint)
    if origin is types.UnionType:
        return sample(typing.get_args(hint)[0], fresh)
    if origin is tuple:
        args = typing.get_args(hint)
        if args[-1] is Ellipsis:
            return (sample(args[0], fresh), sample(args[0], fresh))
        return tuple(sample(arg, fresh) for arg in args)
    n = next(fresh)
    if hint is Expr:
        return Var(f"v{n}")
    if hint is Goal:
        return Call(f"g{n}")
    return {str: "+", int: n}[hint]


def held_nodes(value) -> list:
    """The goals and expressions in a field's value, in order, not looking inside them."""
    if isinstance(value, (Goal, Expr)):
        return [value]
    if isinstance(value, tuple):
        return [node for item in value for node in held_nodes(item)]
    return []


NODE_CLASSES = Goal.__subclasses__() + Expr.__subclasses__()


class TestChildren:
    @pytest.mark.parametrize("cls", NODE_CLASSES, ids=lambda cls: cls.__name__)
    def test_children_are_the_nodes_in_the_fields(self, cls):
        # a node class that `_children` does not know would drop out of
        # the printer, the walks and the lint
        fresh = itertools.count()
        hints = typing.get_type_hints(cls.__init__)
        node = cls(**{name: sample(hints[name], fresh) for name in cls.__match_args__})
        held = [n for name in cls.__match_args__ for n in held_nodes(getattr(node, name))]
        assert [id(child) for child in _children(node)] == [id(n) for n in held]

    @pytest.mark.parametrize("cls", NODE_CLASSES, ids=lambda cls: cls.__name__)
    def test_goal_holders_are_the_types_whose_children_are_goals(self, cls):
        # `iter_goals` filters `_walk` to the goals: that is the pre-order of
        # the goals only if no expression holds a goal
        fresh = itertools.count()
        hints = typing.get_type_hints(cls.__init__)
        node = cls(**{name: sample(hints[name], fresh) for name in cls.__match_args__})
        goals = [child for child in _children(node) if isinstance(child, Goal)]
        if issubclass(cls, Expr):
            assert goals == []
        else:
            assert list(map(id, iter_goals(node))) == [id(node), *map(id, goals)]


def recursive_goals(g: Goal) -> list[Goal]:
    """The structural definition of `iter_goals`: `g`, then the goals of each sub-goal, in field order."""
    match g:
        case Seq(first, second) | Union(first, second) | Else(first, second):
            subs = [first, second]
        case Case(arms, default):
            subs = [body for _, body in arms] + ([default] if default is not None else [])
        case _:
            subs = []
    return [g] + [goal for sub in subs for goal in recursive_goals(sub)]


class TestIterGoals:
    def test_agrees_with_the_recursive_pre_order(self):
        kinds = set()
        for seed in range(1000):
            program, _, _ = gen_program(seed, 8)
            for g in [program.main] + [d.body for d in program.defs.values()]:
                expected = recursive_goals(g)
                assert [id(sub) for sub in iter_goals(g)] == [id(sub) for sub in expected], pretty_print(g)
                kinds.update(map(type, expected))
        assert {Seq, Union, Else, Case, Assign, Call, RelopTest} <= kinds


class TestRecord:
    """Nodes keep the value semantics of the frozen dataclasses they replaced."""

    def test_equality_needs_the_same_type(self):
        a, b = Assign("x", IntLit(1)), TrueGoal()
        assert Seq(a, b) == Seq(Assign("x", IntLit(1)), TrueGoal())
        assert Seq(a, b) != Union(a, b)
        assert Seq(a, b) != Seq(b, a)
        assert IntLit(1) != 1

    def test_equal_nodes_hash_equal(self):
        assert hash(FACTORIAL_BODY) == hash(parse_goal(pretty_print(FACTORIAL_BODY)))
        assert len({Var("x"), Var("x"), Var("y")}) == 2

    def test_fields_cannot_be_set_or_deleted(self):
        node = Binary("+", IntLit(1), Var("x"))
        with pytest.raises(AttributeError):
            node.op = "-"
        with pytest.raises(AttributeError):
            node.extra = 1
        with pytest.raises(AttributeError):
            del node.left
        with pytest.raises(AttributeError):
            throw(ROOT).paths = frozenset()
        assert node == Binary("+", IntLit(1), Var("x"))

    def test_copy_and_pickle_round_trip(self):
        program = parse_program("p(n) = n == 0 else f(a/b)\nmain case Failtree of { /F/usr: p(1); _: t }")
        for value in (program, FACTORIAL_BODY, Failure(frozenset((ROOT,)))):
            copied = copy.deepcopy(value)
            assert copied == value and copied is not value
            assert pickle.loads(pickle.dumps(value)) == value

    def test_positional_match(self):
        match Fail(ROOT):
            case Fail(path):
                assert path is ROOT
            case _:
                pytest.fail("no positional match on Fail")
        match Case(((ROOT, TrueGoal()),), Fail()):
            case Case(arms, default):
                assert arms == ((ROOT, TrueGoal()),) and default == Fail()
            case _:
                pytest.fail("no positional match on Case")
        assert Binary.__match_args__ == ("op", "left", "right")

    def test_repr_is_the_dataclass_format(self):
        assert repr(Binary("+", IntLit(1), Var("x"))) == "Binary(op='+', left=IntLit(value=1), right=Var(name='x'))"
        assert repr(TrueGoal()) == "TrueGoal()"
        assert repr(Fail()) == "Fail(path='/F')"
        assert repr(Case(((ROOT, TrueGoal()),))) == "Case(arms=(('/F', TrueGoal()),), default=None)"
        assert repr(throw(ROOT)) == "Failure(paths=frozenset({'/F'}))"
        assert repr(Program({}, TrueGoal())) == "Program(defs={}, main=TrueGoal())"


class TestRoundTrip:
    def test_generated_goals_round_trip(self):
        for seed in range(400):
            program, _, _ = gen_program(seed, 8)
            text = pretty_print(program.main)
            assert parse_goal(text) == program.main, text

    def test_generated_programs_round_trip(self):
        for seed in range(400):
            program, _, _ = gen_program(seed, 6)
            assert parse_program(pretty_program(program)) == program


class TestInvariants:
    def test_case_requires_arms(self):
        with pytest.raises(ValueError):
            Case((), TrueGoal())

    def test_shared_union_vars_lint(self):
        g = parse_goal("(x = 1) | (x = 2)")
        found = shared_union_vars(g)
        assert len(found) == 1
        assert found[0][1] == ["x"]

    def test_independent_union_not_flagged(self):
        assert shared_union_vars(parse_goal("(x = 1) | (y = 2)")) == []


def recursive_free_vars(g: Goal) -> set[str]:
    """The structural definition of `free_vars`, as a reference for the linear walks."""
    match g:
        case Seq(first, second) | Union(first, second) | Else(first, second):
            return recursive_free_vars(first) | recursive_free_vars(second)
        case Case(arms, default):
            bodies = [body for _, body in arms] + ([default] if default is not None else [])
            return set().union(*map(recursive_free_vars, bodies))
        case Assign(var, expr):
            return {var} | expr_vars(expr)
        case RelopTest(left, _, right):
            return expr_vars(left) | expr_vars(right)
        case Call(_, args):
            return set().union(*map(expr_vars, args))
    return set()


class TestSharedUnionVars:
    def test_agrees_with_the_recursive_definition(self):
        flagged = 0
        for seed in range(3000):
            program, _, _ = gen_program(seed, 8)
            for g in [program.main] + [d.body for d in program.defs.values()]:
                assert free_vars(g) == recursive_free_vars(g)
                expected = [
                    (sub, sorted(recursive_free_vars(sub.first) & recursive_free_vars(sub.second)))
                    for sub in iter_goals(g)
                    if isinstance(sub, Union)
                ]
                expected = [(sub, names) for sub, names in expected if names]
                assert shared_union_vars(g) == expected, pretty_print(g)
                flagged += len(expected)
        assert flagged > 100

    def test_wide_union_is_walked_without_host_recursion(self, default_recursion_limit):
        n = 20_000
        g = parse_goal(" | ".join(f"x{i} = {i}" for i in range(n)))
        assert shared_union_vars(g) == []
        # only the outermost `|` has x0 on both sides
        g = parse_goal(" | ".join([f"x{i} = {i}" for i in range(n - 1)] + ["x0 = 1"]))
        assert shared_union_vars(g) == [(g, ["x0"])]

    def test_long_expression_is_walked_without_host_recursion(self, default_recursion_limit):
        e = Var("a")
        for i in range(20_000):
            e = Binary("+", e, Var(f"v{i % 3}"))
        g = Union(Assign("x", e), Assign("y", Var("v2")))
        assert free_vars(g) == {"a", "v0", "v1", "v2", "x", "y"}
        assert shared_union_vars(g) == [(g, ["v2"])]
