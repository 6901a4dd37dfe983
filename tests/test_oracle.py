import copy
import random

from tci.failure import ROOT
from tci.oracle import (
    Derivable,
    DepthExhausted,
    NotDerivable,
    StoreVal,
    derive_bounded,
    gen_program,
)
from tci.parser import parse_goal, parse_program
from tci.syntax import (
    Assign,
    Call,
    CallExpr,
    Def,
    Fail,
    Goal,
    IntLit,
    Param,
    Program,
    Seq,
    TrueGoal,
    Var,
    _walk,
    iter_goals,
)

EMPTY = Program({}, TrueGoal())


class TestDeriveBounded:
    def test_true_is_derivable(self):
        result = derive_bounded(EMPTY, StoreVal(), TrueGoal())
        assert result == Derivable(StoreVal())

    def test_fail_is_not_derivable(self):
        result = derive_bounded(EMPTY, StoreVal(), Fail(ROOT))
        assert isinstance(result, NotDerivable)
        assert result.tree.paths == {"/F"}

    def test_second_branch_rescues(self):
        result = derive_bounded(EMPTY, StoreVal(), parse_goal("f | t"))
        assert result == Derivable(StoreVal())

    def test_threaded_union_state(self):
        result = derive_bounded(EMPTY, StoreVal(), parse_goal("(x = 1) | (y = 2)"))
        assert isinstance(result, Derivable)
        assert result.store.bindings == {"x": 1, "y": 2}

    def test_depth_bound_reported(self):
        program = parse_program("loop() = loop()\nmain loop()")
        result = derive_bounded(program, StoreVal(), program.main, max_depth=6)
        assert isinstance(result, DepthExhausted)

    def test_read_consumes_input(self):
        result = derive_bounded(EMPTY, StoreVal(input=(5, 7)), parse_goal("x = read()"))
        assert isinstance(result, Derivable)
        assert result.store.bindings == {"x": 5} and result.store.cursor == 1

    def test_inputs_never_mutated(self):
        program, sv, _ = gen_program(12, 6)
        before = (copy.deepcopy(program), copy.deepcopy(sv))
        derive_bounded(program, sv, program.main)
        assert (program, sv) == before


class TestGenProgram:
    def test_deterministic(self):
        assert gen_program(0, 6) == gen_program(0, 6)
        assert gen_program(1, 6) == gen_program(1, 6)

    def test_seeds_differ(self):
        assert gen_program(0, 6) != gen_program(1, 6)

    def test_programs_are_well_formed(self):
        from tci.syntax import pretty_program

        for seed in range(200):
            program, sv, inp = gen_program(seed, 6)
            assert parse_program(pretty_program(program)) == program
            assert len(program.defs) <= 2
            assert all(len(d.params) <= 2 for d in program.defs.values())
            assert len(sv.bindings) <= 3
            assert len(inp) <= 3
            assert sv.input == inp

    def test_bodies_read_their_parameters_as_params(self):
        # a body's own parameter is never a `Var`, as the parser resolves it;
        # another definition's parameter name is a global `Var`
        params_read = 0
        for seed in range(3000):
            program, _, _ = gen_program(seed, 6)
            for d in program.defs.values():
                for node in _walk(d.body):
                    if type(node) is Var:
                        assert node.name not in d.params, (seed, d)
                    elif type(node) is Param:
                        assert d.params[node.index] == node.name, (seed, d)
                        params_read += 1
        assert params_read > 0

    def test_goal_size_within_bound(self):
        def goal_nodes(g: Goal) -> int:
            return sum(1 for _ in iter_goals(g))

        for seed in range(200):
            program, _, _ = gen_program(seed, 6)
            assert goal_nodes(program.main) <= 6

    def test_call_graph_acyclic(self):
        # p may call q; q may call nothing; nobody calls itself
        from tci.syntax import Assign, Binary, Test

        def called_names(g):
            def expr_calls(e):
                match e:
                    case CallExpr(name, args):
                        yield name
                        for a in args:
                            yield from expr_calls(a)
                    case Binary(_, left, right):
                        yield from expr_calls(left)
                        yield from expr_calls(right)
                    case _:
                        pass

            for sub in iter_goals(g):
                match sub:
                    case Call(name, args):
                        yield name
                        for a in args:
                            yield from expr_calls(a)
                    case Assign(_, e):
                        yield from expr_calls(e)
                    case Test(left, _, right):
                        yield from expr_calls(left)
                        yield from expr_calls(right)
                    case _:
                        pass

        order = {"p": 0, "q": 1}
        for seed in range(300):
            program, _, _ = gen_program(seed, 6)
            for (name, _), d in program.defs.items():
                for callee in called_names(d.body):
                    if callee in order:
                        assert order[callee] > order[name]


class TestAgreement:
    def test_reference_and_evaluator_agree(self):
        from tci.interp import Success, eval_goal
        from tci.store import Store

        exhausted = 0
        for seed in range(400):
            program, sv, inp = gen_program(seed, 6)
            reference = derive_bounded(program, sv, program.main)
            if isinstance(reference, DepthExhausted):
                exhausted += 1
                continue
            store = Store(inp, dict(sv.bindings))
            out = eval_goal(program, store, program.main)
            assert isinstance(reference, Derivable) == isinstance(out, Success)
        assert exhausted < 4

    def test_a_body_var_named_like_a_parameter_reads_the_store(self):
        # a hand-built body that reads its parameter's name as a `Var`, not
        # a `Param`: both sides read the global `n`, not the argument
        from tci.interp import Success, run_main

        body = Assign("x", Var("n"))
        program = Program({("p", 1): Def("p", ("n",), body)}, Seq(Assign("n", IntLit(5)), Call("p", (IntLit(1),))))
        outcome, store, _ = run_main(program, [])
        reference = derive_bounded(program, StoreVal(), program.main)
        assert isinstance(outcome, Success) and isinstance(reference, Derivable)
        assert reference.store.bindings == store.bindings == {"n": 5, "x": 5}

    def test_true_derivable_for_every_store(self):
        rng = random.Random(3)
        for _ in range(50):
            sv = StoreVal(
                bindings={v: rng.randrange(-3, 4) for v in rng.sample("xyzw", rng.randrange(4))},
                input=tuple(rng.randrange(-3, 4) for _ in range(rng.randrange(3))),
            )
            assert derive_bounded(EMPTY, sv, TrueGoal()) == Derivable(sv)
