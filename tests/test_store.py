import random

import pytest

from tci.store import EOF_SENTINEL, Store, UnboundVariable


def open_store(bindings=None, input_tokens=()):
    return Store(input_tokens, bindings)


class TestBind:
    def test_fresh_binding(self):
        s = open_store()
        s.bind("x", 3)
        assert s.bindings == {"x": 3}

    def test_rebinding_replaces(self):
        s = open_store({"x": 3})
        s.bind("x", 5)
        assert s.bindings == {"x": 5}

    def test_bind_then_rollback_restores(self):
        s = open_store({"x": 3})
        mark = s.checkpoint()
        s.bind("x", 5)
        s.rollback(mark)
        assert s.bindings == {"x": 3}


class TestLookup:
    def test_present(self):
        assert open_store({"x": 3}).lookup("x") == 3

    def test_absent(self):
        with pytest.raises(UnboundVariable):
            open_store().lookup("x")

    def test_string_value(self):
        assert open_store({"x": "a"}).lookup("x") == "a"


class TestReadInput:
    def test_reads_and_advances(self):
        s = open_store(input_tokens=[42, 7])
        assert s.read_input() == 42
        assert s.cursor == 1

    def test_exhausted_returns_sentinel(self):
        s = open_store(input_tokens=[42, 7])
        s.read_input()
        s.read_input()
        assert s.read_input() == -1
        assert s.cursor == 2

    def test_read_then_rollback_restores_cursor(self):
        s = open_store(input_tokens=[42, 7])
        mark = s.checkpoint()
        s.read_input()
        s.rollback(mark)
        assert s.cursor == 0


class TestCheckpoints:
    """A mark that is never rolled back to commits: its edits stay, and an outer mark can still undo them."""

    def test_rollback_discards(self):
        s = open_store()
        mark = s.checkpoint()
        s.bind("x", 1)
        s.rollback(mark)
        assert "x" not in s.bindings

    def test_commit_keeps(self):
        s = open_store()
        s.checkpoint()
        s.bind("x", 1)
        assert s.bindings == {"x": 1}

    def test_nested_rollback_undoes_everything(self):
        s = open_store()
        outer = s.checkpoint()
        s.checkpoint()
        s.bind("x", 1)
        s.rollback(outer)
        assert s.bindings == {} and s.undo_depth == 0

    def test_commit_then_outer_rollback_still_undoes(self):
        s = open_store({"x": 0})
        outer = s.checkpoint()
        s.checkpoint()
        s.bind("x", 1)
        s.rollback(outer)
        assert s.bindings == {"x": 0}

    def test_mark_is_the_log_length(self):
        # a mark is the number of marks open, and a mark's table holds one
        # old value per name bound, one cursor and one output length
        s = open_store(input_tokens=[1, 2])
        assert s.checkpoint() == 1 and s.undo_depth == 0
        for _ in range(2):
            s.bind("x", 1)
            s.read_input()
            s.emit_output("line")
        assert s.undo_depth == 3
        assert s.checkpoint() == 2 and s.undo_depth == 3
        s.bind("x", 2)
        s.emit_output("line")
        assert s.undo_depth == 5

    def test_commit_and_rollback_reopen_the_enclosing_mark(self):
        # after either, the next mark opened is the enclosing mark's successor,
        # and an edit goes to the enclosing mark's table
        s = open_store()
        outer = s.checkpoint()
        s.bind("x", 1)
        assert s.checkpoint() == outer + 1
        s.commit()
        inner = s.checkpoint()
        assert inner == outer + 1
        s.bind("y", 2)
        s.rollback(inner)
        assert s.bindings == {"x": 1}
        s.bind("z", 3)
        assert s.checkpoint() == outer + 1
        s.rollback(outer)
        assert s.bindings == {} and s.undo_depth == 0


class TestConditionalTrailing:
    def test_a_name_is_logged_once_per_mark(self):
        s = open_store({"x": 0})
        outer = s.checkpoint()
        for v in range(1, 5):
            s.bind("x", v)
        assert s.undo_depth == 1
        inner = s.checkpoint()
        s.bind("x", 5)
        s.bind("x", 6)
        assert s.undo_depth == 2
        s.rollback(inner)
        assert s.bindings == {"x": 4} and s.undo_depth == 1
        s.rollback(outer)
        assert s.bindings == {"x": 0} and s.undo_depth == 0

    def test_commit_folds_what_the_enclosing_mark_would_undo(self):
        s = open_store({"x": 0})
        outer = s.checkpoint()
        s.bind("x", 1)
        s.checkpoint()
        s.bind("x", 2)
        s.commit()
        assert s.undo_depth == 1 and s.bindings == {"x": 2}
        s.bind("x", 3)  # the open mark's table already holds x
        assert s.undo_depth == 1
        s.rollback(outer)
        assert s.bindings == {"x": 0}

    def test_commit_keeps_an_entry_under_one_it_cannot_fold(self):
        # y is new above the outer mark, so the merged table takes y's entry,
        # and keeps x's older one, whichever table is the larger
        for extra in range(4):
            s = open_store({"x": 0})
            outer = s.checkpoint()
            s.bind("x", 1)
            for i in range(extra):
                s.bind(f"a{i}", i)
            s.checkpoint()
            s.bind("x", 2)
            s.bind("y", 2)
            s.commit()
            assert s.undo_depth == 2 + extra
            s.rollback(outer)
            assert s.bindings == {"x": 0}

    def test_nested_successes_leave_one_entry_per_name(self):
        # 100 nested marks each rebind a, the innermost binds t; once all
        # are closed by success, one old value per name is left (an undo
        # log that folds only its top entries keeps 102)
        s = open_store()
        s.bind("a", -1)
        for depth in range(100):
            s.checkpoint()
            s.bind("a", depth)
        s.bind("t", 0)
        for _ in range(100):
            s.commit()
        assert s.undo_depth == 2
        assert s.bindings == {"a": 99, "t": 0}

    def test_a_loop_of_successes_keeps_the_log_constant(self):
        # the shape of a tail-recursive call whose `else` tries, binds and succeeds
        s = open_store()
        outer = s.checkpoint()
        for n in range(1000):
            s.checkpoint()
            s.bind("ret", n)
            s.bind("x", n)
            s.commit()
        assert s.undo_depth == 2
        s.rollback(outer)
        assert s.bindings == {}


class TestEmitOutput:
    def test_emit_then_commit(self):
        s = open_store()
        s.checkpoint()
        s.emit_output("hi")
        assert s.output == ["hi"]

    def test_emit_then_rollback(self):
        s = open_store()
        mark = s.checkpoint()
        s.emit_output("hi")
        s.rollback(mark)
        assert s.output == []

    def test_order_preserved(self):
        s = open_store()
        s.emit_output("one")
        s.emit_output("two")
        assert s.output == ["one", "two"]


class TestProperties:
    def random_edits(self, rng, s):
        for _ in range(rng.randrange(0, 12)):
            op = rng.randrange(3)
            if op == 0:
                s.bind(rng.choice("xyzw"), rng.randrange(-3, 4))
            elif op == 1:
                s.read_input()
            else:
                s.emit_output(str(rng.randrange(10)))

    def test_rollback_restores_observable_state(self):
        rng = random.Random(23)
        for _ in range(300):
            s = open_store(
                bindings={v: rng.randrange(5) for v in rng.sample("xyzw", rng.randrange(3))},
                input_tokens=[rng.randrange(9) for _ in range(rng.randrange(4))],
            )
            self.random_edits(rng, s)  # edits under no mark stay
            before = s.snapshot()
            mark = s.checkpoint()
            self.random_edits(rng, s)
            s.rollback(mark)
            assert s.snapshot() == before

    def test_nested_commits_equal_flat_edits(self):
        rng = random.Random(29)
        for _ in range(200):
            seed = rng.randrange(10**9)
            nested = open_store(input_tokens=[1, 2, 3])
            inner_rng = random.Random(seed)
            nested.checkpoint()
            self.random_edits(inner_rng, nested)
            nested.checkpoint()
            self.random_edits(inner_rng, nested)

            flat = open_store(input_tokens=[1, 2, 3])
            flat_rng = random.Random(seed)
            self.random_edits(flat_rng, flat)
            self.random_edits(flat_rng, flat)
            assert nested.snapshot() == flat.snapshot()

    def test_interleaved_marks_match_a_model(self):
        # A model machine (a dict, a cursor, a list) takes the same random
        # edits.  Marks open and end as the evaluator's catch points do: the
        # innermost ends by success (`commit`) or by failure (`rollback`),
        # and now and then a run's host-stack handler rolls back to a mark
        # below it, ending every mark inside.  After every step the store
        # matches the model, and each rollback restores the snapshot taken
        # at its mark.  The store never holds more old values than the
        # bound in `tci.store`'s docstring, whatever the sequence's length.
        rng = random.Random(31)
        for trial in range(100):
            names = "xyzw"[: rng.randint(1, 4)]
            binds_only = trial % 2 == 0
            most_open = rng.randint(1, 6)
            bindings = {v: rng.randrange(5) for v in rng.sample(names, rng.randrange(len(names)))}
            tokens = [rng.randrange(9) for _ in range(rng.randrange(6))]
            s = open_store(dict(bindings), tokens)
            model_bindings, model_cursor, model_output = dict(bindings), 0, []
            held: list[tuple[int, tuple]] = []  # (mark, snapshot at the mark), innermost last
            for _ in range(rng.randrange(50, 5000)):
                op = rng.randrange(7)
                if op in (0, 1) or (binds_only and op in (2, 3)):
                    name, value = rng.choice(names), rng.choice([rng.randrange(-3, 4), "s"])
                    s.bind(name, value)
                    model_bindings[name] = value
                elif op == 2:
                    expected = tokens[model_cursor] if model_cursor < len(tokens) else EOF_SENTINEL
                    assert s.read_input() == expected
                    model_cursor = min(model_cursor + 1, len(tokens))
                elif op == 3:
                    line = str(rng.randrange(10))
                    s.emit_output(line)
                    model_output.append(line)
                elif op == 4 and len(held) < most_open:
                    held.append((s.checkpoint(), s.snapshot()))
                    assert held[-1][0] == len(held)
                elif op == 5 and held:
                    held.pop()
                    s.commit()
                elif op == 6 and held:
                    # as `Evaluator.run` does on RecursionError, now and then
                    # roll back to a held mark below the innermost
                    i = rng.randrange(len(held)) if rng.random() < 0.2 else len(held) - 1
                    mark, snapshot = held[i]
                    del held[i:]
                    s.rollback(mark)
                    assert s.snapshot() == snapshot
                    model_bindings, model_cursor, model_output = dict(snapshot[0]), snapshot[1], list(snapshot[2])
                assert s.snapshot() == (model_bindings, model_cursor, tuple(model_output))
                assert s.undo_depth <= (len(held) + 1) * (len(names) + 2)
