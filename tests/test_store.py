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
        s = open_store(input_tokens=[1])
        assert s.checkpoint() == 0
        s.bind("x", 1)
        s.read_input()
        s.emit_output("line")
        assert s.checkpoint() == s.undo_depth == 3


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
        # edits; marks are taken, dropped (the operand succeeded) and rolled
        # back to, nested as the evaluator nests them.  After every step the
        # store matches the model, and each rollback restores the snapshot
        # taken at its mark.
        rng = random.Random(31)
        for _ in range(200):
            bindings = {v: rng.randrange(5) for v in rng.sample("xyzw", rng.randrange(3))}
            tokens = [rng.randrange(9) for _ in range(rng.randrange(6))]
            s = open_store(dict(bindings), tokens)
            model_bindings, model_cursor, model_output = dict(bindings), 0, []
            held: list[tuple[int, tuple]] = []  # (mark, snapshot at the mark), innermost last
            for _ in range(rng.randrange(1, 60)):
                op = rng.randrange(6)
                if op == 0:
                    name, value = rng.choice("xyzw"), rng.choice([rng.randrange(-3, 4), "s"])
                    s.bind(name, value)
                    model_bindings[name] = value
                elif op == 1:
                    expected = tokens[model_cursor] if model_cursor < len(tokens) else EOF_SENTINEL
                    assert s.read_input() == expected
                    model_cursor = min(model_cursor + 1, len(tokens))
                elif op == 2:
                    line = str(rng.randrange(10))
                    s.emit_output(line)
                    model_output.append(line)
                elif op == 3:
                    held.append((s.checkpoint(), s.snapshot()))
                elif op == 4 and held:
                    held.pop()
                elif op == 5 and held:
                    # roll back to one held mark; the marks inside it go with it
                    i = rng.randrange(len(held))
                    mark, snapshot = held[i]
                    del held[i:]
                    s.rollback(mark)
                    assert s.snapshot() == snapshot
                    model_bindings, model_cursor, model_output = dict(snapshot[0]), snapshot[1], list(snapshot[2])
                assert s.snapshot() == (model_bindings, model_cursor, tuple(model_output))
