import sys
from pathlib import Path

import pytest

from tci import Program, Store, eval_goal
from tci.syntax import TRUE

GOLDEN_DIR = Path(__file__).parent / "golden"

EMPTY_PROGRAM = Program({}, TRUE)


@pytest.fixture
def golden_dir() -> Path:
    return GOLDEN_DIR


@pytest.fixture
def default_recursion_limit():
    """Python's default limit, which `cli.main` raises for the rest of the process."""
    saved = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    yield
    sys.setrecursionlimit(saved)


def make_store(bindings=None, input_tokens=()) -> Store:
    return Store(input_tokens, bindings)


def run(goal, program=EMPTY_PROGRAM, bindings=None, input_tokens=()):
    """Evaluate a goal on a fresh store; returns (outcome, store)."""
    store = make_store(bindings, input_tokens)
    outcome = eval_goal(program, store, goal)
    return outcome, store
