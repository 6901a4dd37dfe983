"""TC: a tiny imperative language where every statement succeeds or fails.

Failing statements roll back their partial updates, `G1 | G2` succeeds if
at least one operand does, `G1 else G2` handles failures, and failures are
classified by hierarchical paths under /F.  This package provides the
parser, the evaluator, an independent reference semantics for testing,
and the `tci` command-line driver.
"""

from .failure import Failure, matches, render, throw
from .interp import (
    Budget,
    DEFAULT_MAX_STEPS,
    Evaluator,
    Outcome,
    Success,
    eval_goal,
    run_main,
)
from .parser import (
    DuplicateDefinition,
    LexError,
    MissingMain,
    ParseError,
    SourceError,
    SourceSpan,
    parse_goal,
    parse_program,
    tokenize,
)
from .store import Store, UnboundVariable, Value
from .syntax import (
    Assign,
    Binary,
    Call,
    CallExpr,
    Case,
    Def,
    Else,
    Expr,
    Fail,
    Goal,
    IntLit,
    Param,
    Program,
    Read,
    Seq,
    StrLit,
    Test,
    TrueGoal,
    Union,
    Var,
    pretty_print,
    pretty_program,
)

__version__ = "0.1.0"

# The reference semantics is imported on first use, so that `tci run` does not load it.
_ORACLE_NAMES = frozenset({"StoreVal", "derive_bounded", "gen_program"})


def __getattr__(name: str):
    if name in _ORACLE_NAMES:
        from . import oracle

        return getattr(oracle, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
