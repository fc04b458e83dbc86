"""Model checking workbench for higher-order fixpoint logic.

The package evaluates formulas of a higher-order predicate logic with a
partial-fixpoint quantifier over finite labeled transition systems, and
compiles space-bounded machines into such formulas so the two sides can
be cross-validated against each other.
"""

from .compiler import (
    CodingContext,
    CrossvalReport,
    NotAnEncoding,
    PreconditionError,
    ReductionParams,
    build_machine_formula,
    build_stage_fixpoint,
    crossval,
    decode_stage,
    encode_stage,
    minimal_system_size,
)
from .domains import (
    BudgetError,
    ConformanceError,
    Domain,
    SetV,
    State,
    Tup,
    canonical_compare,
    canonical_index,
    canonical_successor,
    domain_size,
    index_to_value,
    iter_domain,
    make_set,
    tower,
)
from .evaluator import (
    CompiledFormula,
    EvalStats,
    PfpTrace,
    compile_formula,
    evaluate,
    pfp_iterate,
)
from .frontend import (
    ParseError,
    format_formula,
    format_lts,
    format_tm,
    format_type,
    format_value,
    parse_formula,
    parse_lts,
    parse_tm,
    parse_type,
    parse_value,
)
from .logic import (
    GROUND,
    Apply,
    Compound,
    Exists,
    Ground,
    Not,
    Or,
    Pfp,
    Prop,
    Act,
    SetOf,
    Tru,
    TypingError,
    check_well_formed,
    formula_order,
    formula_size,
)
from .lts import Lts, ordered_lts
from .machine import Configuration, RunResult, TmSpec, encode_lts, iter_run, run
from .orders import (
    NameSupply,
    TowerSpec,
    build_eq,
    build_index,
    build_lt,
    build_succ,
    build_total_order_axiom,
)

__all__ = [name for name in dir() if not name.startswith("_")]
