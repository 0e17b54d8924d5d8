"""Verification toolkit for delay-insensitive handshake state machines.

The package decides blocking/idling temporal properties of handshake
automata under stable-wire environments, verifies blocked/idle equations
over all environments, composes primitive circuits, hunts deadlocks in
the product space, and derives the matching boolean deadlock instances
for SAT/SMT solving.
"""

from .checker import (
    BLOCKING,
    IDLING,
    CheckResult,
    TemporalQuery,
    blocked,
    cross_validate,
    fg_check,
    g_check,
    idle,
    oracle_fg_check,
    oracle_g_check,
    reasonable_envs,
)
from .circuit import (
    DeadlockInstance,
    Netlist,
    ProductSystem,
    analyze_deadlock,
    compose,
    derive_deadlock_formula,
    emit_smt,
    find_deadlock,
    parse_netlist,
)
from .formulas import (
    Verdict,
    parse_condition,
    verify_condition,
)
from .labeling import (
    AmbiguityReport,
    AmbiguousMachineError,
    LabelMap,
    UnknownHandshakeError,
    check_unambiguous,
    compute_block_idle,
)
from .library import PrimitiveSpec, builtin_library, get_primitive, verify_library
from .machine import (
    Environment,
    ValidationReport,
    Wire,
    XdiMachine,
    format_env,
    is_environment,
    is_trace,
    parse_document,
    parse_env,
    validate,
)
from .sexpr import ParseError

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "BLOCKING",
    "IDLING",
    "CheckResult",
    "TemporalQuery",
    "blocked",
    "idle",
    "g_check",
    "fg_check",
    "oracle_g_check",
    "oracle_fg_check",
    "cross_validate",
    "reasonable_envs",
    "Netlist",
    "ProductSystem",
    "DeadlockInstance",
    "parse_netlist",
    "compose",
    "find_deadlock",
    "analyze_deadlock",
    "derive_deadlock_formula",
    "emit_smt",
    "Verdict",
    "parse_condition",
    "verify_condition",
    "LabelMap",
    "AmbiguityReport",
    "AmbiguousMachineError",
    "UnknownHandshakeError",
    "compute_block_idle",
    "check_unambiguous",
    "PrimitiveSpec",
    "builtin_library",
    "get_primitive",
    "verify_library",
    "XdiMachine",
    "Wire",
    "Environment",
    "ValidationReport",
    "parse_document",
    "validate",
    "is_trace",
    "is_environment",
    "parse_env",
    "format_env",
    "ParseError",
]
