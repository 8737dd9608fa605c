"""Constant folding on FIRM-style SSA program graphs by graph rewriting.

The names imported below are the public API.
"""

from .engine import (
    FoldResult,
    Lts,
    Match,
    Rule,
    apply,
    explore,
    fold,
    format_trace,
    matches,
    normalize_positions,
    replay,
)
from .errors import (
    DuplicatePositionError,
    FirmFoldError,
    FuelExhaustedError,
    GxlError,
    GxlParseError,
    GxlReferenceError,
    IncompatibleEndpointsError,
    MalformedGraphError,
    SchemaError,
    StaleMatchError,
    StateLimitExceeded,
    StepLimitExceeded,
    UnknownBlockError,
    UnknownNodeError,
    UnsupportedNodeTypeError,
)
from .graph import (
    ADD,
    ARITY,
    COND,
    INT32_MAX,
    INT32_MIN,
    JMP,
    PHI,
    RELATIONS,
    RETURN,
    BlockKind,
    Cmp,
    Const,
    EdgeKind,
    EdgeNode,
    NodeId,
    OpKind,
    ProgramGraph,
    wrap32,
)
from .gxl import (
    DialectTag,
    detect_dialect,
    export_dot,
    import_firm_gxl,
    load,
    load_native,
    save_native,
)
from .interp import evaluate
from .isomorphism import canonical_form, canonical_hash, is_isomorphic
from .rules import CATALOG, RULE_NAMES, build_min_plus_one
from .verifier import CHECK_NAMES, Violation, verify

__version__ = "0.1.0"
