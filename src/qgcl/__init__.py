"""Guarded-command quantum programming: syntax, semantics, weakest
preconditions and program equivalence over dense matrices."""

from .classical import EPS, ClassicalState, bind, concat, dom, oplus, render, state_set_product
from .equivalence import (
    choi_deviation,
    program_equiv,
    program_equiv_report,
    refinement_member,
    superop_equal,
)
from .errors import (
    ArityError,
    CapacityError,
    ContractError,
    Diagnostic,
    DomainClashError,
    LayoutError,
    QgclError,
    ShapeError,
    SourceError,
    UnsupportedConstructError,
)
from .linalg import (
    choi,
    choi_to_kraus,
    is_positive,
    is_unitary,
    loewner_leq,
    partial_trace,
    tensor,
)
from .ovf import (
    OperatorValuedFunction,
    SuperOperator,
    guarded_ovf,
    guarded_superop_member,
    guarded_unitary,
    lambda_weight,
    to_superop,
)
from .parser import check_source, parse_file, parse_source
from .printer import print_program
from .program import (
    Abort,
    Block,
    GuardBasis,
    Guarded,
    Measure,
    Measurement,
    ProbChoice,
    Program,
    QChoice,
    Seq,
    Skip,
    Unitary,
    ast_equal,
    desugar,
    desugar_qchoice,
    is_core,
    qvar,
    qvar_layout,
    var,
    well_formed,
)
from .registers import DensityMatrix, Observable, RegisterLayout, embed
from .semantics import (
    apply_program,
    coin_relocation_lhs_rhs,
    denote,
    semi_classical,
    system_environment_model,
    unroll_loop,
)
from .wp import wp, wp_apply

__version__ = "0.1.0"
