"""Split-quaternion algebra toolkit.

Classification, powers and roots of zero divisors, Moore-Penrose
inverses, linear-equation solvers with zero-divisor coefficients, and
similarity/consimilarity decision procedures with explicit witnesses.
"""

from .consimilarity import is_consimilar, solve_xa_bxbar
from .core import (
    CausalClass,
    I,
    J,
    K,
    ONE,
    SplitQuaternion,
    ZERO,
)
from .errors import (
    CaseMismatchError,
    ExactnessWarning,
    IllConditionedWarning,
    NonFiniteError,
    NotInvertibleError,
    NotLightlikeError,
    ParseError,
    RealInputError,
    SplitQuaternionError,
    WitnessSearchExhaustedError,
    ZeroCoefficientError,
    ZeroInputError,
)
from .matrices import (
    F_MATRIX,
    Mat4,
    TRankCase,
    left_matrix,
    linear_system_consistent,
    mat_mp_inverse,
    nullspace_basis,
    quaternion_term_decomposition,
    right_matrix,
    s_matrix,
    t_matrix,
    t_rank_case,
    unvec,
    vec,
)
from .parsing import parse_quat
from .pinv import check_penrose_coherence, mp_inverse, projectors
from .roots import (
    LightlikePolar,
    from_polar,
    is_idempotent,
    is_nilpotent,
    nth_roots,
    power,
    to_polar,
)
from .scalars import DEFAULT_EPS
from .similarity import (
    CanonicalForm,
    PROBE_YS,
    Verdict,
    canonical_form,
    is_similar,
    solve_sim_rank2,
    solve_sim_rank3,
    solve_xa_bx,
)
from .solvers import (
    SolutionFamily,
    SolveOutcome,
    solve_ax0,
    solve_axb,
    solve_axd,
    solve_xad,
)

__version__ = "0.1.0"

__all__ = [
    "CanonicalForm",
    "CaseMismatchError",
    "CausalClass",
    "DEFAULT_EPS",
    "ExactnessWarning",
    "F_MATRIX",
    "I",
    "IllConditionedWarning",
    "J",
    "K",
    "LightlikePolar",
    "Mat4",
    "NonFiniteError",
    "NotInvertibleError",
    "NotLightlikeError",
    "ONE",
    "PROBE_YS",
    "ParseError",
    "RealInputError",
    "SolutionFamily",
    "SolveOutcome",
    "SplitQuaternion",
    "SplitQuaternionError",
    "TRankCase",
    "Verdict",
    "WitnessSearchExhaustedError",
    "ZERO",
    "ZeroCoefficientError",
    "ZeroInputError",
    "canonical_form",
    "check_penrose_coherence",
    "from_polar",
    "is_consimilar",
    "is_idempotent",
    "is_nilpotent",
    "is_similar",
    "left_matrix",
    "linear_system_consistent",
    "mat_mp_inverse",
    "mp_inverse",
    "nth_roots",
    "nullspace_basis",
    "parse_quat",
    "power",
    "projectors",
    "quaternion_term_decomposition",
    "right_matrix",
    "s_matrix",
    "solve_ax0",
    "solve_axb",
    "solve_axd",
    "solve_sim_rank2",
    "solve_sim_rank3",
    "solve_xa_bx",
    "solve_xa_bxbar",
    "solve_xad",
    "t_matrix",
    "t_rank_case",
    "to_polar",
    "unvec",
    "vec",
]
