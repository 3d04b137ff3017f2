"""Split-quaternion algebra toolkit.

Classification, powers and roots of zero divisors, Moore-Penrose
inverses, linear-equation solvers with zero-divisor coefficients, and
similarity/consimilarity decision procedures with explicit witnesses.

Every public name is imported from its module on first use (PEP 562),
so ``import splitquat`` and each CLI subcommand load only the modules
they run.  A name is looked up in its module on every access, never
cached here, so a module attribute replaced at run time is seen.
"""

import sys
from importlib import import_module

__version__ = "0.1.0"

#: Each module, and the public names it defines.
_MODULES = {
    "consimilarity": "is_consimilar solve_xa_bxbar",
    "core": "CausalClass I J K ONE SplitQuaternion ZERO",
    "errors": (
        "ExactnessWarning IllConditionedWarning NonFiniteError NotInvertibleError "
        "NotLightlikeError ParseError RealInputError SplitQuaternionError "
        "ZeroCoefficientError ZeroInputError"
    ),
    "matrices": (
        "F_MATRIX Mat4 left_matrix linear_system_consistent mat_mp_inverse nullspace_basis "
        "right_matrix s_matrix t_matrix unvec vec"
    ),
    "parsing": "parse_quat",
    "pinv": "check_penrose_coherence mp_inverse projectors",
    "roots": "LightlikePolar from_polar is_idempotent is_nilpotent nth_roots power to_polar",
    "scalars": "DEFAULT_EPS",
    "similarity": "CanonicalForm canonical_form is_similar solve_xa_bx",
    "solvers": "SolutionFamily SolveOutcome Verdict solve_ax0 solve_axb solve_axd solve_xad",
}

_HOME = {name: module for module, names in _MODULES.items() for name in names.split()}

__all__ = sorted(_HOME)


def __getattr__(name):
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = f"{__name__}.{module}"
    if module not in sys.modules:
        import_module(module)
    return getattr(sys.modules[module], name)


def __dir__():
    return sorted(set(globals()) | set(__all__))
