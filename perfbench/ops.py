"""The operations a workload times, one callable per kind.

Each callable takes library values and returns everything the check
needs; reading a family (``dimension``, ``basis()``, ``at``) happens
inside it, because a caller pays for that too.  Library names are looked
up on the package at call time, so the traced run sees its wrappers.
"""

from __future__ import annotations

import contextlib
import io
import warnings

import splitquat as sq

warnings.simplefilter("ignore", sq.ExactnessWarning)
warnings.simplefilter("ignore", sq.IllConditionedWarning)


def _read_outcome(outcome, y):
    if outcome.solvable:
        family = outcome.family
        return (True, family.at(sq.ZERO), family.at(y))
    return (False, outcome.certificate)


def _read_family(family, y):
    return (family.dimension, family.basis(), family.at(y))


def _read_solved_family(outcome, y):
    """The family of an equation built solvable; None if the library says otherwise."""
    return _read_family(outcome.family, y) if outcome.solvable else None


def _matrix(which, a, b):
    return sq.t_matrix(a, b) if which == "T" else sq.s_matrix(a, b)


RUN = {
    "classify": lambda q: q.classify(),
    "mp_inverse": lambda q: sq.mp_inverse(q),
    "projectors": lambda a: sq.projectors(a),
    "power": lambda q, n: sq.power(q, n),
    "nth_roots": lambda a, n: sq.nth_roots(a, n),
    "solve_axb": lambda a, b, d, y: _read_outcome(sq.solve_axb(a, b, d), y),
    "solve_axd": lambda a, d, y: _read_outcome(sq.solve_axd(a, d), y),
    "solve_xad": lambda a, d, y: _read_outcome(sq.solve_xad(a, d), y),
    "is_similar": lambda a, b: sq.is_similar(a, b),
    "canonical_form": lambda a: sq.canonical_form(a),
    "is_consimilar": lambda a, b: sq.is_consimilar(a, b),
    "family_axb": lambda a, b, d, y: _read_solved_family(sq.solve_axb(a, b, d), y),
    "family_ax0": lambda a, y: _read_family(sq.solve_ax0(a), y),
    "family_xa_bx": lambda a, b, y: _read_family(sq.solve_xa_bx(a, b), y),
    "family_xa_bxbar": lambda a, b, y: _read_family(sq.solve_xa_bxbar(a, b), y),
    "mat_mp_inverse": lambda which, a, b: sq.mat_mp_inverse(_matrix(which, a, b)),
    "nullspace_basis": lambda which, a, b: sq.nullspace_basis(_matrix(which, a, b)),
    "penrose": lambda a, b: sq.check_penrose_coherence(a, b),
}


def cli_main(argv):
    """In-process ``splitquat`` run: (exit code, stdout)."""
    import splitquat.cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = splitquat.cli.main(argv)
    return code, out.getvalue()


def to_library(args, approx: bool):
    """Quaternion tuples become SplitQuaternions, floats on the float backend."""
    return tuple(
        sq.SplitQuaternion(*(float(c) for c in x) if approx else x) if isinstance(x, tuple) else x
        for x in args
    )


# README inputs, as integer 4-tuples so that the set-up probe can hold
# them before it imports anything.
_LIGHT = (1, 0, 1, 0)  # 1+j
_Q = (1, 3, 2, 1)  # 1+3i+2j+k
_SIM = ((1, 5, 3, 4), (1, 13, 12, 5))  # similar pair
_CONSIM = ((1, 2, 3, 4), (2, 1, 3, 4))  # consimilar pair

WARMUP = {
    "classify": (_Q,),
    "mp_inverse": (_LIGHT,),
    "projectors": (_LIGHT,),
    "power": (_LIGHT, 3),
    "nth_roots": (_LIGHT, 2),
    "solve_axb": (_LIGHT, _LIGHT, _LIGHT, _Q),
    "solve_axd": (_LIGHT, _LIGHT, _Q),
    "solve_xad": (_LIGHT, (0, 0, 0, 0), _Q),
    "is_similar": _SIM,
    "canonical_form": (_Q,),
    "is_consimilar": _CONSIM,
    "family_axb": (_LIGHT, _LIGHT, _LIGHT, _Q),
    "family_ax0": (_LIGHT, _Q),
    "family_xa_bx": _SIM + (_Q,),
    "family_xa_bxbar": _CONSIM + (_Q,),
    "mat_mp_inverse": ("S",) + _CONSIM,
    "nullspace_basis": ("T",) + _SIM,
    "penrose": (_LIGHT, _LIGHT),
}


def warm_up(kinds, approx: bool):
    """One call of each kind on the README inputs, filling lazy tables."""
    for kind in kinds:
        RUN[kind](*to_library(WARMUP[kind], approx))
