"""Kernel rows: the calls of ROADMAP's baseline table, on both backends.

Each row times one call on the README inputs.  A row's figure is the
median, over ``REPEATS`` batches of at least ``BATCH_S`` seconds, of the
time per call, each batch scaled to reference speed (see calib.py).
"""

from __future__ import annotations

import statistics
import time

import calib

REPEATS = 5
BATCH_S = 0.01

ROWS = (
    "new",
    "mul",
    "parse_quat",
    "t_rank",
    "mat_mp_inverse_L",
    "mp_inverse",
    "solve_axb",
    "solve_axb_dimension",
    "is_similar",
    "canonical_form",
    "is_consimilar",
    "solve_xa_bxbar",
    "check_penrose_coherence",
)


def rows(approx: bool):
    """One timed call per row name, on the README inputs."""
    import splitquat as sq

    backend = "approx" if approx else None

    def q(text):
        return sq.parse_quat(text, backend=backend)

    light = q("1+j")
    sim_a, sim_b = q("1+5i+3j+4k"), q("1+13i+12j+5k")
    con_a, con_b = q("1+2i+3j+4k"), q("2+i+3j+4k")
    canon = q("1+3i+2j+k")
    coeffs = (1.0, 2.0, 3.0, 4.0) if approx else (1, 2, 3, 4)
    return {
        "new": lambda: sq.SplitQuaternion(*coeffs),
        "mul": lambda: con_a * con_b,
        "parse_quat": lambda: sq.parse_quat("1+3i+2j+k", backend=backend),
        "t_rank": lambda: sq.t_matrix(sim_a, sim_b).rank(),
        "mat_mp_inverse_L": lambda: sq.mat_mp_inverse(sq.left_matrix(light)),
        "mp_inverse": lambda: sq.mp_inverse(light),
        "solve_axb": lambda: sq.solve_axb(light, light, light),
        "solve_axb_dimension": lambda: sq.solve_axb(light, light, light).family.dimension,
        "is_similar": lambda: sq.is_similar(sim_a, sim_b),
        "canonical_form": lambda: sq.canonical_form(canon),
        "is_consimilar": lambda: sq.is_consimilar(con_a, con_b),
        "solve_xa_bxbar": lambda: sq.solve_xa_bxbar(con_a, con_b),
        "check_penrose_coherence": lambda: sq.check_penrose_coherence(light),
    }


def time_call(fn) -> float:
    """Median microseconds per call."""
    clock = time.perf_counter
    fn()
    n = 1
    while True:
        start = clock()
        for _ in range(n):
            fn()
        if clock() - start >= BATCH_S:
            break
        n *= 2
    per_call = []
    for _ in range(REPEATS):
        reference = calib.kernel_ns(1)
        start = clock()
        for _ in range(n):
            fn()
        elapsed = clock() - start
        per_call.append(elapsed / n * 1e6 * calib.factor(reference + calib.kernel_ns(1)))
    return statistics.median(per_call)


def measure():
    """{"kernel.<row>_<backend>_us": microseconds} for every row on both backends."""
    out = {}
    for approx, backend in ((False, "exact"), (True, "float")):
        calls = rows(approx)
        for name in ROWS:
            out[f"kernel.{name}_{backend}_us"] = time_call(calls[name])
    return out

