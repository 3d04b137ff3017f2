"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest -s tests/test_acceptance.py`` to see the lines.
"""

import math
import random
import time
import warnings

from fractions import Fraction

from splitquat import (
    I,
    J,
    K,
    ONE,
    SplitQuaternion,
    ZERO,
    canonical_form,
    check_penrose_coherence,
    is_consimilar,
    is_similar,
    left_matrix,
    linear_system_consistent,
    mat_mp_inverse,
    mp_inverse,
    nth_roots,
    parse_quat,
    power,
    right_matrix,
    s_matrix,
    solve_axb,
    solve_xa_bx,
    solve_xa_bxbar,
    t_matrix,
    to_polar,
)
from conftest import (
    rand_causal,
    rand_circle,
    rand_fraction,
    rand_lightlike,
    rand_nonreal,
    rand_quat,
    rand_rank3_pair,
    rand_similar_pair,
    rand_with_im_squared_minus,
    rand_with_im_squared_plus,
)
from oracles import s_det, t_det, t_eigenvalues

SUBSTITUTION_PROBES = (ZERO, ONE, I, J, K, ONE + I + J + K)

#: The four units and their six pairwise sums: points at which a
#: non-similar pair's solution set is searched for an invertible element.
UNIT_PROBES = (ONE, I, J, K, ONE + I, ONE + J, ONE + K, I + J, I + K, J + K)


def _report(number: int, label: str, failures):
    status = "PASS" if not failures else "FAIL"
    print(f"ACCEPTANCE {number} ({label}): {status}")
    assert not failures, f"criterion {number}: {failures[:5]}"


def _norm(q) -> float:
    return math.sqrt(sum(float(c) ** 2 for c in q.coeffs))


def test_criterion_1_reference_golden_suite():
    failures = []
    start = time.monotonic()

    a, b = parse_quat("1+3i+2j+k"), parse_quat("1+3i+j+2k")
    if not (a.im_squared == b.im_squared == Fraction(-4)):
        failures.append("pair 1 invariants")
    if t_matrix(a, b).rank() != 2:
        failures.append("pair 1 rank")

    a, b = parse_quat("2+i+k"), parse_quat("1+k")
    if not (a.im_squared == 0 and b.im_squared == 1):
        failures.append("pair 2 invariants")
    if t_matrix(a, b).rank() != 3:
        failures.append("pair 2 rank")

    a, b = parse_quat("1+5i+5j+2k"), parse_quat("2+i+j+3k")
    eigs = sorted(float(re) for re, im in t_eigenvalues(a, b))
    if eigs != [-6.0, -2.0, 0.0, 4.0] or any(im != 0 for _, im in t_eigenvalues(a, b)):
        failures.append(f"eigenvalues {eigs}")
    if t_matrix(a, b).rank() != 3:
        failures.append("pair 3 rank")
    family = solve_xa_bx(a, b)
    direction = parse_quat("-3+i+j+3k")
    if family.dimension != 1:
        failures.append("pair 3 dimension")
    if family.at(ONE) != 2 * direction:
        failures.append(f"pair 3 at y=1 gave {family.at(ONE)}")
    basis = family.basis()
    if len(basis) != 1 or not all(
        basis[0].coeffs[i] * direction.coeffs[j] == basis[0].coeffs[j] * direction.coeffs[i]
        for i in range(4)
        for j in range(4)
    ):
        failures.append("pair 3 solution line")

    a = parse_quat("1+2i+3j+4k")
    table = [
        ("-1+2i+3j+4k", 1, True),
        ("2+i+3j+4k", 3, True),
        ("-2+i+4j+3k", 3, False),
        ("2+i+3k", 3, False),
    ]
    expected_forms = [None, (-20, -20), (-20, -20), (-20, -4)]
    expected_sums = [0, 10, 0, 0]
    for idx, (b_text, s_rank, verdict) in enumerate(table):
        b = parse_quat(b_text)
        if s_matrix(a, b).rank() != s_rank:
            failures.append(f"pair 4.{idx + 1} s-rank")
        if expected_forms[idx] is not None:
            ia, ib = expected_forms[idx]
            if a.quadratic_form != ia or b.quadratic_form != ib:
                failures.append(f"pair 4.{idx + 1} quadratic forms")
        if (a.conjugate() + b).quadratic_form != expected_sums[idx]:
            failures.append(f"pair 4.{idx + 1} conjugate-sum form")
        if bool(is_consimilar(a, b)) != verdict:
            failures.append(f"pair 4.{idx + 1} verdict")

    elapsed = time.monotonic() - start
    if elapsed >= 1.0:
        failures.append(f"took {elapsed:.3f}s, budget 1s")
    _report(1, "reference golden suite", failures)


def test_criterion_2_penrose_coherence():
    rng = random.Random(202)
    failures = []
    for idx in range(200):
        a = rand_causal(rng, ("lightlike", "timelike", "spacelike")[idx % 3])
        p = mp_inverse(a)
        if a * p * a != a or p * a * p != p:
            failures.append(f"quaternion identities for {a}")
            continue
        if a.quadratic_form == 0 and not a.is_zero():
            c1 = SplitQuaternion(a.q0, a.q1, 0, 0)
            c1_conj = SplitQuaternion(a.q0, -a.q1, 0, 0)
            c2 = SplitQuaternion(a.q2, a.q3, 0, 0)
            if a * p != (ONE + c2 * c1_conj.inverse() * J) / 2:
                failures.append(f"left projector closed form for {a}")
            if p * a != (ONE + c2 * c1.inverse() * J) / 2:
                failures.append(f"right projector closed form for {a}")
        report = check_penrose_coherence(a)
        bad = [name for name, ok in report.items() if not ok]
        if bad:
            failures.append(f"{a}: {bad}")
        if left_matrix(p) != mat_mp_inverse(left_matrix(a)):
            failures.append(f"matrix oracle mismatch for {a}")
    _report(2, "Penrose coherence on 200 elements", failures)


def test_criterion_3_solver_soundness():
    rng = random.Random(303)
    failures = []
    for _ in range(200):
        a, b, w = rand_lightlike(rng), rand_lightlike(rng), rand_quat(rng)
        d = a * w * b
        outcome = solve_axb(a, b, d)
        if not outcome.solvable:
            failures.append(f"constructed rhs unsolvable for {a}, {b}")
            continue
        for y in SUBSTITUTION_PROBES:
            x = outcome.family.at(y)
            if a * x * b != d:
                failures.append(f"substitution failed at {y}")
                break
    for _ in range(200):
        a, b, d = rand_lightlike(rng), rand_lightlike(rng), rand_quat(rng)
        outcome = solve_axb(a, b, d)
        consistent = linear_system_consistent(left_matrix(a) @ right_matrix(b), d.coeffs)
        if outcome.solvable != consistent:
            failures.append(f"verdict mismatch for {a}, {b}, {d}")
        if outcome.solvable:
            x = outcome.family.at(ZERO)
            if a * x * b != d:
                failures.append(f"particular solution failed for {a}, {b}, {d}")
        elif outcome.certificate.is_zero(0.0):
            failures.append("unsolvable with zero certificate")
    _report(3, "solver soundness on 400 systems", failures)


def test_criterion_4_similarity_completeness():
    rng = random.Random(404)
    failures = []
    for idx in range(100):
        a, b = rand_similar_pair(rng, k_zero=(idx % 2 == 0))
        verdict = is_similar(a, b)
        if not verdict:
            failures.append(f"matched pair judged dissimilar: {a}, {b}")
            continue
        w = verdict.witness
        if w * a != b * w or w.quadratic_form == 0:
            failures.append(f"bad witness for {a}, {b}")

    probe_rng = random.Random(405)
    extra_probes = [rand_quat(probe_rng) for _ in range(40)]
    violations = 0
    while violations < 100:
        if violations % 4 == 0:
            a, b = rand_rank3_pair(rng)
        else:
            a, b = rand_nonreal(rng), rand_nonreal(rng)
            if a.q0 == b.q0 and a.im_squared == b.im_squared:
                continue
        verdict = is_similar(a, b)
        if verdict:
            failures.append(f"violating pair judged similar: {a}, {b}")
            violations += 1
            continue
        family = solve_xa_bx(a, b)
        for y in list(UNIT_PROBES) + extra_probes:
            x = family.at(y)
            if not x.is_zero() and x.quadratic_form != 0:
                failures.append(f"invertible element in solution set of {a}, {b}")
                break
        violations += 1
    _report(4, "similarity completeness on 200 pairs", failures)


def test_criterion_5_canonical_forms():
    rng = random.Random(505)
    failures = []
    cases = []
    for _ in range(30):
        s = abs(rand_fraction(rng))
        cases.append(rand_with_im_squared_plus(rng, s if s != 0 else Fraction(2)))
    for _ in range(25):
        s = rand_fraction(rng)
        cases.append(rand_with_im_squared_minus(rng, s if s != 0 else Fraction(1)))
    for _ in range(15):
        cases.append(rand_with_im_squared_plus(rng, Fraction(0)))
    for _ in range(30):
        cases.append(rand_nonreal(rng))
    assert len(cases) == 100
    for a in cases:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            form = canonical_form(a)
        if form.conjugator.quadratic_form == 0:
            failures.append(f"lightlike conjugator for {a}")
            continue
        residual = form.conjugator * a - form.target * form.conjugator
        if form.exact:
            if not residual.is_zero(0.0):
                failures.append(f"exact conjugation failed for {a}")
        elif _norm(residual) > 1e-9:
            failures.append(f"residual {_norm(residual):.2e} for {a}")
    _report(5, "canonical forms on 100 elements", failures)


def test_criterion_6_root_correctness():
    rng = random.Random(606)
    failures = []
    checked = 0
    for idx in range(100):
        if idx % 10 == 0:
            # zero real part forces cos(alpha) = 0: no roots expected
            q1 = rand_fraction(rng)
            if q1 == 0:
                q1 = Fraction(1)
            c, s = rand_circle(rng)
            q = SplitQuaternion(0, q1, q1 * c, q1 * s)
        else:
            q = rand_lightlike(rng)
        qf = q.to_float()
        for n in range(2, 7):
            polar = to_polar(qf)
            cos_a = math.cos(polar.alpha)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                roots = nth_roots(qf, n)
            if abs(cos_a) <= 1e-9:
                expected = 0
            elif cos_a > 0:
                expected = 2 if n % 2 == 0 else 1
            else:
                expected = 1 if n % 2 == 1 else 0
            if len(roots) != expected:
                failures.append(f"count mismatch for {q}, n={n}")
                continue
            for w in roots:
                if _norm(power(w, n) - qf) > 1e-8 * (1 + _norm(qf)):
                    failures.append(f"root residual too large for {q}, n={n}")
            checked += len(roots)
    if checked == 0:
        failures.append("no roots were ever produced")
    _report(6, "root correctness on 100 elements", failures)


def test_criterion_7_dimension_oracle():
    rng = random.Random(707)
    failures = []
    pairs = 0

    def check_pair(kind, a, b):
        if solve_xa_bx(a, b).dimension != 4 - t_matrix(a, b).rank():
            failures.append(f"{kind} t-dimension mismatch: {a}, {b}")
        if solve_xa_bxbar(a, b).dimension != 4 - s_matrix(a, b).rank():
            failures.append(f"{kind} s-dimension mismatch: {a}, {b}")
        if t_det(a, b) != t_matrix(a, b).det() or s_det(a, b) != s_matrix(a, b).det():
            failures.append(f"{kind} closed-form determinant mismatch: {a}, {b}")

    for _ in range(200):
        check_pair("random", rand_nonreal(rng), rand_nonreal(rng))
        pairs += 1
    for _ in range(120):
        check_pair("rank-2", *rand_similar_pair(rng))
        pairs += 1
    for _ in range(80):
        check_pair("rank-3", *rand_rank3_pair(rng))
        pairs += 1
    for _ in range(100):
        a, b = rand_lightlike(rng), rand_lightlike(rng)
        outcome = solve_axb(a, b, ZERO)
        m = left_matrix(a) @ right_matrix(b)
        if outcome.family.dimension != 4 - m.rank():
            failures.append(f"two-sided dimension mismatch: {a}, {b}")
        pairs += 1
    assert pairs == 500
    _report(7, "dimension and determinant oracles on 500 pairs", failures)
