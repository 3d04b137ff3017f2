"""Independent output checks, one per operation kind.

Every check takes the exact arguments of an item (Fraction 4-tuples; the
float workload's inputs are binary-exact, so these are the very values
the float backend received) and the library's result.  Discrete answers
(classes, verdicts, solvability, dimensions, root counts) must equal the
exact oracle computed here by elimination.  Values must satisfy their
defining identities: bit-exactly when the result is exact, and to a
relative tolerance ``REL`` times the size of the terms when it is float.
"""

from __future__ import annotations

from fractions import Fraction

from qalg import (
    ZERO,
    apply,
    axb_mat,
    consistent,
    exact_sqrt,
    has_invertible,
    kernel,
    linmap,
    mat_norm,
    matmul,
    norm,
    qconj,
    qform,
    qk,
    qmul,
    qsub,
    rank,
    s_mat,
    t_mat,
    transpose,
)

#: Relative tolerance of float residuals.
REL = 1e-8


def _coeffs(q):
    return tuple(q.coeffs)


def _exact(values) -> bool:
    return not any(isinstance(x, float) for x in values)


def close(u, v, size) -> bool:
    """u == v, exactly for exact values and to REL * size for floats."""
    if _exact(u) and _exact(v):
        return tuple(u) == tuple(v)
    return max(abs(x - y) for x, y in zip(u, v)) <= REL * size


def mat_close(a, b, size) -> bool:
    return close([x for row in a for x in row], [x for row in b for x in row], size)


def invertible(w) -> bool:
    f = qform(w)
    if _exact(w):
        return f != 0
    return abs(f) > REL * norm(w) ** 2


def nonzero(q, size) -> bool:
    if _exact(q):
        return any(x != 0 for x in q)
    return norm(q) > REL * size


def _product_size(*qs) -> float:
    size = 1.0
    for q in qs:
        size *= 4 * float(norm(q))
    return size


def _scale(x, y) -> float:
    """Size of a family point x(y); its rounding error follows y as well as x."""
    return 4 * max(float(norm(x)), float(norm(y)))


def _independent(vectors) -> bool:
    return rank([[Fraction(x) for x in v] for v in vectors]) == len(vectors)


# ----------------------------------------------------------------------
# per-kind checks
# ----------------------------------------------------------------------


def check_classify(args, result, approx):
    f = qform(args[0])
    expected = "lightlike" if f == 0 else ("timelike" if f > 0 else "spacelike")
    return result.value == expected


def _penrose_quat(a, p):
    size = _product_size(a, p, a) + float(norm(a)) + float(norm(p))
    lap = linmap(lambda x: qmul(qmul(a, p), x))
    lpa = linmap(lambda x: qmul(qmul(p, a), x))
    sym = 16 * float(norm(a)) * float(norm(p))
    return (
        close(qmul(qmul(a, p), a), a, size)
        and close(qmul(qmul(p, a), p), p, _product_size(p, a, p) + float(norm(p)))
        and mat_close(lap, transpose(lap), sym)
        and mat_close(lpa, transpose(lpa), sym)
    )


def check_mp_inverse(args, result, approx):
    return _penrose_quat(args[0], _coeffs(result))


def check_projectors(args, result, approx):
    a = args[0]
    e1, e2 = (_coeffs(e) for e in result)
    ok = True
    for e in (e1, e2):
        le = linmap(lambda x: qmul(e, x))
        ok = ok and close(qmul(e, e), e, _product_size(e, e)) and mat_close(le, transpose(le), 16)
        ok = ok and nonzero(e, 1) and not invertible(e)
    return ok and close(qmul(e1, a), a, _product_size(e1, a)) and close(
        qmul(a, e2), a, _product_size(a, e2)
    )


def _power(q, n):
    r = q
    for _ in range(n - 1):
        r = qmul(r, q)
    return r


def check_power(args, result, approx):
    q, n = args
    return close(_coeffs(result), _power(q, n), _product_size(*([q] * n)))


def check_nth_roots(args, result, approx):
    a, n = args
    if a[0] > 0:
        expected = 2 if n % 2 == 0 else 1
    elif a[0] < 0:
        expected = 0 if n % 2 == 0 else 1
    else:
        expected = 0
    if len(result) != expected:
        return False
    af = tuple(float(x) for x in a)
    return all(
        close(_power(_coeffs(w), n), af, _product_size(*([_coeffs(w)] * n)) + float(norm(a)))
        for w in result
    )


def _check_solve(args, result, matrix, residual):
    """result is (True, x(0), x(y)) or (False, certificate)."""
    d = args[-2]
    if result[0] != consistent(matrix, d):
        return False
    if not result[0]:
        return nonzero(_coeffs(result[1]), float(norm(d)))
    return all(residual(_coeffs(x)) for x in result[1:])


def check_solve_axb(args, result, approx):
    a, b, d, y = args
    return _check_solve(
        args,
        result,
        axb_mat(a, b),
        lambda x: close(qmul(qmul(a, x), b), d, _product_size(a, b) * _scale(x, y) + float(norm(d))),
    )


def check_solve_axd(args, result, approx):
    a, d, y = args
    return _check_solve(
        args,
        result,
        linmap(lambda x: qmul(a, x)),
        lambda x: close(qmul(a, x), d, _product_size(a) * _scale(x, y) + float(norm(d))),
    )


def check_solve_xad(args, result, approx):
    a, d, y = args
    return _check_solve(
        args,
        result,
        linmap(lambda x: qmul(x, a)),
        lambda x: close(qmul(x, a), d, _product_size(a) * _scale(x, y) + float(norm(d))),
    )


def _check_verdict(verdict, space, residual):
    """Verdict against 'the solution space holds an invertible element'."""
    if bool(verdict.verdict) != has_invertible(space):
        return False
    if not verdict.verdict:
        return verdict.witness is None
    w = _coeffs(verdict.witness)
    return invertible(w) and residual(w)


def check_is_similar(args, result, approx):
    a, b = args
    return _check_verdict(
        result,
        kernel(t_mat(a, b)),
        lambda w: close(qmul(w, a), qmul(b, w), _product_size(w, a) + _product_size(b, w)),
    )


def check_is_consimilar(args, result, approx):
    a, b = args
    return _check_verdict(
        result,
        kernel(s_mat(a, b)),
        lambda w: close(
            qmul(w, a), qmul(b, qconj(w)), _product_size(w, a) + _product_size(b, w)
        ),
    )


def check_canonical_form(args, result, approx):
    a = args[0]
    k = qk(a)
    if k == 0:
        expected = (a[0], 1, 1, 0)
    else:
        root = exact_sqrt(abs(k))
        if root is None or not result.exact:
            root = abs(float(k)) ** 0.5
        expected = (a[0], 0, root, 0) if k > 0 else (a[0], root, 0, 0)
    target, c = _coeffs(result.target), _coeffs(result.conjugator)
    exact_expected = not approx and (k == 0 or exact_sqrt(abs(k)) is not None)
    if result.exact != exact_expected:
        return False
    size = float(norm(a)) + abs(float(k)) ** 0.5 + 1
    return (
        close(target, expected, size)
        and invertible(c)
        and close(qmul(c, a), qmul(target, c), _product_size(c) * size)
    )


def _check_family(result, matrix, image, gain, y, d=ZERO):
    """result is (dimension, basis, x(y)) of the family image(x) = d.

    The directions span the kernel of matrix; gain bounds |image(x)| / |x|.
    """
    dimension, basis, xy = result
    vectors = [_coeffs(v) for v in basis]
    xy = _coeffs(xy)
    return (
        dimension == 4 - rank(matrix)
        and len(vectors) == dimension
        and _independent(vectors)
        and all(close(image(v), ZERO, gain * 4 * float(norm(v))) for v in vectors)
        and close(image(xy), d, gain * _scale(xy, y) + float(norm(d)))
    )


def check_family_axb(args, result, approx):
    a, b, d, y = args
    image = lambda x: qmul(qmul(a, x), b)  # noqa: E731
    return _check_family(result, axb_mat(a, b), image, _product_size(a, b), y, d)


def check_family_ax0(args, result, approx):
    a, y = args
    image = lambda x: qmul(a, x)  # noqa: E731
    return _check_family(result, linmap(image), image, _product_size(a), y)


def check_family_xa_bx(args, result, approx):
    a, b, y = args
    image = lambda x: qsub(qmul(x, a), qmul(b, x))  # noqa: E731
    return _check_family(result, t_mat(a, b), image, 2 * _product_size(a, b), y)


def check_family_xa_bxbar(args, result, approx):
    a, b, y = args
    image = lambda x: qsub(qmul(x, a), qmul(b, qconj(x)))  # noqa: E731
    return _check_family(result, s_mat(a, b), image, 2 * _product_size(a, b), y)


def _matrix(which, a, b):
    return t_mat(a, b) if which == "T" else s_mat(a, b)


def check_mat_mp_inverse(args, result, approx):
    m = _matrix(*args)
    x = result.rows
    size = 16 * float(mat_norm(m)) ** 2 * float(mat_norm(x)) + 16 * float(mat_norm(x)) ** 2 * float(
        mat_norm(m)
    ) + float(mat_norm(m)) + float(mat_norm(x))
    mx, xm = matmul(m, x), matmul(x, m)
    return (
        mat_close(matmul(mx, m), m, size)
        and mat_close(matmul(xm, x), x, size)
        and mat_close(mx, transpose(mx), size)
        and mat_close(xm, transpose(xm), size)
    )


def check_nullspace_basis(args, result, approx):
    m = _matrix(*args)
    vectors = [tuple(v) for v in result]
    size = 4 * float(mat_norm(m))
    return (
        len(vectors) == 4 - rank(m)
        and _independent(vectors)
        and all(close(apply(m, v), ZERO, size * float(norm(v))) for v in vectors)
    )


def check_penrose(args, result, approx):
    # the eleven identities hold for every pair, so every entry must be True
    return len(result) == 11 and all(result.values())


CHECKS = {
    name[len("check_"):]: fn for name, fn in globals().items() if name.startswith("check_")
}


def check(kind, args, result, approx: bool) -> bool:
    """Whether result, from the float backend if approx, answers kind on args; never raises."""
    if isinstance(result, BaseException):
        return False
    try:
        return bool(CHECKS[kind](args, result, approx))
    except Exception:  # a malformed result fails its check
        return False

