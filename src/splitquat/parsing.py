"""Quaternion literals.

Grammar (whitespace ignored everywhere):

    quat  := term (('+'|'-') term)*
    term  := coeff unit? | unit
    coeff := integer | integer '/' integer | decimal
    unit  := 'i' | 'j' | 'k'

Examples: ``1+3i+2j+k``, ``-1/2+j``, ``2.5i-k``.  Decimals may carry a
scientific exponent (``1e-9i``) so that every float the library prints
parses back.  Integer and rational coefficients parse exactly; any
decimal literal switches the whole value to floats unless the exact
backend is forced, in which case decimals are read as exact decimal
fractions.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional, Tuple

from .core import SplitQuaternion
from .errors import NonFiniteError, ParseError
from .scalars import Scalar

_UNIT_INDEX = {"i": 1, "j": 2, "k": 3}


def parse_quat(text: str, backend: Optional[str] = None) -> SplitQuaternion:
    """Parse a quaternion literal.

    ``backend`` may be None (decimals produce floats), "exact" (decimals
    become exact decimal fractions) or "approx" (everything becomes
    float).  Raises ParseError with the offending offset on bad input,
    and at offset 0 when a float coefficient would not be finite.
    """
    if backend not in (None, "exact", "approx"):
        raise ValueError(f"unknown backend {backend!r}")
    chars = [(ch, idx) for idx, ch in enumerate(text) if not ch.isspace()]
    stripped = "".join(ch for ch, _ in chars)
    positions = [idx for _, idx in chars]
    end = len(text)

    def offset(i: int) -> int:
        return positions[i] if i < len(positions) else end

    n = len(stripped)
    if n == 0:
        raise ParseError("empty quaternion literal", 0)
    coeffs: list = [Fraction(0), Fraction(0), Fraction(0), Fraction(0)]
    i = 0
    first = True
    try:
        while i < n:
            sign = 1
            if stripped[i] in "+-":
                sign = -1 if stripped[i] == "-" else 1
                i += 1
            elif not first:
                raise ParseError("expected '+' or '-' between terms", offset(i))
            value, i = _scan_coefficient(stripped, i, offset, backend)
            unit = None
            if i < n and stripped[i] in _UNIT_INDEX:
                unit = stripped[i]
                i += 1
            if value is None and unit is None:
                raise ParseError("expected a coefficient or one of 'i', 'j', 'k'", offset(i))
            idx = _UNIT_INDEX[unit] if unit else 0
            coeffs[idx] = coeffs[idx] + sign * (value if value is not None else 1)
            first = False
        q = SplitQuaternion(*coeffs)
        if backend == "approx":
            q = q.to_float()
    except (OverflowError, NonFiniteError):  # too large for a float, or inf
        raise ParseError("coefficient is not finite as a float", 0) from None
    return q


def _scan_coefficient(
    s: str, i: int, offset, backend: Optional[str]
) -> Tuple[Optional[Scalar], int]:
    n = len(s)
    start = i
    while i < n and s[i].isdigit():
        i += 1
    int_end = i
    has_dot = False
    if i < n and s[i] == ".":
        j = i + 1
        while j < n and s[j].isdigit():
            j += 1
        if int_end == start and j == i + 1:
            # a bare '.' is not a number; let the caller report the error
            return None, start
        has_dot = True
        i = j
    if int_end == start and not has_dot:
        return None, start
    if i < n and s[i] in "eE" and (has_dot or int_end > start):
        j = i + 1
        if j < n and s[j] in "+-":
            j += 1
        exp_start = j
        while j < n and s[j].isdigit():
            j += 1
        if j == exp_start:
            raise ParseError("expected digits in exponent", offset(exp_start))
        has_dot = True
        i = j
    if has_dot:
        literal = s[start:i]
        if backend == "exact":
            return Fraction(literal), i
        return float(literal), i
    if i < n and s[i] == "/":
        j = i + 1
        den_start = j
        while j < n and s[j].isdigit():
            j += 1
        if j == den_start:
            raise ParseError("expected digits after '/'", offset(den_start))
        denominator = int(s[den_start:j])
        if denominator == 0:
            raise ParseError("zero denominator", offset(den_start))
        return Fraction(int(s[start:int_end]), denominator), j
    return Fraction(int(s[start:int_end])), i
