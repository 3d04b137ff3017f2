"""Quaternion literals.

Grammar (whitespace ignored everywhere; ``digits`` are the decimal
digits that ``int`` reads):

    quat     := ('+'|'-')? term (('+'|'-') term)*
    term     := coeff unit? | unit
    coeff    := digits '/' digits | decimal | digits
    decimal  := (digits '.' digits? | '.' digits) exponent? | digits exponent
    exponent := ('e'|'E') ('+'|'-')? digits
    unit     := 'i' | 'j' | 'k'

Examples: ``1+3i+2j+k``, ``-1/2+j``, ``2.5i-k``, ``1e-9i`` (every printed
float parses back).  Integers and rationals are exact; a decimal makes
the value float, or an exact decimal fraction on the exact backend.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Optional

from .core import SplitQuaternion
from .errors import NonFiniteError, ParseError

#: sign, coefficient and unit of a term; an empty den or exp is matched to report it
_TERM = re.compile(
    r"(?P<sign>[+-]?)(?:(?P<num>\d+)/(?P<den>\d*)"
    r"|(?P<dec>(?:\d+\.\d*|\.\d+|\d+(?=[eE]))(?:[eE][+-]?(?P<exp>\d*))?)"
    r"|(?P<int>\d+))?(?P<unit>[ijk]?)"
)


def parse_quat(text: str, backend: Optional[str] = None) -> SplitQuaternion:
    """Parse a quaternion literal.

    ``backend`` may be None (decimals produce floats), "exact" (decimals
    become exact decimal fractions) or "approx" (everything becomes
    float).  A bad literal raises ParseError at its offset: at the
    coefficient if it has more digits than ``int`` reads or an exact
    exponent of 4300 or more, and at 0 if a float one is not finite.
    """
    if backend not in (None, "exact", "approx"):
        raise ValueError(f"unknown backend {backend!r}")
    offset = [i for i, ch in enumerate(text) if not ch.isspace()] + [len(text)]
    s = "".join(text[i] for i in offset[:-1])  # offset[i] is the offset of s[i] in text
    if not s:
        raise ParseError("empty quaternion literal", 0)
    coeffs = dict.fromkeys(("", "i", "j", "k"), Fraction(0))  # by unit
    pos = 0
    try:
        while pos < len(s):
            m = _TERM.match(s, pos)
            if pos and not m["sign"]:
                raise ParseError("expected '+' or '-' between terms", offset[pos])
            if m.end() == m.end("sign"):
                raise ParseError("expected a coefficient or one of 'i', 'j', 'k'", offset[m.end("sign")])
            if m["exp"] == "":
                raise ParseError("expected digits in exponent", offset[m.start("exp")])
            if m["den"] == "":
                raise ParseError("expected digits after '/'", offset[m.start("den")])
            try:
                if m["num"]:
                    value = Fraction(int(m["num"]), int(m["den"]))
                elif m["dec"] and backend != "exact":
                    value = float(m["dec"])
                elif m["dec"]:
                    if abs(int(m["exp"] or 0)) >= 4300:  # bound 10**exp as int() bounds integers
                        raise ValueError
                    value = Fraction(m["dec"])
                else:
                    value = int(m["int"] or 1)  # a bare unit has coefficient 1
            except ZeroDivisionError:
                raise ParseError("zero denominator", offset[m.start("den")]) from None
            except ValueError:  # more digits than int() reads
                raise ParseError("coefficient has too many digits", offset[m.end("sign")]) from None
            coeffs[m["unit"]] += -value if m["sign"] == "-" else value
            pos = m.end()
        q = SplitQuaternion(*coeffs.values())
        if backend == "approx":
            q = q.to_float()
    except (OverflowError, NonFiniteError):  # too large for a float, or inf
        raise ParseError("coefficient is not finite as a float", 0) from None
    return q
