"""Exact rational time arithmetic.

All times and volume sizes are exact rationals.  The backend is gmpy2's
``mpq`` when available (much faster), with ``fractions.Fraction`` as a
pure-Python fallback.  Set ``LINKSTREAM_BACKEND=fractions`` to force the
fallback.
"""

import os
import re
from fractions import Fraction

_forced = os.environ.get("LINKSTREAM_BACKEND", "").lower()

if _forced in ("", "gmpy2"):
    try:
        from gmpy2 import mpq as Q
        BACKEND = "gmpy2"
    except ImportError:
        if _forced == "gmpy2":
            raise
        Q = Fraction
        BACKEND = "fractions"
else:
    Q = Fraction
    BACKEND = "fractions"

ZERO = Q(0)
ONE = Q(1)

# optional sign, then decimal (12, 4.5, .5) or p/q
_TIME_RE = re.compile(r"[+-]?(\d+(\.\d*)?|\.\d+|\d+/\d+)$")


def parse_time(text):
    """Parse a time literal (decimal or p/q) into an exact rational."""
    text = text.strip()
    if not _TIME_RE.match(text):
        raise ValueError("invalid time literal: %r" % text)
    f = Fraction(text)
    return Q(f.numerator, f.denominator)


def as_q(value):
    """Coerce an int, Fraction or backend rational to the backend type."""
    if isinstance(value, Q):
        return value
    if isinstance(value, int):
        return Q(value)
    if isinstance(value, Fraction):
        return Q(value.numerator, value.denominator)
    raise TypeError("cannot convert %r to an exact rational" % (value,))


def format_decimal(value, digits):
    """Render an exact rational as a decimal string with `digits` places,
    rounding half away from zero."""
    num, den = value.numerator, value.denominator
    sign = "-" if num < 0 else ""
    num = abs(num)
    scaled = num * 10**digits
    q, r = divmod(scaled, den)
    if 2 * r >= den:
        q += 1
    if digits == 0:
        return sign + str(q)
    s = str(q).rjust(digits + 1, "0")
    return sign + s[:-digits] + "." + s[-digits:]
