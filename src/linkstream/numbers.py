"""Exact rational time arithmetic.

All times and volume sizes are exact rationals: ``Q`` is
``fractions.Fraction``.
"""

import re
from fractions import Fraction

Q = Fraction

# optional sign, then p/q or decimal (12, 4.5, 12., .5)
_TIME_RE = re.compile(r"([+-]?)(?:(\d+)/(\d+)|(\d+)(?:\.(\d*))?|\.(\d+))$")


def parse_time(text):
    """Parse a time literal (decimal or p/q) into an exact rational."""
    text = text.strip()
    match = _TIME_RE.match(text)
    if not match:
        raise ValueError("invalid time literal: %r" % text)
    sign, num, den, whole, frac, bare = match.groups()
    if den is None:  # the digits of the decimal over a power of ten
        frac = frac or bare or ""
        num, den = (whole or "") + frac, 10 ** len(frac)
    try:
        return Q(int(sign + num), int(den))
    except ZeroDivisionError:
        msg = "zero denominator in time literal: %r" % text
        raise ValueError(msg) from None


def as_q(value):
    """Coerce an int or Fraction to Q."""
    if isinstance(value, Q):
        return value
    if isinstance(value, int):
        return Q(value)
    raise TypeError("cannot convert %r to an exact rational" % (value,))


def exact_div(num, den):
    """num / den without a float: an int when both are ints and den divides
    num, an exact rational otherwise."""
    if isinstance(num, int) and isinstance(den, int):
        q, r = divmod(num, den)
        return Q(num, den) if r else q
    return num / den


def on_lattice(t, scale):
    """The time t in ticks of 1/scale: an int on the lattice, an exact
    rational off it."""
    t = as_q(t)
    return exact_div(t.numerator * scale, t.denominator)


def format_decimal(value, digits):
    """Render an exact rational as a decimal string with `digits` places,
    rounding half away from zero."""
    if digits < 0:
        raise ValueError("digits must be >= 0, got %d" % digits)
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
