"""Exact rational time arithmetic.

All times and volume sizes are exact rationals: ``Q`` is
``fractions.Fraction``.  ``Poly`` is a polynomial with such coefficients,
for sizes that depend on a time inside an open gap.
"""

import re
from fractions import Fraction
from math import lcm
from operator import add

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


class Poly:
    """A polynomial in one variable s with exact coefficients, lowest degree
    first, without trailing zeros (the zero polynomial has none).  It has
    the arithmetic that sweep steps do on volume sizes: +, -, *, ** by an
    int, / by an int and == with numbers, so a size that depends on a time
    in an open gap can be carried through them as a polynomial in that
    time.  Called with a value of s, it evaluates."""

    __slots__ = ("coefficients",)

    def __init__(self, coefficients):
        c = list(coefficients)
        while c and c[-1] == 0:
            c.pop()
        self.coefficients = tuple(c)

    def __add__(self, other):
        a, b = self.coefficients, _coefficients(other)
        if len(a) < len(b):
            a, b = b, a
        return Poly((*map(add, a, b), *a[len(b):]))

    def __mul__(self, other):
        if not isinstance(other, Poly):
            return Poly(c * other for c in self.coefficients)
        a, b = self.coefficients, other.coefficients
        out = [0] * (len(a) + len(b))
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                out[i + j] += x * y
        return Poly(out)

    __radd__, __rmul__ = __add__, __mul__

    def __sub__(self, other):
        return self + other * -1

    def __rsub__(self, other):
        return self * -1 + other

    def __pow__(self, d):
        result = Poly((1,))
        for _ in range(d):
            result *= self
        return result

    def __truediv__(self, n):
        return Poly(exact_div(c, n) for c in self.coefficients)

    def __eq__(self, other):
        return self.coefficients == _coefficients(other)

    def __hash__(self):  # equal to a number's hash when equal to the number
        c = self.coefficients
        return hash(c if len(c) > 1 else sum(c))

    def __call__(self, s):
        return horner(self.coefficients[::-1], s)

    def __repr__(self):
        return "Poly(%s)" % (list(self.coefficients),)


def _coefficients(value):
    if isinstance(value, Poly):
        return value.coefficients
    return (value,) if value != 0 else ()


def on_ints(value):
    """(ints, d) for a `Poly` or a number: d the lcm of the coefficients'
    denominators, and ints the coefficients times d, highest degree first,
    to evaluate with `horner` on int values of s in int arithmetic."""
    c = _coefficients(value)
    d = lcm(*(as_q(x).denominator for x in c))
    return [int(x * d) for x in reversed(c)], d


def horner(ints, s):
    """The polynomial of the coefficients `ints`, highest degree first, at s."""
    value = 0
    for c in ints:
        value = value * s + c
    return value


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
