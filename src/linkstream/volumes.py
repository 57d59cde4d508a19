"""Exact (size, dimension) volumes of uncountable path sets and their algebra.

A volume measures a finite disjoint union of sliding sets of temporal paths.
Sizes are exact rationals (often ints on integer times), dimensions
non-negative integers.  In a sum, lower-dimensional volumes are negligible;
the canonical zero volume is (0, 0).
"""

from typing import NamedTuple

from .numbers import Q, as_q, exact_div


class VolumeError(ArithmeticError):
    """Operands violate the subset preconditions of a volume operation."""


class Volume(NamedTuple):
    size: object  # exact rational
    dim: int

    def is_zero(self):
        return self.size == 0

    def render(self):
        """Textual form `size dim`, size in lowest terms (e.g. `11/2 4`)."""
        return "%s %d" % (self.size, self.dim)

    def __repr__(self):
        return "Volume(%s, %d)" % (self.size, self.dim)


V_ZERO = Volume(0, 0)
V_UNIT = Volume(1, 0)


def volume(size, dim):
    """Build a normalized Volume; size 0 collapses to the zero volume."""
    size = as_q(size)
    if size == 0:
        return V_ZERO
    return Volume(size, dim)


def vol_add(a, b):
    """Sum of volumes of two disjoint sets: sizes add within the highest
    dimension, lower dimensions are negligible."""
    if a.dim == b.dim:
        s = a.size + b.size
        if s == 0:
            return V_ZERO
        return Volume(s, a.dim)
    # the zero volume has dim 0 but must not swallow higher dims by accident:
    # a true (s, 0) operand with s != 0 competes normally.
    if a.is_zero():
        return b
    if b.is_zero():
        return a
    return a if a.dim > b.dim else b


def vol_mul(a, b):
    """Volume of a concatenation of path sets: sizes multiply, dims add."""
    if a.is_zero() or b.is_zero():
        return V_ZERO
    return Volume(a.size * b.size, a.dim + b.dim)


def _check_subset(small, big, op):
    if small.dim > big.dim or (small.dim == big.dim and small.size > big.size):
        raise VolumeError(
            "%s: %r is not the volume of a subset of %r" % (op, small, big)
        )


def vol_div(num, den):
    """Fraction of the set measured by `den` that lies in the subset measured
    by `num`: 0 when `num` has lower dimension, the size ratio otherwise."""
    if den.is_zero():
        raise VolumeError("division by the zero volume")
    _check_subset(num, den, "vol_div")
    if num.dim < den.dim:
        return Q(0)
    return exact_div(num.size, den.size)


def vol_sub(a, b):
    """Volume of a set difference, `b` measuring a subset of `a`."""
    _check_subset(b, a, "vol_sub")
    return vol_add(a, Volume(-b.size, b.dim))
