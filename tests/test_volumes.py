import pytest

from linkstream import (
    Q,
    V_UNIT,
    V_ZERO,
    Volume,
    VolumeError,
    vol_add,
    vol_div,
    vol_mul,
    vol_sub,
    volume,
)

from conftest import seeded


def rand_volume(rng):
    if rng.random() < 0.15:
        return V_ZERO
    return Volume(Q(rng.randint(1, 12), rng.randint(1, 6)), rng.randint(0, 4))


class TestConstruction:
    def test_zero_normalizes(self):
        assert volume(0, 3) == V_ZERO
        assert volume(Q(0), 0) == V_ZERO

    def test_nonzero_size_is_kept(self):
        assert volume(Q(3, 2), 2) == Volume(Q(3, 2), 2)
        assert volume(3, 1) == Volume(Q(3), 1)
        assert type(volume(3, 1).size) is Q

    def test_float_size_rejected(self):
        with pytest.raises(TypeError,
                           match="cannot convert 0.5 to an exact rational"):
            volume(0.5, 1)

    def test_render(self):
        assert Volume(Q(11, 2), 4).render() == "11/2 4"
        assert Volume(Q(8), 3).render() == "8 3"
        assert V_ZERO.render() == "0 0"


class TestAdd:
    def test_worked_sums(self):
        a = vol_add(vol_add(Volume(Q(2), 2), Volume(Q(2), 2)), Volume(Q(1), 2))
        assert a == Volume(Q(5), 2)
        b = vol_add(vol_add(Volume(Q(2), 2), Volume(Q(2), 3)), Volume(Q(1), 3))
        assert b == Volume(Q(3), 3)

    def test_zero_identity(self):
        for v in [V_ZERO, V_UNIT, Volume(Q(7, 3), 2)]:
            assert vol_add(V_ZERO, v) == v
            assert vol_add(v, V_ZERO) == v

    def test_lower_dimension_negligible(self):
        assert vol_add(Volume(Q(5), 1), Volume(Q(99), 0)) == Volume(Q(5), 1)


class TestMul:
    def test_basic(self):
        assert vol_mul(Volume(Q(2), 2), Volume(Q(3), 1)) == Volume(Q(6), 3)

    def test_unit_identity(self):
        for v in [V_ZERO, Volume(Q(7, 3), 2)]:
            assert vol_mul(v, V_UNIT) == v
            assert vol_mul(V_UNIT, v) == v

    def test_zero_annihilates(self):
        assert vol_mul(V_ZERO, Volume(Q(3), 2)) == V_ZERO


class TestDiv:
    def test_equal_dims_ratio(self):
        assert vol_div(Volume(Q(2), 2), Volume(Q(2), 2)) == 1
        assert vol_div(Volume(Q(3), 2), Volume(Q(4), 2)) == Q(3, 4)

    def test_lower_dim_is_zero(self):
        assert vol_div(Volume(Q(2), 1), Volume(Q(2), 2)) == 0
        assert vol_div(V_ZERO, Volume(Q(2), 2)) == 0

    def test_division_by_zero_volume(self):
        with pytest.raises(VolumeError):
            vol_div(V_ZERO, V_ZERO)

    def test_non_subset_rejected(self):
        with pytest.raises(VolumeError):
            vol_div(Volume(Q(5), 2), Volume(Q(4), 2))
        with pytest.raises(VolumeError):
            vol_div(Volume(Q(1), 3), Volume(Q(4), 2))


class TestSub:
    def test_equal_dims(self):
        assert vol_sub(Volume(Q(5), 2), Volume(Q(2), 2)) == Volume(Q(3), 2)

    def test_lower_dim_negligible(self):
        assert vol_sub(Volume(Q(5), 3), Volume(Q(2), 2)) == Volume(Q(5), 3)

    def test_self_cancellation(self):
        v = Volume(Q(7, 2), 3)
        assert vol_sub(v, v) == V_ZERO

    def test_non_subset_rejected(self):
        with pytest.raises(VolumeError):
            vol_sub(Volume(Q(2), 2), Volume(Q(5), 2))


class TestLaws:
    def test_add_mul_laws_on_random_triples(self):
        rng = seeded(1701)
        for _ in range(300):
            a, b, c = (rand_volume(rng) for _ in range(3))
            assert vol_add(a, b) == vol_add(b, a)
            assert vol_add(vol_add(a, b), c) == vol_add(a, vol_add(b, c))
            assert vol_mul(a, b) == vol_mul(b, a)
            assert vol_mul(vol_mul(a, b), c) == vol_mul(a, vol_mul(b, c))
            assert vol_add(a, V_ZERO) == a
            assert vol_mul(a, V_UNIT) == a
            if not a.is_zero():
                assert vol_div(a, a) == 1
                assert vol_div(V_ZERO, a) == 0

    def test_distributivity_with_uniform_dimension(self):
        rng = seeded(1702)
        for _ in range(100):
            d = rng.randint(0, 3)
            a = rand_volume(rng)
            b = Volume(Q(rng.randint(1, 9)), d)
            c = Volume(Q(rng.randint(1, 9)), d)
            lhs = vol_mul(a, vol_add(b, c))
            rhs = vol_add(vol_mul(a, b), vol_mul(a, c))
            assert lhs == rhs

    def test_mixed_dimension_sums_are_not_cancellative(self):
        # the hazard behind mixed-dimension sums: the negligible term is
        # discarded, so a + b == a + c does not imply b == c and sums cannot
        # be inverted.  (A one-sided product a * (b + c) still distributes,
        # since multiplying shifts every dimension equally.)
        a = Volume(Q(1), 1)
        b = Volume(Q(1), 0)
        c = Volume(Q(2), 0)
        assert b != c
        assert vol_add(a, b) == vol_add(a, c)

    def test_associativity_needs_nonnegative_sizes(self):
        # with a transient negative size (as inside difference
        # accumulations), collapsing to the canonical zero loses the lower
        # dimension and associativity breaks; operand order matters there.
        a = Volume(Q(1), 2)
        neg = Volume(Q(-1), 2)
        lower = Volume(Q(1), 1)
        assert vol_add(vol_add(a, neg), lower) == lower
        assert vol_add(vol_add(a, lower), neg) == V_ZERO
