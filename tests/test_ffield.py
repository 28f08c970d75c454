import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from polyproof.ffield import (
    MERSENNE61,
    PointSampler,
    PrimeField,
    ZeroInverse,
    is_prime,
)

from .conftest import SEED0, SEED1


def test_default_modulus_is_prime():
    assert is_prime(MERSENNE61)
    PrimeField(MERSENNE61)


@pytest.mark.parametrize("bad", [0, 1, 2, 4, 100, 2**61, 2**63, 2**63 + 11])
def test_rejects_non_admissible_moduli(bad):
    with pytest.raises(ValueError):
        PrimeField(bad)


def test_inverse_of_11_mod_101():
    # 11 * 46 = 506 = 5 * 101 + 1
    f = PrimeField(101)
    assert f.elem(11).inv() == f.elem(46)


def test_subtraction_chain():
    f = PrimeField(101)
    assert f.elem(52) - f.elem(5) - f.elem(14) == f.elem(33)


def test_inverse_of_one():
    for p in (3, 101, MERSENNE61):
        f = PrimeField(p)
        assert f.elem(1).inv() == f.elem(1)


@given(st.integers(1, 100))
def test_inverse_law(v):
    f = PrimeField(101)
    a = f.elem(v)
    assert a * a.inv() == f.elem(1)


def test_zero_inverse():
    with pytest.raises(ZeroInverse):
        PrimeField(101).elem(0).inv()


def test_sampler_p3_always_two():
    f = PrimeField(3)
    sampler = PointSampler(SEED1, f)
    assert all(sampler.next().value == 2 for _ in range(50))


def test_sampler_deterministic():
    f = PrimeField(101)
    a = [PointSampler(SEED1, f).next().value for _ in range(3)]
    s1, s2 = PointSampler(SEED1, f), PointSampler(SEED1, f)
    assert [s1.next().value for _ in range(10)] == [s2.next().value for _ in range(10)]
    assert len(set(a)) == 1


def test_sampler_never_zero_or_one():
    f = PrimeField(5)
    sampler = PointSampler(SEED0, f)
    seen = {sampler.next().value for _ in range(500)}
    assert seen == {2, 3, 4}


def test_sampler_uniformity_chi():
    # 1e5 draws at p=101: every admissible value within 5 sigma of n/99.
    f = PrimeField(101)
    sampler = PointSampler(SEED1, f)
    n = 100_000
    counts = {v: 0 for v in range(2, 101)}
    for _ in range(n):
        counts[sampler.next().value] += 1
    q = 1 / 99
    sigma = math.sqrt(n * q * (1 - q))
    mean = n * q
    assert all(abs(c - mean) <= 5 * sigma for c in counts.values())


def test_sampler_requires_32_byte_seed():
    with pytest.raises(ValueError):
        PointSampler(b"\x01", PrimeField(101))


def test_elem_reduces():
    f = PrimeField(101)
    assert f.elem(305).value == 2
    assert f.elem(-1).value == 100
    assert (-f.elem(1)).value == 100
