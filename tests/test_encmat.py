import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from polyproof.encmat import (
    EncMatrix,
    FieldRing,
    NotAProduct,
    SymbolicRing,
    elem_inv_mul,
    factor_elementary_product,
)
from polyproof.ffield import PrimeField
from polyproof.mpoly import MPoly, NotDivisible

from .conftest import elem, identity, matrix_eval, product_of

RING = SymbolicRing()

sequences = st.lists(st.integers(0, 4), max_size=8)


def field_ring(p=101, **values):
    f = PrimeField(p)
    return FieldRing(f, {int(k[1:]): f.elem(v) for k, v in values.items()})


def test_elem_symbolic():
    m = elem(7, RING)
    assert m == EncMatrix(MPoly.var(7), MPoly.one(), MPoly.one())


def test_elem_field():
    ring = field_ring(v0=2, v1=11)
    assert elem(0, ring) == EncMatrix(2, 1, 1)
    assert elem(1, ring).a == 11


def test_mul_non_commutative():
    x, y = 0, 1
    xy = elem(x, RING) * elem(y, RING)
    yx = elem(y, RING) * elem(x, RING)
    assert xy.a == yx.a  # commutative product of the (1,1) entries
    assert xy.b == MPoly.var(x) + MPoly.one()
    assert yx.b == MPoly.var(y) + MPoly.one()
    assert xy != yx


def test_mul_field_values():
    ring = field_ring(v0=7, v1=2)
    m = elem(0, ring) * elem(1, ring)
    m = ring.matrix(m.a, m.b, m.d)
    assert (m.a, m.b, m.d) == (14, 8, 1)


@pytest.mark.parametrize("n", [1, 2, 5, 8])
def test_all_ones_product_counts_factors(n):
    ring = field_ring(p=101, **{f"v{i}": 1 for i in range(n)})
    m = product_of(range(n), ring)
    m = ring.matrix(m.a, m.b, m.d)
    assert (m.a, m.b, m.d) == (1, n, 1)


def test_elem_inv_mul_field():
    ring = field_ring(v2=11)
    out = elem_inv_mul(2, EncMatrix(33, 12, 1), ring)
    assert (out.a, out.b, out.d) == (3, 1, 1)


def test_elem_inv_mul_symbolic_cancels():
    m = elem(0, RING) * elem(1, RING)
    assert elem_inv_mul(0, m, RING) == elem(1, RING)


def test_elem_inv_mul_symbolic_blocked():
    m = elem(0, RING) + elem(1, RING)
    with pytest.raises(NotDivisible):
        elem_inv_mul(0, m, RING)


def test_factor_identity():
    assert factor_elementary_product(identity(RING)) == []


def test_factor_xyx():
    seq = [0, 1, 0]
    assert factor_elementary_product(product_of(seq, RING)) == seq


def test_factor_rejects_sum():
    with pytest.raises(NotAProduct):
        factor_elementary_product(elem(0, RING) + elem(1, RING))


def test_factor_rejects_scaled():
    two = MPoly.const(2)
    m = elem(0, RING)
    with pytest.raises(NotAProduct):
        factor_elementary_product(EncMatrix(m.a * two, m.b, m.d))


def test_factor_rejects_bad_diagonal():
    m = elem(0, RING)
    with pytest.raises(NotAProduct):
        factor_elementary_product(EncMatrix(m.a, m.b, MPoly.const(2)))


def test_factor_is_sound_on_one_term_perturbations():
    # Products of up to 8 factors over 4 variables, one entry changed by one
    # term: a sequence is only returned when it multiplies back to the input.
    rng = random.Random(11)
    for _ in range(2000):
        m = product_of([rng.randrange(4) for _ in range(rng.randint(0, 8))], RING)
        mono = {v: rng.randint(1, 2) for v in rng.sample(range(4), rng.randint(0, 3))}
        term = MPoly({tuple(sorted(mono.items())): rng.choice([-1, 1])})
        key = rng.choice("abd")
        changed = m._replace(**{key: getattr(m, key) + term})
        try:
            seq = factor_elementary_product(changed)
        except NotAProduct:
            continue
        assert product_of(seq, RING) == changed


@given(sequences)
def test_factor_roundtrip(seq):
    assert factor_elementary_product(product_of(seq, RING)) == seq


@given(sequences, sequences)
def test_product_injective(s1, s2):
    m1, m2 = product_of(s1, RING), product_of(s2, RING)
    assert (m1 == m2) == (s1 == s2)


def test_product_injective_same_multiset():
    # same factors in a different order give different matrices
    assert product_of([0, 1], RING) != product_of([1, 0], RING)
    assert product_of([0, 1, 2], RING) != product_of([2, 1, 0], RING)


@given(sequences, sequences, st.integers(0, 10**6))
def test_eval_commutes_with_matrix_ops(s1, s2, salt):
    rng = random.Random(salt)
    f = PrimeField(101)
    values = {v: f.elem(rng.randrange(2, 101)) for v in range(5)}
    fring = FieldRing(f, values)
    m1, m2 = product_of(s1, RING), product_of(s2, RING)
    fm1, fm2 = product_of(s1, fring), product_of(s2, fring)
    total, product = fm1 + fm2, fm1 * fm2
    assert matrix_eval(m1 + m2, values, f) == fring.matrix(total.a, total.b, total.d)
    assert matrix_eval(m1 * m2, values, f) == fring.matrix(product.a, product.b, product.d)
