import pytest
from hypothesis import given
from hypothesis import strategies as st

from polyproof.ffield import PrimeField
from polyproof.mpoly import MissingAssignment, MPoly, NotDivisible
from polyproof.mpoly import MonomialOverflow, times_var

from .conftest import poly_degree, poly_eval

X1 = MPoly.var(1)
X2 = MPoly.var(2)


def poly_from_terms(terms):
    """Build an MPoly from [(coeff, {var: exp, ...}), ...] term lists."""
    result = MPoly.zero()
    for coeff, powers in terms:
        term = MPoly.const(coeff)
        for v, e in powers.items():
            term = term * MPoly.var(v, e)
        result = result + term
    return result


# Random polynomials with <= 5 variables and degree <= 6.
monomials = st.dictionaries(st.integers(0, 4), st.integers(1, 2), max_size=3)
polys = st.builds(
    poly_from_terms,
    st.lists(st.tuples(st.integers(-9, 9), monomials), max_size=5),
)


def test_add_identity():
    assert X1 + MPoly.zero() == X1


def test_add_cancellation():
    assert (X1 + MPoly.one()) + (X1 - MPoly.one()) == MPoly.const(2) * X1


def test_add_commutative_monomials():
    assert X1 * X2 + X2 * X1 == MPoly.const(2) * X1 * X2


def test_mul_identity():
    assert X1 * MPoly.one() == X1


def test_difference_of_squares():
    assert (X1 + MPoly.one()) * (X1 - MPoly.one()) == X1 * X1 - MPoly.one()


def test_mul_canonical_exponent_list():
    prod = X1 * X2
    ((mono, coeff),) = [prod.single_monomial()]
    assert mono == ((1, 1), (2, 1))
    assert coeff == 1


@given(polys, polys, polys)
def test_ring_axioms(a, b, c):
    assert a + b == b + a
    assert (a + b) + c == a + (b + c)
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


def test_div_exact_factor_out():
    a = X1 * X2 + X1 * X1
    assert a.div_exact_by_var(1) == X2 + X1


def test_div_exact_zero():
    assert MPoly.zero().div_exact_by_var(3) == MPoly.zero()


def test_div_exact_blocked():
    with pytest.raises(NotDivisible):
        (X1 + X2).div_exact_by_var(1)


@given(polys, st.integers(0, 4))
def test_div_mul_roundtrip(a, v):
    assert (a * MPoly.var(v)).div_exact_by_var(v) == a


def test_eval_linear():
    f = PrimeField(101)
    assert poly_eval(X1 + MPoly.one(), {1: f.elem(2)}, f).value == 3


def test_eval_product():
    f = PrimeField(101)
    assert poly_eval(X1 * X2, {1: f.elem(7), 2: f.elem(11)}, f).value == 77


def test_eval_square_minus_one():
    # 10**2 - 1 = 99 mod 101
    f = PrimeField(101)
    assert poly_eval(X1 * X1 - MPoly.one(), {1: f.elem(10)}, f).value == 99


def test_eval_missing_assignment():
    f = PrimeField(101)
    with pytest.raises(MissingAssignment):
        poly_eval(X1 + X2, {1: f.elem(3)}, f)


@given(polys, polys, st.lists(st.integers(0, 100), min_size=5, max_size=5))
def test_eval_is_homomorphism(a, b, point):
    f = PrimeField(101)
    asg = {v: f.elem(val) for v, val in enumerate(point)}
    lhs = poly_eval(a * b + a, asg, f)
    rhs = poly_eval(a, asg, f) * poly_eval(b, asg, f) + poly_eval(a, asg, f)
    assert lhs == rhs


def test_degree():
    assert poly_degree(MPoly.var(1, 2) * X2 + MPoly.var(3)) == 3
    assert poly_degree(MPoly.const(5)) == 0
    assert poly_degree(MPoly.zero()) == -1


def test_render_ordering():
    p = MPoly.const(2) * MPoly.var(3, 2) * MPoly.var(5) + MPoly.var(1) - MPoly.const(4)
    assert p.render() == "2*X3^2*X5 + X1 - 4"


def test_render_zero():
    assert MPoly.zero().render() == "0"


@given(polys)
def test_parse_render_roundtrip(p):
    assert MPoly.parse(p.render()) == p


def test_parse_custom_names():
    names = {}
    p = MPoly.parse("U*V + 2*U - 1", names)
    assert names == {"U": 0, "V": 1}
    assert p == MPoly.var(0) * MPoly.var(1) + MPoly.const(2) * MPoly.var(0) - MPoly.one()


def test_parse_drops_zero_exponents():
    # Monomials hold exponents >= 1 only, so X1^0 is the constant 1.
    assert MPoly.parse("X1^0") == MPoly.one()
    assert MPoly.parse("3*X1^0*X2 + X1^0") == MPoly.const(3) * X2 + MPoly.one()
    assert MPoly.parse("X2^0*X2") == X2


def test_parse_names_the_offset_where_malformed_text_stops():
    # Parsing stops after the last whole term and quotes a few characters.
    with pytest.raises(ValueError, match=r"^malformed polynomial at offset 3: '\+ \$ 1'$"):
        MPoly.parse("X1 + $ 1")
    with pytest.raises(ValueError, match=r"^malformed polynomial at offset 2: '\^\*{7}'$"):
        MPoly.parse("X1^" + "*" * 1000)
    # a coefficient or exponent of over 4300 digits, which int() refuses to read
    with pytest.raises(ValueError, match=r"^malformed polynomial at offset 0: '9{8}'$"):
        MPoly.parse("9" * 5000 + "*X1", {})
    with pytest.raises(ValueError, match=r"^malformed polynomial at offset 2: '\^9{7}'$"):
        MPoly.parse("X1^" + "9" * 5000, {})
    # without a name map, a default name X<k> whose k has over 4300 digits
    with pytest.raises(ValueError, match=r"^malformed polynomial at offset 0: 'X1{7}'$"):
        MPoly.parse("X" + "1" * 5000)
    with pytest.raises(ValueError, match=r"^malformed polynomial at offset 3: '- X1{5}'$"):
        MPoly.parse("X1 - X" + "1" * 5000)


def test_parse_reads_ascii_digits_only():
    # U+0662 and U+0663 are Arabic-Indic digits, which int() reads as 2 and 3.
    assert MPoly.parse("3*X1^2") == MPoly.const(3) * X1 * X1
    with pytest.raises(ValueError, match="offset 0"):
        MPoly.parse("\u0663*X1^2")
    with pytest.raises(ValueError, match="offset 4"):
        MPoly.parse("3*X1^\u0662")


def test_parse_rejects_unknown_names():
    with pytest.raises(ValueError):
        MPoly.parse("Q + 1")


# -- the kernel against a naive term-map reference ---------------------------

def ref_mono(m1, m2):
    merged = dict(m1)
    for v, e in m2:
        merged[v] = merged.get(v, 0) + e
    return tuple(sorted(merged.items()))


def ref_add(t1, t2, sign=1):
    out = dict(t1)
    for m, c in t2.items():
        out[m] = out.get(m, 0) + sign * c
    return {m: c for m, c in out.items() if c}


def ref_mul(t1, t2):
    out = {}
    for m1, c1 in t1.items():
        for m2, c2 in t2.items():
            m = ref_mono(m1, m2)
            out[m] = out.get(m, 0) + c1 * c2
    return {m: c for m, c in out.items() if c}


single_terms = st.builds(lambda c, mono: MPoly({tuple(sorted(mono.items())): c}),
                         st.integers(-9, 9).filter(bool), monomials)
bare_vars = st.builds(MPoly.var, st.integers(0, 4))
cancelled = st.builds(
    lambda a, v, k: (a - a, a * (MPoly.var(v) - MPoly.var(v)), (-a) + a)[k],
    polys, st.integers(0, 4), st.integers(0, 2))
operands = st.one_of(polys, single_terms, bare_vars, cancelled)


@given(operands, operands)
def test_kernel_matches_term_map_reference(a, b):
    ta, tb = a.terms(), b.terms()
    cases = {"a + b": (a + b, ref_add(ta, tb)), "a - b": (a - b, ref_add(ta, tb, -1)),
             "-a": (-a, ref_add({}, ta, -1)), "a * b": (a * b, ref_mul(ta, tb)),
             "b * a": (b * a, ref_mul(tb, ta)),
             # a product whose cross terms cancel
             "(a + b) * (a - b)": ((a + b) * (a - b),
                                   ref_mul(ref_add(ta, tb), ref_add(ta, tb, -1)))}
    for op, (r, want) in cases.items():
        assert r.terms() == want, op
        assert 0 not in r.terms().values(), op
    assert a.terms() == ta and b.terms() == tb  # the operands are unchanged


@given(polys, st.integers(0, 4), st.integers(0, 2))
def test_cancelled_results_are_the_empty_map(a, v, k):
    r = (a - a, a * (MPoly.var(v) - MPoly.var(v)), (-a) + a)[k]
    assert r.terms() == {} and r == MPoly.zero() and not r


@given(monomials, monomials, st.integers(0, 5))
def test_monomial_merge_matches_dict_and_sort(e1, e2, v):
    m1, m2 = tuple(sorted(e1.items())), tuple(sorted(e2.items()))
    p1, p2 = MPoly({m1: 1}), MPoly({m2: 1})
    assert (p1 * p2).single_monomial()[0] == ref_mono(m1, m2) == (p2 * p1).single_monomial()[0]
    x_v_m1 = MPoly._of({times_var(next(iter(p1._terms)), v): 1})
    assert x_v_m1.single_monomial()[0] == ref_mono(m1, ((v, 1),))


# -- the packed monomial's edges: 32-bit fields, exponents below 2^31 ----------

MAX_EXP = 2**31 - 1
wide_monomials = st.dictionaries(st.integers(0, 200), st.integers(1, MAX_EXP), max_size=4)


@given(st.dictionaries(wide_monomials.map(lambda e: tuple(sorted(e.items()))),
                       st.integers(-10**30, 10**30).filter(bool), max_size=5))
def test_terms_round_trip_through_the_packed_form(t):
    assert MPoly(t).terms() == t


@given(st.integers(0, 6), st.lists(st.integers(1, MAX_EXP), min_size=4, max_size=4))
def test_products_near_the_guard_carry_into_no_neighbour(v, exps):
    # X_v^a X_v+1^b times X_v^c X_v+1^d, every exponent up to 2^31 - 1
    a, b, c, d = exps
    m1, m2 = ((v, a), (v + 1, b)), ((v, c), (v + 1, d))
    if a + c > MAX_EXP or b + d > MAX_EXP:
        with pytest.raises(MonomialOverflow):
            MPoly({m1: 1}) * MPoly({m2: 1})
    else:
        assert (MPoly({m1: 1}) * MPoly({m2: 1})).terms() == {ref_mono(m1, m2): 1}


def test_exponent_reaching_the_guard_raises():
    assert (MPoly.var(0, MAX_EXP) * MPoly.var(1)).terms() == {((0, MAX_EXP), (1, 1)): 1}
    assert MPoly.var(0, 2**30) * MPoly.var(0, 2**30 - 1) == MPoly.var(0, MAX_EXP)
    with pytest.raises(MonomialOverflow):
        MPoly.var(0, MAX_EXP) * MPoly.var(0)
    with pytest.raises(MonomialOverflow):
        MPoly.var(3, MAX_EXP + 1)
    assert issubclass(MonomialOverflow, ArithmeticError)  # the CLI's exit 2


def test_parse_rejects_what_the_packed_form_cannot_hold():
    assert MPoly.parse(f"X1^{MAX_EXP}") == MPoly.var(1, MAX_EXP)
    with pytest.raises(ValueError):
        MPoly.parse("X1^2147483648")
    with pytest.raises(ValueError):
        MPoly.parse("X1^1073741824*X1^1073741824")
    with pytest.raises(ValueError):
        MPoly.parse("X" + "1" * 4000)


def test_div_exact_reads_only_its_own_field():
    # x_1 divides X1^(2^30) but not X0^MAX_EXP * X2^MAX_EXP, its neighbours at their largest
    assert MPoly.var(1, 2**30).div_exact_by_var(1) == MPoly.var(1, 2**30 - 1)
    with pytest.raises(NotDivisible):
        (MPoly.var(0, MAX_EXP) * MPoly.var(2, MAX_EXP)).div_exact_by_var(1)
