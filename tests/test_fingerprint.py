import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polyproof.encmat import (
    EncMatrix,
    FieldRing,
    SymbolicRing,
    elem,
    elem_inv_mul,
    identity,
    product_of,
    zero_matrix,
)
from polyproof.ffield import PrimeField
from polyproof.fingerprint import (
    UnallocatedSymbol,
    VarAllocation,
    axiom_fingerprint_via_template,
    encode,
    encode_fingerprint,
    hom_mp,
    hom_subst,
)
from polyproof.logic import (
    AXIOM_SCHEMES,
    Formula,
    Signature,
    atom,
    imp,
    instantiate_axiom,
    neg,
    parse_formula,
    subst_syntactic,
)
from polyproof.mpoly import MissingAssignment

from .conftest import degree_bound, node_count, occurrences

RING = SymbolicRing()

formulas = st.recursive(
    st.sampled_from([atom("x"), atom("y"), atom("z")]),
    lambda inner: st.one_of(
        inner.map(neg),
        st.tuples(inner, inner).map(lambda ab: imp(*ab)),
    ),
    max_leaves=16,
)


def make_alloc(extra=()):
    sig = Signature()
    for name in ("x", "y", "z"):
        sig.declare(name, 0)
    for name, arity in extra:
        sig.declare(name, arity)
    return sig, VarAllocation(sig)


def fp_of(f, alloc, ring=RING, tracked=("x", "y", "z")):
    return encode_fingerprint(f, alloc, ring, tracked)


def test_allocation_fixed_builtin_ids():
    _, alloc = make_alloc()
    assert [alloc.vid("->", k) for k in range(3)] == [0, 1, 2]
    assert [alloc.vid("!", k) for k in range(2)] == [3, 4]
    # user symbols lexicographic, densely from 5
    assert alloc.vid("x") == 5 and alloc.vid("y") == 6 and alloc.vid("z") == 7
    assert [alloc.display(i) for i in range(8)] == ["I", "I1", "I2", "N", "N1", "X", "Y", "Z"]


def test_allocation_function_slots():
    sig, alloc = make_alloc(extra=(("f", 2),))
    # f < x lexicographically, so f takes 5, 6, 7 and x shifts to 8
    assert [alloc.vid("f", k) for k in range(3)] == [5, 6, 7]
    assert alloc.vid("x") == 8
    assert alloc.display(alloc.vid("f", 1)) == "F1"


def test_allocation_display_collision_fallback():
    sig = Signature()
    sig.declare("a", 0)
    sig.declare("A", 0)
    alloc = VarAllocation(sig)
    names = {alloc.display(alloc.vid("a")), alloc.display(alloc.vid("A"))}
    assert len(names) == 2


def test_allocation_unknown_symbol():
    _, alloc = make_alloc()
    with pytest.raises(UnallocatedSymbol):
        alloc.vid("w")
    with pytest.raises(UnallocatedSymbol):
        encode(imp(atom("x"), atom("w")), alloc, RING)


def test_encode_leaf():
    _, alloc = make_alloc()
    assert encode(atom("x"), alloc, RING) == elem(alloc.vid("x"), RING)


def test_encode_field_example():
    # I=5, I1=7, I2=11, X=2, Y=3 at p=101 gives (52, 21, 3)
    _, alloc = make_alloc()
    f = PrimeField(101)
    values = {
        alloc.vid("->", 0): f.elem(5),
        alloc.vid("->", 1): f.elem(7),
        alloc.vid("->", 2): f.elem(11),
        alloc.vid("x"): f.elem(2),
        alloc.vid("y"): f.elem(3),
    }
    m = encode(parse_formula("(x -> y)"), alloc, FieldRing(f, values))
    assert (m.a, m.b, m.d) == (52, 21, 3)


def test_encode_worked_example_tree():
    _, alloc = make_alloc()
    f = parse_formula("((x -> y) -> (x -> z))")

    def A(*path):
        return product_of([alloc.vid(s, k) for s, k in path], RING)

    I, I1, I2 = ("->", 0), ("->", 1), ("->", 2)
    X, Y, Z = ("x", 0), ("y", 0), ("z", 0)
    expected = (
        A(I)
        + A(I1, I) + A(I1, I1, X) + A(I1, I2, Y)
        + A(I2, I) + A(I2, I1, X) + A(I2, I2, Z)
    )
    fp = fp_of(f, alloc)
    assert fp.main == expected
    assert fp.helpers["x"] == A(I1, I1) + A(I2, I1)
    assert fp.helpers["y"] == A(I1, I2)
    assert fp.helpers["z"] == A(I2, I2)


def test_helper_leaf_cases():
    _, alloc = make_alloc()
    fp = fp_of(atom("x"), alloc)
    assert fp.helpers["x"] == identity(RING)
    assert fp.helpers["y"] == zero_matrix(RING)


def test_helper_single_negation():
    _, alloc = make_alloc()
    fp = fp_of(neg(atom("x")), alloc)
    assert fp.helpers["x"] == elem(alloc.vid("!", 1), RING)


def test_hom_mp_symbolic():
    _, alloc = make_alloc()
    phi, psi = atom("x"), atom("y")
    got = hom_mp(fp_of(phi, alloc), fp_of(imp(phi, psi), alloc), alloc, RING)
    assert got == fp_of(psi, alloc)


def test_hom_mp_field_example():
    _, alloc = make_alloc()
    f = PrimeField(101)
    values = {
        alloc.vid("->", 0): f.elem(5),
        alloc.vid("->", 1): f.elem(7),
        alloc.vid("->", 2): f.elem(11),
        alloc.vid("x"): f.elem(2),
        alloc.vid("y"): f.elem(3),
    }
    ring = FieldRing(f, values)
    tracked = ("x", "y")
    hyp = encode_fingerprint(atom("x"), alloc, ring, tracked)
    impl = encode_fingerprint(parse_formula("(x -> y)"), alloc, ring, tracked)
    got = hom_mp(hyp, impl, alloc, ring)
    assert (got.main.a, got.main.b, got.main.d) == (3, 1, 1)


def test_hom_mp_peels_the_helpers_of_either_premise():
    # A wrong mp whose hypothesis holds x and whose implication does not:
    # the helper of x is peeled like any other, so it is not read as zero.
    _, alloc = make_alloc()
    f = PrimeField(101)
    ring = FieldRing(f, {v: f.elem(v + 2) for v in range(alloc.size)})
    hyp = encode_fingerprint(atom("x"), alloc, ring, ("x", "y"))
    impl = encode_fingerprint(parse_formula("(y -> y)"), alloc, ring, ("x", "y"))
    got = hom_mp(hyp, impl, alloc, ring)
    left = elem(alloc.vid("->", 1), ring)
    for t in ("x", "y", "z"):
        peeled = impl.helpers[t] - left * hyp.helpers[t]
        assert got.helpers[t] == elem_inv_mul(alloc.vid("->", 2), peeled, ring)
    assert set(got.helpers) == {"x", "y"}


def test_hom_mp_recovers_middle_step():
    # step C of the A -> A proof: from K(A,B) and S(A,B,A)
    sig = Signature()
    sig.declare("A", 0)
    alloc = VarAllocation(sig)
    a, b = atom("A"), parse_formula("(A -> A)", sig)
    k_ab = encode_fingerprint(
        instantiate_axiom(AXIOM_SCHEMES["K"], {"alpha": a, "beta": b}), alloc, RING, ("A",)
    )
    s_aba = encode_fingerprint(
        instantiate_axiom(AXIOM_SCHEMES["S"], {"alpha": a, "beta": b, "gamma": a}),
        alloc, RING, ("A",),
    )
    got = hom_mp(k_ab, s_aba, alloc, RING)
    c = parse_formula("((A -> (A -> A)) -> (A -> A))", sig)
    assert got == encode_fingerprint(c, alloc, RING, ("A",))


def test_hom_subst_negation():
    _, alloc = make_alloc()
    got = hom_subst(fp_of(neg(atom("x")), alloc), "x", fp_of(atom("y"), alloc), alloc, RING)
    assert got == fp_of(neg(atom("y")), alloc)


def test_hom_subst_absent_variable():
    _, alloc = make_alloc()
    src = fp_of(atom("y"), alloc)
    repl = fp_of(imp(atom("z"), atom("z")), alloc)
    got = hom_subst(src, "x", repl, alloc, RING)
    assert got.main == src.main
    assert got.helpers["x"] == zero_matrix(RING)
    assert got.helpers["y"] == src.helpers["y"]
    # An atom no helper map holds reads as zero, so substituting it
    # returns the source fingerprint.
    src = encode_fingerprint(atom("x"), alloc, RING, ("x",))
    assert hom_subst(src, "y", src, alloc, RING) == src


def test_axiom_template_route_matches_direct():
    # Exactly, and over the field at p = 3 and 5, where the helper of A
    # vanishes at some points on both routes: neither may store it.
    sig = Signature()
    sig.declare("A", 0)
    alloc = VarAllocation(sig)
    small = [f for n in range(1, 5) for f in enumerate_formulas(n, atoms=("A",))]
    for prime in (None, 3, 5):
        rings = [RING]
        if prime is not None:
            field = PrimeField(prime)
            rng = random.Random(prime)
            rings = [
                FieldRing(field, {v: field.elem(rng.randrange(2, prime)) for v in range(alloc.size)})
                for _ in range(5)
            ]
        vanished = 0
        for ring in rings:
            for alpha, beta in itertools.product(small, small):
                binding = {"alpha": alpha, "beta": beta}
                direct = encode_fingerprint(
                    instantiate_axiom(AXIOM_SCHEMES["K"], binding), alloc, ring, ("A",)
                )
                via = axiom_fingerprint_via_template(
                    AXIOM_SCHEMES["K"], binding, alloc, ring, ("A",)
                )
                assert direct == via
                vanished += "A" not in direct.helpers
        assert (vanished > 0) == (prime is not None)


binding_formulas = st.recursive(
    st.sampled_from([atom("x"), atom("y"), atom("z")]),
    lambda inner: st.one_of(
        inner.map(neg),
        st.tuples(inner, inner).map(lambda ab: imp(*ab)),
        inner.map(lambda a: Formula("g", (a,))),
    ),
    max_leaves=8,
)


@settings(max_examples=120)
@given(
    st.sampled_from(sorted(AXIOM_SCHEMES)),
    st.lists(binding_formulas, min_size=3, max_size=3),
    st.sampled_from([None, 3, (1 << 61) - 1]),
    st.booleans(),
    st.integers(0, 10**9),
)
def test_template_walk_matches_instance(name, formulas, prime, track_all, salt):
    # The template walked with its binding encodes as the instantiated axiom,
    # in both rings, with no atom tracked and with every atom tracked.
    scheme = AXIOM_SCHEMES[name]
    binding = dict(zip(scheme.metavars, formulas))
    _, alloc = make_alloc(extra=(("g", 1),))
    ring = RING
    if prime is not None:
        rng, field = random.Random(salt), PrimeField(prime)
        ring = FieldRing(field, {v: field.elem(rng.randrange(2, prime)) for v in range(alloc.size)})
    tracked = ("x", "y", "z") if track_all else ()
    instance = instantiate_axiom(scheme, binding)
    assert encode_fingerprint(scheme.template, alloc, ring, tracked, binding) == (
        encode_fingerprint(instance, alloc, ring, tracked)
    )


@pytest.mark.parametrize("name", sorted(AXIOM_SCHEMES))
def test_template_walk_names_the_missing_value_the_instance_names(name):
    # With values dropped at random, the template walk and the walk of the
    # instance fail at the same variable, or both succeed alike.
    scheme = AXIOM_SCHEMES[name]
    binding = dict(zip(scheme.metavars, (
        imp(atom("x"), Formula("g", (neg(atom("y")),))), neg(atom("z")), imp(atom("y"), atom("x"))
    )))
    _, alloc = make_alloc(extra=(("g", 1),))
    instance = instantiate_axiom(scheme, binding)
    field, rng = PrimeField(101), random.Random(name)
    missing = 0
    for _ in range(200):
        ring = FieldRing(field, {v: field.elem(rng.randrange(2, 101))
                                 for v in range(alloc.size) if rng.random() < 0.8})
        outcomes = []
        for f, b in ((scheme.template, binding), (instance, None)):
            try:
                outcomes.append(encode_fingerprint(f, alloc, ring, ("x", "y", "z"), b))
            except MissingAssignment as exc:
                outcomes.append(("missing", exc.var))
        assert outcomes[0] == outcomes[1]
        missing += isinstance(outcomes[0], tuple)
    assert 0 < missing < 200


def test_degree_bound_examples():
    assert degree_bound(atom("x")) == 1
    assert degree_bound(parse_formula("((x -> y) -> (x -> z))")) == 3
    assert degree_bound(parse_formula("!!!x")) == 4
    assert degree_bound(atom("x"), parse_formula("!!x"), parse_formula("(x -> y)")) == 3
    deep = atom("x")
    for _ in range(5000):
        deep = neg(deep)
    assert degree_bound(deep) == 5001
    shared = atom("x")  # 2**101 - 1 nodes unshared, 101 distinct objects
    for _ in range(100):
        shared = imp(shared, shared)
    assert degree_bound(shared) == 101


@settings(max_examples=60)
@given(formulas, formulas, st.sampled_from(["x", "y", "z"]))
def test_hom_subst_matches_syntactic(phi, psi, var):
    sig, alloc = make_alloc()
    direct = fp_of(subst_syntactic(phi, var, psi, sig), alloc)
    hom = hom_subst(fp_of(phi, alloc), var, fp_of(psi, alloc), alloc, RING)
    assert hom == direct


@settings(max_examples=60)
@given(formulas, formulas)
def test_hom_mp_matches_direct(phi, psi):
    _, alloc = make_alloc()
    got = hom_mp(fp_of(phi, alloc), fp_of(imp(phi, psi), alloc), alloc, RING)
    assert got == fp_of(psi, alloc)


@settings(max_examples=40)
@given(formulas, st.integers(0, 10**9))
def test_eval_commutes_with_fingerprint(f, salt):
    _, alloc = make_alloc()
    rng = random.Random(salt)
    field = PrimeField(101)
    values = {v: field.elem(rng.randrange(2, 101)) for v in range(alloc.size)}
    fring = FieldRing(field, values)

    def ev(m):
        return EncMatrix(*(e.eval(values, field).value for e in (m.a, m.b, m.d)))

    sym = fp_of(f, alloc)
    nat = fp_of(f, alloc, ring=fring)
    assert ev(sym.main) == nat.main
    assert all(ev(sym.helpers[t]) == nat.helpers[t] for t in sym.helpers)


@settings(max_examples=80)
@given(formulas)
def test_node_count_and_degree_laws(f):
    _, alloc = make_alloc()
    fp = fp_of(f, alloc)
    assert fp.main.d.constant_value() == node_count(f)
    bound = degree_bound(f)
    assert max(fp.main.a.degree(), fp.main.b.degree(), fp.main.d.degree()) <= bound
    for t in ("x", "y", "z"):
        assert fp.helpers[t].d.constant_value() == occurrences(f, t)
        assert fp.helpers[t].a.degree() <= bound


def enumerate_formulas(n, atoms=("x", "y")):
    if n == 1:
        return [atom(a) for a in atoms]
    out = [neg(f) for f in enumerate_formulas(n - 1, atoms)]
    for left in range(1, n - 1):
        for a in enumerate_formulas(left, atoms):
            for b in enumerate_formulas(n - 1 - left, atoms):
                out.append(imp(a, b))
    return out


def test_unique_encoding_up_to_six_nodes():
    # exhaustive: distinct formulas with <= 6 nodes never share a matrix
    sig = Signature()
    sig.declare("x", 0)
    sig.declare("y", 0)
    alloc = VarAllocation(sig)
    seen = {}
    for n in range(1, 7):
        for f in enumerate_formulas(n):
            key = encode(f, alloc, RING)
            assert key not in seen, f"collision: {f} vs {seen[key]}"
            seen[key] = f
    assert len(seen) == 2 + 2 + 6 + 14 + 42 + 122


def test_encoding_collision_at_seven_nodes():
    # Documented non-injectivity: swapping the two inner subtrees of
    # (a -> b) -> (c -> d) is invisible to the matrix when they have equal
    # node counts, because the (1,1) entry is commutative and the (1,2)
    # entry of a path product does not depend on its final factor.  The
    # smallest instances have 7 nodes.
    _, alloc = make_alloc()
    x, y = atom("x"), atom("y")
    f1 = imp(imp(x, y), imp(x, x))
    f2 = imp(imp(x, x), imp(y, x))
    assert f1 != f2
    assert encode(f1, alloc, RING) == encode(f2, alloc, RING)
    # the swap also relates pairs of derivable tautologies
    g1 = imp(imp(x, x), imp(y, y))
    g2 = imp(imp(x, y), imp(x, y))
    assert g1 != g2
    assert encode(g1, alloc, RING) == encode(g2, alloc, RING)
    # unequal inner node counts break the swap, so these stay distinct
    h1 = imp(imp(x, neg(y)), imp(x, x))
    h2 = imp(imp(x, x), imp(neg(y), x))
    assert encode(h1, alloc, RING) != encode(h2, alloc, RING)


def reference_encode_fingerprint(f, alloc, ring, tracked):
    """The recursive definition, one matrix product per edge and helper."""
    tracked = sorted(set(tracked))

    def rec(node):
        main = elem(alloc.vid(node.root, 0), ring)
        if not node.children:
            helpers = {t: identity(ring) if t == node.root else zero_matrix(ring) for t in tracked}
            return main, helpers
        helpers = {t: zero_matrix(ring) for t in tracked}
        for slot, child in enumerate(node.children, 1):
            edge = elem(alloc.vid(node.root, slot), ring)
            child_main, child_helpers = rec(child)
            main = main + edge * child_main
            for t in tracked:
                helpers[t] = helpers[t] + edge * child_helpers[t]
        return main, helpers

    return rec(f)


# Function symbols g/1 and h/3, metavariable leaves, and the atom w,
# declared but never drawn, so a tracked w is absent from every formula.
fn_formulas = st.recursive(
    st.sampled_from([atom(n) for n in ("x", "y", "z", "alpha", "beta")]),
    lambda inner: st.one_of(
        inner.map(neg),
        st.tuples(inner, inner).map(lambda ab: imp(*ab)),
        inner.map(lambda a: Formula("g", (a,))),
        st.tuples(inner, inner, inner).map(lambda abc: Formula("h", abc)),
    ),
    max_leaves=20,
)


@settings(max_examples=150)
@given(
    fn_formulas,
    st.sets(st.sampled_from(["x", "y", "z", "w", "alpha", "beta", "gamma"])),
    st.sampled_from([None, 3, 5, (1 << 61) - 1]),
    st.integers(0, 10**9),
)
def test_closed_form_encoding_matches_matrix_products(f, tracked, prime, salt):
    # At p = 3 and 5 entries and whole helpers vanish mod p.
    _, alloc = make_alloc(extra=(("w", 0), ("g", 1), ("h", 3)))
    if prime is None:
        ring = RING
    else:
        rng = random.Random(salt)
        field = PrimeField(prime)
        ring = FieldRing(field, {v: field.elem(rng.randrange(2, prime)) for v in range(alloc.size)})
    for g in (f, imp(f, f)):
        fp = encode_fingerprint(g, alloc, ring, tracked)
        main, helpers = reference_encode_fingerprint(g, alloc, ring, tracked)
        # raw matrix arithmetic over the field ring does not reduce mod p
        assert fp.main == ring.reduce(main)
        assert all(fp.helpers[t] == ring.reduce(helpers[t]) for t in tracked)
        assert set(fp.helpers) <= tracked
        assert all(m != zero_matrix(ring) for m in fp.helpers.values())


def test_encoding_depth_costs_no_stack():
    _, alloc = make_alloc()
    deep = atom("x")
    for _ in range(5000):
        deep = neg(deep)
    field = PrimeField((1 << 61) - 1)
    fring = FieldRing(field, {v: field.elem(v + 2) for v in range(alloc.size)})
    sym = encode_fingerprint(deep, alloc, RING, ("x", "y"))
    assert sym.main.d.constant_value() == 5001 and sym.helpers["x"].d.constant_value() == 1
    nat = encode_fingerprint(deep, alloc, fring, ("x", "y"))
    assert nat.main.d == 5001 and nat.helpers["x"].d == 1
    assert sym.helpers["y"] == zero_matrix(RING) and nat.helpers["y"] == zero_matrix(fring)
