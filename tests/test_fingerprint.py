import itertools
import json
import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polyproof import protocol
from polyproof.encmat import (
    EncMatrix,
    FieldRing,
    SymbolicRing,
    elem_inv_mul,
    zero_matrix,
)
from polyproof.ffield import PrimeField
from polyproof.fingerprint import (
    UnallocatedSymbol,
    VarAllocation,
    encode,
    encode_fingerprint,
    hom_mp,
    hom_subst,
)
from polyproof.logic import (
    AXIOM_SCHEMES,
    AxiomStep,
    Formula,
    Signature,
    atom,
    imp,
    instantiate_axiom,
    neg,
    parse_formula,
    parse_proof,
    subst_syntactic,
)
from polyproof.mpoly import MissingAssignment, MonomialOverflow, MPoly, NotDivisible

from .conftest import (
    PROOF_DIR,
    SEED1,
    axiom_fingerprint_via_template,
    benchmark_cases,
    degree_bound,
    elem,
    identity,
    load_proof_text,
    matrix_eval,
    node_count,
    occurrences,
    poly_degree,
    product_of,
    with_metavariables,
)

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
    # with the metavariables' slots: the strategies below draw alpha, beta and gamma as atoms
    sig = Signature()
    for name in ("x", "y", "z"):
        sig.declare(name, 0)
    for name, arity in extra:
        sig.declare(name, arity)
    return sig, with_metavariables(VarAllocation(sig))


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


def test_metavariables_get_no_variables():
    # An axiom's metavariables are read as their bindings, never evaluated, so
    # the allocation holds the builtins' five slots and each declared symbol's
    # arity + 1, and an unbound metavariable leaf is an unknown symbol in both rings.
    for name in ("contrapose_fn", "imp_refl", "subst_demo", "subst_step"):
        sig = parse_proof(load_proof_text(name)).signature
        alloc = VarAllocation(sig)
        assert alloc.size == 5 + sum(arity + 1 for _, arity in sig.symbols()), name
        field_ring = protocol.Assignment.from_seed(SEED1, PrimeField(101), alloc).ring()
        for mv in ("alpha", "beta", "gamma"):
            for ring in (SymbolicRing(), field_ring):
                with pytest.raises(UnallocatedSymbol):
                    encode_fingerprint(imp(atom(mv), atom(mv)), alloc, ring, ())


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
    # Every axiom step of the fixtures and of the benchmark's cases, walked as
    # a run walks it: exactly over the script's atoms, and at a point mod 101
    # and mod 2^61 - 1 over the atoms its subst steps replace.
    schemes, steps = set(), 0
    for name, script in _axiom_route_scripts():
        alloc = VarAllocation(script.signature)
        runs = [(SymbolicRing(), protocol.script_atoms(script))] + [
            (protocol.Assignment.from_seed(SEED1, PrimeField(prime), alloc).ring(),
             protocol.tracked_atoms(script)) for prime in (101, (1 << 61) - 1)]
        for step in script.steps:
            if not isinstance(step, AxiomStep):
                continue
            scheme = AXIOM_SCHEMES[step.scheme]
            for ring, tracked in runs:
                direct = encode_fingerprint(scheme.template, alloc, ring, tracked, step.binding)
                via = axiom_fingerprint_via_template(scheme, step.binding, alloc, ring, tracked)
                assert direct == via, (name, step)
            schemes.add(step.scheme)
            steps += 1
    assert schemes == set(AXIOM_SCHEMES) and steps > 1000


def _axiom_route_scripts():
    """(name, script): the four fixtures, then every case of the benchmark's
    steps, growth and exact workloads at seed 1 but the two the sweep skips
    (dbl4, deep1200), which take seconds in symbolic mode."""
    for name in ("contrapose_fn", "imp_refl", "subst_demo", "subst_step"):
        yield name, parse_proof(load_proof_text(name))
    cases = benchmark_cases()
    manifest = json.loads((PROOF_DIR.parent / "perfbench" / "manifest.json").read_text())
    for workload in ("steps", "growth", "exact"):
        for case in cases.build(workload, manifest["workloads"][workload], 1, PROOF_DIR.parent):
            if case.name.split("-")[1] not in ("dbl4", "deep1200"):
                yield case.name, parse_proof(case.text)


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
    # The field mp and subst read the values the matrix products read, in
    # the same order, so they name the variable the products name, also when
    # substituting w, which the instance lacks.
    _, alloc = make_alloc(extra=(("g", 1), ("w", 0)))
    instance = instantiate_axiom(scheme, binding)
    field, rng = PrimeField(101), random.Random(name)

    def outcome(fn, *args):
        try:
            result = fn(*args)
        except MissingAssignment as exc:
            return "missing", exc.var
        return (result.main, dict(result.helpers)) if hasattr(result, "main") else result

    missing, tracked = Counter(), ("x", "y", "z")
    for _ in range(200):
        values = {v: field.elem(rng.randrange(2, 101)) for v in range(alloc.size)}
        full = FieldRing(field, values)
        ring = FieldRing(field, {v: e for v, e in values.items() if rng.random() < 0.8})
        walks = [outcome(encode_fingerprint, f, alloc, ring, tracked, b)
                 for f, b in ((scheme.template, binding), (instance, None))]
        assert walks[0] == walks[1]
        hyp, impl, repl = (encode_fingerprint(f, alloc, full, tracked)
                           for f in (instance.children[0], instance, binding["beta"]))
        var = rng.choice(("x", "y", "z", "w"))
        steps = [(outcome(hom_mp, hyp, impl, alloc, ring),
                  outcome(reference_hom_mp, hyp, impl, alloc, ring)),
                 (outcome(hom_subst, impl, var, repl, alloc, ring),
                  outcome(reference_hom_subst, impl, var, repl, alloc, ring))]
        for kernel, reference in steps:
            assert kernel == reference
        for kind, got in zip(("walk", "mp", "subst"), (walks[0], *(k for k, _ in steps))):
            missing[kind] += got[0] == "missing"
    assert all(0 < missing[kind] < 200 for kind in ("walk", "mp", "subst")), missing


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
    sym = fp_of(f, alloc)
    nat = fp_of(f, alloc, ring=fring)
    assert matrix_eval(sym.main, values, field) == nat.main
    assert all(matrix_eval(sym.helpers[t], values, field) == nat.helpers[t] for t in sym.helpers)


@settings(max_examples=80)
@given(formulas)
def test_node_count_and_degree_laws(f):
    _, alloc = make_alloc()
    fp = fp_of(f, alloc)
    assert fp.main.d == MPoly.const(node_count(f))
    bound = degree_bound(f)
    assert max(poly_degree(fp.main.a), poly_degree(fp.main.b), poly_degree(fp.main.d)) <= bound
    for t in ("x", "y", "z"):
        assert fp.helpers[t].d == MPoly.const(occurrences(f, t))
        assert poly_degree(fp.helpers[t].a) <= bound


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


def _nonzero(helpers, ring):
    return {x: m for x, m in helpers.items() if m != zero_matrix(ring)}


def reference_hom_mp(fp_hyp, fp_imp, alloc, ring):
    """hom_mp as matrix products over either ring: (main, nonzero helpers)."""
    vertex = elem(alloc.vid("->", 0), ring)
    left_edge = elem(alloc.vid("->", 1), ring)
    right_var = alloc.vid("->", 2)
    main = elem_inv_mul(right_var, fp_imp.main - vertex - left_edge * fp_hyp.main, ring)
    return main, _nonzero({
        x: elem_inv_mul(right_var, fp_imp.helpers[x] - left_edge * fp_hyp.helpers[x], ring)
        for x in fp_imp.helpers.keys() | fp_hyp.helpers.keys()
    }, ring)


def reference_hom_subst(fp_src, var, fp_repl, alloc, ring):
    """hom_subst as matrix products over either ring: (main, nonzero helpers)."""
    leaf = elem(alloc.vid(var, 0), ring)
    hv = fp_src.helpers[var]
    main = fp_src.main - hv * leaf + hv * fp_repl.main
    main = ring.matrix(main.a, main.b, main.d)
    helpers = {}
    for x in fp_src.helpers.keys() | fp_repl.helpers.keys():
        graft = hv * fp_repl.helpers[x]
        m = graft if x == var else fp_src.helpers[x] + graft
        helpers[x] = ring.matrix(m.a, m.b, m.d)
    return main, _nonzero(helpers, ring)


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
        assert fp.main == ring.matrix(main.a, main.b, main.d)
        assert all(fp.helpers[t] == ring.matrix(h.a, h.b, h.d) for t, h in helpers.items())
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
    assert sym.main.d == MPoly.const(5001) and sym.helpers["x"].d == MPoly.const(1)
    nat = encode_fingerprint(deep, alloc, fring, ("x", "y"))
    assert nat.main.d == 5001 and nat.helpers["x"].d == 1
    assert sym.helpers["y"] == zero_matrix(RING) and nat.helpers["y"] == zero_matrix(fring)


# -- the field kernel against the symbolic closed form ---------------------------

FIELD_PRIMES = (3, 5, 101, (1 << 61) - 1)
ATOMS = ("x", "y", "z", "w", "alpha", "beta")


def at_point(fp, values, field):
    """A symbolic fingerprint evaluated at a point: (main, the helpers that do not
    vanish there)."""
    at = {x: matrix_eval(m, values, field) for x, m in fp.helpers.items()}
    return matrix_eval(fp.main, values, field), {
        x: m for x, m in at.items() if m != EncMatrix(0, 0, 0)}


@settings(max_examples=120)
@given(
    fn_formulas, fn_formulas, fn_formulas,
    st.lists(binding_formulas, min_size=3, max_size=3),
    st.sampled_from(sorted(AXIOM_SCHEMES)),
    st.sets(st.sampled_from(ATOMS)),
    st.sampled_from(ATOMS),
    st.sampled_from(FIELD_PRIMES),
    st.integers(0, 10**9),
)
def test_field_kernel_is_the_symbolic_closed_form_at_the_point(
        f, g, h, bound, scheme_name, tracked, var, prime, salt):
    # encode_fingerprint (with and without axiom bindings), hom_mp and hom_subst
    # over the field equal the symbolic results evaluated at the point, wherever
    # the symbolic divisions are exact.  At p = 3 and 5 whole helpers vanish
    # mod p and must be dropped, as the symbolic ones evaluated to zero are.
    _, alloc = make_alloc(extra=(("w", 0), ("g", 1), ("h", 3)))
    rng, field = random.Random(salt), PrimeField(prime)
    values = {v: field.elem(rng.randrange(2, prime)) for v in range(alloc.size)}
    ring = FieldRing(field, values)

    def both(fn, *args):
        """fn over the field and fn's symbolic result at the point; None if a division fails."""
        try:
            sym = fn(*(RING if a is ring else a for a in args))
        except NotDivisible:
            return None
        got = fn(*args)
        return (got.main, dict(got.helpers)), at_point(sym, values, field)

    def fp(formula, r):
        return encode_fingerprint(formula, alloc, r, tracked)

    scheme = AXIOM_SCHEMES[scheme_name]
    binding = dict(zip(scheme.metavars, bound))
    pairs = [both(encode_fingerprint, x, alloc, ring, tracked) for x in (f, imp(f, g))]
    pairs.append(both(encode_fingerprint, scheme.template, alloc, ring, tracked, binding))
    for antecedent in (f, h):  # a valid step, and one whose division may fail
        implication = imp(antecedent, g)
        pairs.append(both(lambda r: hom_mp(fp(f, r), fp(implication, r), alloc, r), ring))
    pairs.append(both(lambda r: hom_subst(fp(f, r), var, fp(g, r), alloc, r), ring))
    assert None not in pairs[:4] + pairs[5:]  # only a wrong mp may fail to divide
    for pair in filter(None, pairs):
        assert pair[0] == pair[1]


@settings(max_examples=150)
@given(fn_formulas, fn_formulas, fn_formulas, st.sets(st.sampled_from(ATOMS)),
       st.sampled_from(ATOMS))
def test_symbolic_mp_and_subst_are_the_matrix_products(f, g, h, tracked, var):
    # hom_mp and hom_subst have one body for both rings, so the test above
    # compares that body with itself.  Here it meets the matrix-product forms
    # exactly over polynomials.  The antecedent h may not be the hypothesis f;
    # then the divisions may fail, and both forms must raise NotDivisible.
    _, alloc = make_alloc(extra=(("w", 0), ("g", 1), ("h", 3)))

    def fp(formula):
        return encode_fingerprint(formula, alloc, RING, tracked)

    def outcome(fn, *args):
        try:
            got = fn(*args)
        except NotDivisible:
            return None
        return got if isinstance(got, tuple) else (got.main, dict(got.helpers))

    for antecedent in (f, h):
        args = (fp(f), fp(imp(antecedent, g)), alloc, RING)
        assert outcome(hom_mp, *args) == outcome(reference_hom_mp, *args)
    args = (fp(f), var, fp(g), alloc, RING)
    assert outcome(hom_subst, *args) == outcome(reference_hom_subst, *args)


def test_field_kernel_on_a_5000_deep_negation_chain():
    # The walk, mp and subst use no recursion, so depth costs no stack.
    _, alloc = make_alloc()
    deep = atom("x")
    for _ in range(5000):
        deep = neg(deep)
    field = PrimeField((1 << 61) - 1)
    ring = FieldRing(field, {v: field.elem(v + 2) for v in range(alloc.size)})

    def fp(formula):
        return encode_fingerprint(formula, alloc, ring, ("x", "y"))

    assert hom_mp(fp(deep), fp(imp(deep, deep)), alloc, ring) == fp(deep)
    sig, _ = make_alloc()
    grafted = subst_syntactic(deep, "x", imp(atom("x"), atom("y")), sig)
    assert hom_subst(fp(deep), "x", fp(imp(atom("x"), atom("y"))), alloc, ring) == fp(grafted)
    assert fp(grafted).main.d == 5003 and fp(grafted).helpers["y"].d == 1


def test_symbolic_walk_multiplies_no_polynomials(monkeypatch):
    # The walk adds each node's closed-form terms straight into the entries:
    # no polynomial product, on a deep chain or a wide tree, read as the
    # bindings of a template with every atom tracked.
    def refuse(*_):
        raise AssertionError("the symbolic walk multiplied two polynomials")

    monkeypatch.setattr("polyproof.mpoly.MPoly.__mul__", refuse)
    _, alloc = make_alloc()
    deep = atom("x")
    for _ in range(5000):
        deep = neg(deep)
    level = [atom(name) for name in "xyzx" * 64]
    while len(level) > 1:
        level = [imp(a, b) for a, b in zip(level[::2], level[1::2])]
    tree = level[0]  # 256 leaves: 128 x, 64 y, 64 z
    scheme = AXIOM_SCHEMES["K"]  # (alpha -> (beta -> alpha))
    fp = encode_fingerprint(scheme.template, alloc, RING, ("x", "y", "z"),
                            dict(zip(scheme.metavars, (deep, tree))))
    assert fp == encode_fingerprint(imp(deep, imp(tree, deep)), alloc, RING, ("x", "y", "z"))
    assert fp.main.d == MPoly.const(2 + 2 * 5001 + 511)
    assert [fp.helpers[t].d for t in "xyz"] == [MPoly.const(n) for n in (130, 64, 64)]


def test_symbolic_walks_charge_one_budget_per_ring():
    # Each node charges its packed vertex monomial's bits (32 per field below
    # its top variable, plus the top exponent's) to the ring's room, one
    # budget over every walk of a run; a walk that overdraws it stops.
    _, alloc = make_alloc()
    f = imp(imp(atom("x"), neg(atom("y"))), neg(imp(atom("z"), atom("x"))))
    ring = SymbolicRing()
    start = ring.room
    a = encode(f, alloc, ring).a
    spent = sum(c * (32 * m[-1][0] + m[-1][1].bit_length()) for m, c in a.terms().items())
    assert start - ring.room == spent > 0
    encode(f, alloc, ring)
    assert start - ring.room == 2 * spent
    ring.room = spent - 1
    with pytest.raises(MonomialOverflow, match="^symbolic work budget exceeded"):
        encode(f, alloc, ring)
