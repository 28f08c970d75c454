"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with  pytest tests/test_acceptance.py -v -s  to see the verdict lines.
"""

import math
import random
import time
from contextlib import contextmanager
from dataclasses import replace
from fractions import Fraction

from polyproof.encmat import FieldRing, SymbolicRing, factor_elementary_product, product_of
from polyproof.ffield import MERSENNE61, PrimeField
from polyproof.fingerprint import (
    VarAllocation,
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
    parse_proof,
    run_classical,
    subst_syntactic,
)
from polyproof.protocol import verify, verify_symbolic

from .conftest import (
    SEED1,
    degree_bound,
    load_proof_text,
    node_count,
    occurrences,
    random_formula,
)

RING = SymbolicRing()


@contextmanager
def criterion(n, detail):
    try:
        yield
    except BaseException:
        print(f"[acceptance] criterion {n}: FAIL ({detail})")
        raise
    print(f"[acceptance] criterion {n}: PASS ({detail})")


def xyz_alloc():
    sig = Signature()
    for name in ("x", "y", "z"):
        sig.declare(name, 0)
    return sig, VarAllocation(sig)


def field_encode(f, alloc, field, rng):
    values = {v: field.elem(rng.randrange(2, field.p)) for v in range(alloc.size)}
    return encode(f, alloc, FieldRing(field, values))


def test_criterion_1_worked_example_symbolic():
    with criterion(1, "worked-example encoding and helpers, exact, < 0.1 s"):
        sig, alloc = xyz_alloc()
        from polyproof.logic import parse_formula

        f = parse_formula("((x -> y) -> (x -> z))", sig)

        def A(*path):
            return product_of([alloc.vid(s, k) for s, k in path], RING)

        I, I1, I2 = ("->", 0), ("->", 1), ("->", 2)
        X, Y, Z = ("x", 0), ("y", 0), ("z", 0)
        expected_main = (
            A(I)
            + A(I1, I) + A(I1, I1, X) + A(I1, I2, Y)
            + A(I2, I) + A(I2, I1, X) + A(I2, I2, Z)
        )
        start = time.perf_counter()
        fp = encode_fingerprint(f, alloc, RING, ("x", "y", "z"))
        elapsed = time.perf_counter() - start
        assert fp.main == expected_main
        assert fp.helpers["x"] == A(I1, I1) + A(I2, I1)
        assert fp.helpers["y"] == A(I1, I2)
        assert fp.helpers["z"] == A(I2, I2)
        assert elapsed < 0.1


def test_criterion_2_five_step_proof_all_routes():
    # The reported bound is d/(p - 2) with d the deepest formula in the
    # proof; counting nodes on the longest root-to-leaf path of the
    # instantiated S axiom (the deepest formula here) gives 5.
    with criterion(2, "five-step proof: symbolic, field and classical agree, < 1 s"):
        script = parse_proof(load_proof_text("imp_refl"))
        start = time.perf_counter()
        classical = run_classical(script)
        symbolic = verify_symbolic(script)
        transcript = verify(script, SEED1, 1, PrimeField(MERSENNE61))
        elapsed = time.perf_counter() - start
        assert classical == script.goal
        assert symbolic.accepted
        assert transcript.verdict == "accept"

        a = atom("A")
        b = imp(a, a)
        deepest = instantiate_axiom(
            AXIOM_SCHEMES["S"], {"alpha": a, "beta": b, "gamma": a}
        )

        def longest_path_nodes(f: Formula) -> int:
            return 1 + max((longest_path_nodes(c) for c in f.children), default=0)

        d = longest_path_nodes(deepest)
        assert d == 5
        assert transcript.epsilon == Fraction(d, MERSENNE61 - 2)
        assert transcript.epsilon <= Fraction(5, MERSENNE61 - 2)
        assert elapsed < 1.0


def test_criterion_3_factorization_roundtrip_and_injectivity():
    with criterion(3, "1000 factorizations recovered; equality iff same sequence"):
        rng = random.Random(33)
        for _ in range(1000):
            seq = [rng.randrange(5) for _ in range(rng.randint(0, 8))]
            assert factor_elementary_product(product_of(seq, RING)) == seq
        violations = 0
        for k in range(1000):
            s1 = [rng.randrange(5) for _ in range(rng.randint(0, 8))]
            if k % 3 == 0:
                s2 = list(s1)
                rng.shuffle(s2)  # adversarial: same multiset, possibly reordered
            elif k % 3 == 1:
                s2 = list(s1)
            else:
                s2 = [rng.randrange(5) for _ in range(rng.randint(0, 8))]
            same_matrix = product_of(s1, RING) == product_of(s2, RING)
            if same_matrix != (s1 == s2):
                violations += 1
        assert violations == 0


def test_criterion_4_homomorphic_equals_direct():
    with criterion(4, "500 subst + 500 mp cases, symbolic and at 3 field points"):
        rng = random.Random(44)
        sig, alloc = xyz_alloc()
        tracked = ("x", "y", "z")
        field = PrimeField(MERSENNE61)

        def fresh_ring():
            values = {v: field.elem(rng.randrange(2, field.p)) for v in range(alloc.size)}
            return FieldRing(field, values)

        for _ in range(500):
            phi = random_formula(rng, 5)
            psi = random_formula(rng, 5)
            var = rng.choice(tracked)
            direct_formula = subst_syntactic(phi, var, psi, sig)
            for ring in [RING, fresh_ring(), fresh_ring(), fresh_ring()]:
                got = hom_subst(
                    encode_fingerprint(phi, alloc, ring, tracked),
                    var,
                    encode_fingerprint(psi, alloc, ring, tracked),
                    alloc,
                    ring,
                )
                assert got == encode_fingerprint(direct_formula, alloc, ring, tracked)

        for _ in range(500):
            phi = random_formula(rng, 5)
            psi = random_formula(rng, 5)
            for ring in [RING, fresh_ring(), fresh_ring(), fresh_ring()]:
                got = hom_mp(
                    encode_fingerprint(phi, alloc, ring, tracked),
                    encode_fingerprint(imp(phi, psi), alloc, ring, tracked),
                    alloc,
                    ring,
                )
                assert got == encode_fingerprint(psi, alloc, ring, tracked)


def enumerate_formulas(n, atoms=("x", "y")):
    """All formulas over the atoms, negation and implication with exactly n nodes."""
    if n == 1:
        return [atom(a) for a in atoms]
    out = [neg(f) for f in enumerate_formulas(n - 1, atoms)]
    for left in range(1, n - 1):
        for a in enumerate_formulas(left, atoms):
            for b in enumerate_formulas(n - 1 - left, atoms):
                out.append(imp(a, b))
    return out


def test_criterion_5_unique_encoding_exhaustive():
    # KNOWN RED.  The encoding is not injective: in (a -> b) -> (c -> d) the
    # subtrees b and c sit at edge paths I1.I2 and I2.I1, and swapping them
    # is invisible to the matrix whenever they have equal node counts (the
    # (1,1) entry is commutative and the (1,2) entry of a path product does
    # not depend on its last factor).  Smallest collisions have 7 nodes,
    # e.g. ((x -> y) -> (x -> x)) vs ((x -> x) -> (y -> x)).
    with criterion(5, "all 570 formulas with <= 7 nodes encode distinctly"):
        sig = Signature()
        sig.declare("x", 0)
        sig.declare("y", 0)
        alloc = VarAllocation(sig)
        seen = {}
        collisions = []
        total = 0
        for n in range(1, 8):
            for f in enumerate_formulas(n):
                total += 1
                key = encode(f, alloc, RING)
                if key in seen:
                    collisions.append((seen[key], f))
                else:
                    seen[key] = f
        assert total == 570
        assert not collisions, (
            f"{len(collisions)} colliding pairs among 570 formulas, e.g. "
            f"{collisions[0][0]} and {collisions[0][1]} share one matrix"
        )


def test_criterion_6_schwartz_zippel_collision_rate():
    with criterion(6, "collision rate <= 6/99 + 3 sigma at p=101; zero at 2**61-1"):
        rng = random.Random(66)
        sig, alloc = xyz_alloc()
        small = PrimeField(101)
        large = PrimeField(MERSENNE61)
        pairs = []
        while len(pairs) < 1000:
            f1 = random_formula(rng, 6)
            f2 = random_formula(rng, 6)
            if f1 != f2:
                pairs.append((f1, f2))

        def collides(f1, f2, field):
            # one fresh assignment per pair, shared by both encodings
            ring = FieldRing(
                field,
                {v: field.elem(rng.randrange(2, field.p)) for v in range(alloc.size)},
            )
            return encode(f1, alloc, ring) == encode(f2, alloc, ring)

        small_hits = sum(collides(f1, f2, small) for f1, f2 in pairs)
        bound = 6 / 99
        sigma = math.sqrt(bound * (1 - bound) / len(pairs))
        assert small_hits / len(pairs) <= bound + 3 * sigma
        large_hits = sum(collides(f1, f2, large) for f1, f2 in pairs)
        assert large_hits == 0


def test_criterion_7_tamper_soundness():
    with criterion(7, "1000 corruptions at p=101: rate within bound at k=1, zero at k=3"):
        rng = random.Random(77)
        base = parse_proof(load_proof_text("imp_refl"))
        small = PrimeField(101)
        trials = 0
        hits_k1 = 0
        hits_k3 = 0
        while trials < 1000:
            script = corrupt_one_step(base, rng)
            if verify_symbolic(script).accepted:
                continue  # the mutation produced another valid proof, not a corruption
            trials += 1
            seed = rng.randbytes(32)
            if verify(script, seed, 1, small).verdict == "accept":
                hits_k1 += 1
                # the first of the three repeats reuses the k=1 sub-seed, so
                # only k=1 false accepts can survive at k=3
                if verify(script, seed, 3, small).verdict == "accept":
                    hits_k3 += 1
        bound = 4 / 99
        sigma = math.sqrt(bound * (1 - bound) / trials)
        assert hits_k1 / trials <= bound + 3 * sigma
        assert hits_k3 == 0


def corrupt_one_step(script, rng):
    step_no = rng.randrange(len(script.steps)) + 1
    step = script.steps[step_no - 1]
    steps = list(script.steps)
    if hasattr(step, "binding"):
        mv = rng.choice(sorted(step.binding))
        binding = dict(step.binding)
        binding[mv] = random_formula(rng, 3, atoms=("A",))
        steps[step_no - 1] = replace(step, binding=binding)
    else:
        if rng.random() < 0.5:
            steps[step_no - 1] = replace(step, hyp=step.imp, imp=step.hyp)
        else:
            steps[step_no - 1] = replace(
                step,
                hyp=rng.randrange(1, step_no),
                imp=rng.randrange(1, step_no),
            )
    return replace(script, steps=tuple(steps))


def test_criterion_8_structural_invariants():
    with criterion(8, "node-count and degree laws over 10**4 random formulas"):
        rng = random.Random(88)
        sig, alloc = xyz_alloc()
        tracked = ("x", "y", "z")
        for _ in range(10_000):
            f = random_formula(rng, 6)
            fp = encode_fingerprint(f, alloc, RING, tracked)
            assert fp.main.d.constant_value() == node_count(f)
            bound = degree_bound(f)
            assert fp.main.a.degree() <= bound
            assert fp.main.b.degree() <= bound
            for t in tracked:
                helper = fp.helpers[t]
                assert helper.d.constant_value() == occurrences(f, t)
                assert helper.a.degree() <= bound
                assert helper.b.degree() <= bound
