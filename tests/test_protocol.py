import json
import random
from fractions import Fraction

import pytest

from polyproof import protocol
from polyproof.cli import _tamper
from polyproof.encmat import EncMatrix, SymbolicRing, zero_matrix
from polyproof.ffield import MERSENNE61, PrimeField
from polyproof.fingerprint import VarAllocation, encode, encode_fingerprint
from polyproof.logic import (
    AXIOM_SCHEMES,
    AxiomStep,
    GoalMismatch,
    MissingBinding,
    MPShapeMismatch,
    MPStep,
    SubstStep,
    atom,
    instantiate_axiom,
    neg,
    parse_proof,
    run_classical,
    step_formulas,
)
from polyproof.mpoly import NotDivisible
from polyproof.mpoly import MPoly
from polyproof.protocol import (
    Assignment,
    proof_degree_bound,
    propagate,
    prove,
    script_atoms,
    tracked_atoms,
    verify,
    verify_symbolic,
)

from .conftest import (
    PROOF_DIR,
    SEED0,
    SEED1,
    atom_swap_text,
    benchmark_cases,
    degree_bound,
    load_proof_text,
    matrix_eval,
)

M61 = PrimeField(MERSENNE61)
FIXTURES = ("imp_refl", "subst_demo", "subst_step", "contrapose_fn")


def fixture(name):
    return parse_proof(load_proof_text(name))


def corrupt_binding(script, step_no, mv, formula):
    step = script.steps[step_no - 1]
    binding = dict(step.binding)
    binding[mv] = formula
    steps = list(script.steps)
    steps[step_no - 1] = step._replace(binding=binding)
    return script._replace(steps=tuple(steps))


def test_accepts_fixture_all_modes():
    script = fixture("imp_refl")
    assert run_classical(script) == script.goal
    assert verify_symbolic(script).accepted
    t = verify(script, SEED1, 1, M61)
    assert t.verdict == "accept"
    assert t.epsilon == (5, MERSENNE61 - 2)


def test_degree_bound_of_fixture():
    # deepest formula is the instantiated S axiom: 5 nodes on its longest path
    assert proof_degree_bound(fixture("imp_refl")) == 5


def replayed_degree_bound(script):
    """The reference bound: the goal, the literal replacements, every formula
    the syntactic replay derives before its first broken step, and the axioms
    after that step, instantiated."""
    derived = step_formulas(script, partial=True)
    literal = [script.goal]
    for n, step in enumerate(script.steps):
        if isinstance(step, AxiomStep) and n >= len(derived):
            literal.append(instantiate_axiom(AXIOM_SCHEMES[step.scheme], step.binding))
        elif isinstance(step, SubstStep) and step.replacement is not None:
            literal.append(step.replacement)
    return degree_bound(*literal, *derived)


def benchmark_scripts():
    """Every case of the benchmark's workloads at seeds 1 and 2, parsed."""
    cases = benchmark_cases()
    manifest = json.loads((PROOF_DIR.parent / "perfbench" / "manifest.json").read_text("utf-8"))
    for workload, workload_spec in sorted(manifest["workloads"].items()):
        for seed in (1, 2):
            for case in cases.build(workload, workload_spec, seed, PROOF_DIR.parent):
                try:
                    yield parse_proof(case.text)
                except RecursionError:  # deep1200: the recursive parser's known limit
                    continue


def test_degree_bound_equals_the_replayed_reference():
    scripts = list(benchmark_scripts())
    assert len(scripts) > 250
    for name in FIXTURES:
        script = fixture(name)
        scripts += [script] + [_tamper(script, k) for k in range(1, len(script.steps) + 1)]
    for script in scripts:
        assert proof_degree_bound(script) == replayed_degree_bound(script), script.name


def test_tracked_atoms():
    assert tracked_atoms(fixture("imp_refl")) == []
    assert tracked_atoms(fixture("subst_demo")) == ["x"]
    assert tracked_atoms(fixture("subst_step")) == ["y"]


def test_script_atoms():
    assert script_atoms(fixture("imp_refl")) == ["A"]
    assert script_atoms(fixture("subst_demo")) == ["x", "y"]
    assert script_atoms(fixture("subst_step")) == ["x", "y"]
    assert script_atoms(fixture("contrapose_fn")) == ["x", "y"]
    # A declared atom counts even where no formula uses it.
    declared = parse_proof(
        'proof "q"\nsymbol q arity 0\ngoal (x -> (x -> x))\n'
        "1 axiom K { alpha = x, beta = x }\nqed 1\n"
    )
    assert script_atoms(declared) == ["q", "x"]


def atom_swap_variants(name):
    return [parse_proof(atom_swap_text(name, on_path)) for on_path in (False, True)]


def test_field_mains_do_not_depend_on_untracked_helpers():
    # A field run tracks only the substituted variables; every main matrix
    # must stay as with all atoms tracked, on every fixture, tamper variant
    # and same-size atom swap.
    for name in FIXTURES:
        base = fixture(name)
        variants = [base] + [_tamper(base, k) for k in range(1, len(base.steps) + 1)]
        for script in variants + atom_swap_variants(name):
            alloc = VarAllocation(script.signature)
            ring = Assignment.from_seed(SEED1, M61, alloc).ring()
            mains = [
                [fp.main for fp in propagate(script, alloc, ring, tracked)[1]]
                for tracked in (script_atoms(script), tracked_atoms(script))
            ]
            assert mains[0] == mains[1], name


def test_symbolic_replay_needs_every_helper():
    # The swapped premises give the same main division, so only the exact
    # division of a dropped helper rejects the step, on or off the qed path.
    for name in FIXTURES:
        for script in atom_swap_variants(name):
            alloc = VarAllocation(script.signature)
            propagate(script, alloc, SymbolicRing(), tracked_atoms(script))
            with pytest.raises(NotDivisible):
                propagate(script, alloc, SymbolicRing(), script_atoms(script))
            report = verify_symbolic(script)
            assert report.failure.startswith("malformed step"), name


def symbolic_prefix(script, alloc, tracked):
    """The exact replay's records, up to its first failed exact division."""
    for k in range(len(script.steps), 0, -1):
        try:
            prefix = script._replace(steps=script.steps[:k])
            return propagate(prefix, alloc, SymbolicRing(), tracked)[0]
        except NotDivisible:
            continue
    return []


@pytest.mark.parametrize("prime", [3, 5, 7, 101, MERSENNE61])
@pytest.mark.parametrize("name", FIXTURES)
def test_field_steps_are_symbolic_steps_evaluated(name, prime):
    # At every step the exact replay gets through, the field fingerprint is
    # the symbolic one evaluated at the run's point, entries in [0, p); on
    # every fixture, tamper variant and same-size atom swap, with the field
    # run's tracked atoms and with all of them.  Every atom either map
    # holds is compared, a missing one read as zero, and no map stores a
    # zero helper.
    field = PrimeField(prime)
    for base in [fixture(name)] + atom_swap_variants(name):
        for script in [base] + [_tamper(base, k) for k in range(1, len(base.steps) + 1)]:
            alloc = VarAllocation(script.signature)
            point = Assignment.from_seed(SEED1, field, alloc)
            for tracked in (tracked_atoms(script), script_atoms(script)):
                records, _ = propagate(script, alloc, point.ring(), tracked)
                for rec, sym in zip(records, symbolic_prefix(script, alloc, tracked)):
                    fp, exact = rec.fingerprint, sym.fingerprint
                    assert fp.main == matrix_eval(exact.main, point.values, field), (
                        rec.index, script)
                    assert EncMatrix(0, 0, 0) not in fp.helpers.values(), (rec.index, script)
                    assert zero_matrix(SymbolicRing()) not in exact.helpers.values()
                    for t in fp.helpers.keys() | exact.helpers.keys():
                        exact_t = matrix_eval(exact.helpers[t], point.values, field)
                        assert fp.helpers[t] == exact_t, (rec.index, t, script)


def homomorphism_scripts():
    """The fixtures and their atom swaps, each with every tamper step, chain1-3
    with no broken step and with each of its last block's steps broken, and grow1-3."""
    cases = benchmark_cases()
    for name in FIXTURES:
        for base in [fixture(name)] + atom_swap_variants(name):
            yield from [base] + [_tamper(base, k) for k in range(1, len(base.steps) + 1)]
    for k in (1, 2, 3):
        yield from (parse_proof(cases.chain_text(k, bad)) for bad in range(6))
        yield parse_proof(cases.grow_text(k))


def test_fingerprint_replay_encodes_the_syntax_replay():
    # The homomorphism over whole proofs: at every step before the first
    # broken one, the fingerprint propagate derives is the encoding of the
    # formula step_formulas derives.  Exactly over every atom, up to the
    # exact replay's first failed division, and in the field at one point
    # over the substituted atoms.
    scripts, compared = list(homomorphism_scripts()), 0
    assert len(scripts) == 94
    for script in scripts:
        formulas = step_formulas(script, partial=True)
        alloc = VarAllocation(script.signature)
        field_ring = Assignment.from_seed(SEED1, M61, alloc).ring()
        exact = [rec.fingerprint for rec in symbolic_prefix(script, alloc, script_atoms(script))]
        field = propagate(script, alloc, field_ring, tracked_atoms(script))[1]
        for ring, tracked, fps in ((SymbolicRing(), script_atoms(script), exact),
                                   (field_ring, tracked_atoms(script), field)):
            for n, (f, fp) in enumerate(zip(formulas, fps), 1):
                assert encode_fingerprint(f, alloc, ring, tracked) == fp, (n, script)
                compared += 1
    assert compared == 908


@pytest.mark.parametrize("name", FIXTURES)
def test_propagate_builds_no_axiom_instance(name, monkeypatch):
    def refuse(scheme, binding):
        raise AssertionError(f"axiom {scheme.name} instantiated")

    monkeypatch.setattr(protocol, "instantiate_axiom", refuse)
    script = fixture(name)
    alloc = VarAllocation(script.signature)
    field_ring = Assignment.from_seed(SEED1, M61, alloc).ring()
    for ring, tracked in ((SymbolicRing(), script_atoms(script)),
                          (field_ring, tracked_atoms(script))):
        records, fps = propagate(script, alloc, ring, tracked)
        assert len(records) == len(script.steps)
        assert fps[script.qed - 1].main == encode(script.goal, alloc, ring)


def test_propagate_missing_binding_raises():
    script = fixture("imp_refl")
    step = script.steps[0]
    broken = script._replace(steps=(step._replace(binding={"alpha": step.binding["alpha"]}),)
                             + script.steps[1:])
    alloc = VarAllocation(script.signature)
    with pytest.raises(MissingBinding, match="axiom K needs beta"):
        propagate(broken, alloc, SymbolicRing(), script_atoms(script))


def test_tampered_binding_rejected():
    script = corrupt_binding(fixture("imp_refl"), 4, "beta", neg(atom("A")))
    assert not verify_symbolic(script).accepted
    assert verify(script, SEED1, 1, M61).verdict == "reject"


def test_wrong_goal_rejected():
    text = load_proof_text("imp_refl").replace("goal (A -> A)", "goal (A -> !A)")
    script = parse_proof(text)
    assert not verify_symbolic(script).accepted
    assert verify(script, SEED1, 1, M61).verdict == "reject"
    with pytest.raises(GoalMismatch):
        run_classical(script)


def test_swapped_mp_rejected_symbolically():
    script = fixture("imp_refl")
    steps = list(script.steps)
    steps[2] = MPStep(2, 1)
    script = script._replace(steps=tuple(steps))
    report = verify_symbolic(script)
    assert not report.accepted


def test_transcript_deterministic():
    script = fixture("imp_refl")
    t1 = verify(script, SEED1, 2, M61)
    t2 = verify(script, SEED1, 2, M61)
    assert t1.render() == t2.render()
    t3 = verify(script, SEED0, 2, M61)
    assert t3.render() != t1.render()


def test_completeness_over_corpus():
    # symbolically valid scripts are accepted at every sampled point
    for name in FIXTURES:
        script = fixture(name)
        assert verify_symbolic(script).accepted
        for seed in (SEED0, SEED1):
            for p in (101, MERSENNE61):
                assert verify(script, seed, 2, PrimeField(p)).verdict == "accept", name


def test_agreement_with_classical_checker():
    corpus = [fixture(name) for name in FIXTURES]
    corpus.append(corrupt_binding(fixture("imp_refl"), 1, "beta", atom("A")))
    corpus.append(
        parse_proof(load_proof_text("subst_demo").replace("goal (y -> y)", "goal (x -> y)"))
    )
    for script in corpus:
        try:
            run_classical(script)
            classical_ok = True
        except (MPShapeMismatch, GoalMismatch):
            classical_ok = False
        assert verify_symbolic(script).accepted == classical_ok


def test_prove_with_explicit_assignment():
    script = fixture("imp_refl")
    alloc = VarAllocation(script.signature)
    assignment = Assignment.from_seed(SEED1, M61, alloc)
    t = prove(script, assignment)
    assert t.verdict == "accept"
    assert t.repeats == 1


def test_assignment_file_roundtrip():
    script = fixture("imp_refl")
    alloc = VarAllocation(script.signature)
    assignment = Assignment.from_seed(SEED1, PrimeField(101), alloc)
    text = assignment.render(alloc)
    back = Assignment.from_file_text(text, alloc)
    assert back.field.p == 101
    assert back.values == assignment.values
    assert prove(script, back).verdict == "accept"


def test_assignment_file_rejects_bad_values():
    script = fixture("imp_refl")
    alloc = VarAllocation(script.signature)
    with pytest.raises(ValueError):
        Assignment.from_file_text("prime = 101\nI = 1\n", alloc)
    with pytest.raises(ValueError):
        Assignment.from_file_text("prime = 101\nQQ = 7\n", alloc)
    with pytest.raises(ValueError):
        Assignment.from_file_text("I = 7\n", alloc)
    # numbers of over 4300 digits, which int() refuses to read, still name their line
    with pytest.raises(ValueError, match=r"^assignment line 1: 5000-digit number > 2\*\*63$"):
        Assignment.from_file_text("prime = " + "9" * 5000 + "\n", alloc)
    with pytest.raises(ValueError, match=r"^assignment line 2: 5000-digit number > 2\*\*63$"):
        Assignment.from_file_text("prime = 101\nI = " + "9" * 5000 + "\n", alloc)
    # leading zeros do not count as digits
    back = Assignment.from_file_text("prime = " + "0" * 5000 + "101\nI = 007\n", alloc)
    assert back.field.p == 101 and back.values[alloc.vid("->")].value == 7
    # a prime line whose value is no prime in [3, 2**63) names its line too
    with pytest.raises(ValueError, match=r"^assignment line 2: modulus must satisfy 3 <= p < "
                                         r"2\*\*63, got 2$"):
        Assignment.from_file_text("\nprime = 2\n", alloc)
    with pytest.raises(ValueError, match=r"^assignment line 1: modulus 100 is not prime$"):
        Assignment.from_file_text("prime = 100\nI = 7\n", alloc)


def test_assignment_file_numbers_are_ascii_digits():
    # U+0661..U+0663 are Arabic-Indic digits, which int() reads as 1..3.
    alloc = VarAllocation(fixture("imp_refl").signature)
    with pytest.raises(ValueError, match="line 1: malformed"):
        Assignment.from_file_text("prime = \u0661\u0660\u0661\n", alloc)
    with pytest.raises(ValueError, match="line 2: malformed"):
        Assignment.from_file_text("prime = 101\nI = \u0663\n", alloc)


def test_assignment_must_cover_needed_variables():
    script = fixture("imp_refl")
    alloc = VarAllocation(script.signature)
    with pytest.raises(ValueError):
        prove(script, Assignment.from_file_text("prime = 101\nI = 7\n", alloc))


def test_verdict_certifies_encoding_not_formula():
    # The encoding is coarser than formula identity (see the fingerprint
    # tests): a proof of (x -> y) -> (x -> y) is accepted against the goal
    # (x -> x) -> (y -> y) because the two share a matrix, while the
    # syntactic checker tells them apart.  Pinned here as documented
    # behavior of the scheme.
    text = """proof "imp_refl_xy"
goal ((x -> x) -> (y -> y))
1 axiom K { alpha = (x -> y), beta = ((x -> y) -> (x -> y)) }
2 axiom S { alpha = (x -> y), beta = ((x -> y) -> (x -> y)), gamma = (x -> y) }
3 mp 1 2
4 axiom K { alpha = (x -> y), beta = (x -> y) }
5 mp 4 3
qed 5
"""
    script = parse_proof(text)
    with pytest.raises(GoalMismatch):
        run_classical(script)
    assert verify_symbolic(script).accepted
    assert verify(script, SEED1, 2, M61).verdict == "accept"


def test_epsilon_scales_with_repeats():
    script = fixture("imp_refl")
    t = verify(script, SEED1, 3, PrimeField(101))
    assert t.epsilon == (5 ** 3, 99 ** 3)
    assert t.verdict == "accept"
    # Past 4300 digits, which Python refuses to print, the bound prints as a power.
    full = verify(script, SEED1, 200, M61).render()
    assert f"\nepsilon {Fraction(5, MERSENNE61 - 2) ** 200}\n" in full
    t = verify(script, SEED1, 240, M61)
    assert t.epsilon == (5 ** 240, (MERSENNE61 - 2) ** 240)
    assert f"\nepsilon (5/{MERSENNE61 - 2})^240\nrepeat 1\n" in t.render()


def test_false_accept_rate_small_field():
    # corrupted variants at p=101: empirical false-accept rate within the
    # d/(p-2) budget (smoke-scale; the acceptance suite runs the full count)
    rng = random.Random(2024)
    base = fixture("imp_refl")
    trials, hits = 200, 0
    for _ in range(trials):
        script = corrupt_binding(
            base,
            rng.choice([1, 2, 4]),
            rng.choice(["alpha", "beta"]),
            random_small(rng),
        )
        if verify_symbolic(script).accepted:
            continue  # still a valid proof, not a corruption
        seed = rng.randbytes(32)
        if verify(script, seed, 1, PrimeField(101)).verdict == "accept":
            hits += 1
    assert hits / trials <= 5 / 99 + 3 * (0.05 * 0.95 / trials) ** 0.5


def random_small(rng):
    from .conftest import random_formula

    return random_formula(rng, 3, atoms=("A",))


def _fixture_variants():
    """Each fixture untampered and at every tamper step."""
    for name in FIXTURES:
        script = fixture(name)
        yield script
        for step in range(1, len(script.steps) + 1):
            yield _tamper(script, step)


def test_symbolic_ring_constants_survive_every_replay():
    # A SymbolicRing hands out one x_v, 1 and 0 to every caller, so no
    # operation may change a polynomial in place.
    ring, replays = SymbolicRing(), 0
    for script in _fixture_variants():
        alloc = VarAllocation(script.signature)
        try:
            propagate(script, alloc, ring, script_atoms(script))
            replays += 1
        except NotDivisible:
            pass
        assert all(ring.var(v) == MPoly.var(v) for v in range(alloc.size))
    assert replays >= len(FIXTURES)  # every untampered replay, at least
    assert ring.one() == MPoly.one() and ring.zero() == MPoly.zero()
    assert ring.var(0) is ring.var(0) and ring.one() is ring.one()


def test_symbolic_runs_repeat_exactly():
    for script in _fixture_variants():
        assert verify_symbolic(script) == verify_symbolic(script)
