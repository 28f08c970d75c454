import contextlib
import hashlib
import io
import json
import re
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polyproof import cli, logic, protocol
from polyproof.cli import main
from polyproof.encmat import SymbolicRing, product_of
from polyproof.ffield import MERSENNE61, ZeroInverse
from polyproof.logic import ParseError, parse_proof
from polyproof.mpoly import NotDivisible

from .conftest import PROOF_DIR, atom_swap_text, benchmark_cases, load_proof_text

IMP_REFL = str(PROOF_DIR / "imp_refl.proof")
SEED_HEX = "01" * 32


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_encode_symbolic_worked_example(capsys):
    code, out, _ = run(capsys, "encode", "((x -> y) -> (x -> z))", "--symbolic")
    assert code == 0
    assert (
        "encoding A(I) + A(I1)A(I) + A(I1)^2A(X) + A(I1)A(I2)A(Y)"
        " + A(I2)A(I) + A(I2)A(I1)A(X) + A(I2)^2A(Z)" in out
    )
    assert "helper x = A(I1)^2 + A(I2)A(I1)" in out
    assert "helper y = A(I1)A(I2)" in out
    assert "helper z = A(I2)^2" in out


def test_encode_field_with_assignment(capsys, tmp_path):
    assign = tmp_path / "point.assign"
    assign.write_text("prime = 101\nX = 2\n")
    code, out, _ = run(capsys, "encode", "x", "--prime", "101", "--assign", str(assign))
    assert code == 0
    assert "main=[2, 1, 1]" in out
    assert "x:[1, 0, 1]" in out


def test_encode_field_with_seed(capsys):
    code, out1, _ = run(capsys, "encode", "(x -> y)", "--prime", "101", "--seed", "ff")
    assert code == 0
    assert "prime 101" in out1
    assert re.search(r"main=\[\d+, \d+, 3\]", out1)  # node count in the (2,2) entry
    _, out2, _ = run(capsys, "encode", "(x -> y)", "--prime", "101", "--seed", "ff")
    assert out1 == out2


def test_encode_syntax_error(capsys):
    code, _, err = run(capsys, "encode", "(x ->")
    assert code == 2
    assert "error" in err


def test_encode_rejects_mixed_modes(capsys):
    code, _, err = run(capsys, "encode", "x", "--symbolic", "--seed", "ff")
    assert code == 2


def test_encode_assign_takes_no_seed(capsys, tmp_path):
    assign = tmp_path / "point.assign"
    assign.write_text("prime = 101\nI = 5\nI1 = 7\nI2 = 11\nX = 2\nY = 3\n")
    code, out, err = run(capsys, "encode", "(x -> y)", "--assign", str(assign), "--seed", "ff")
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")


def test_verify_fixture_accepts(capsys):
    code, out, _ = run(capsys, "verify", IMP_REFL, "--seed", SEED_HEX)
    assert code == 0
    assert "verdict=accept" in out
    assert "symbolic verdict=accept" in out  # small file defaults to --mode both


def test_verify_tampered_rejects(capsys):
    code, out, _ = run(capsys, "verify", IMP_REFL, "--seed", SEED_HEX, "--tamper-step", "4")
    assert code == 1
    assert "verdict=reject" in out


def test_verify_missing_file(capsys):
    code, _, err = run(capsys, "verify", "no/such/file.proof", "--seed", SEED_HEX)
    assert code == 2


def test_verify_symbolic_mode_only(capsys):
    code, out, _ = run(capsys, "verify", IMP_REFL, "--mode", "symbolic")
    assert code == 0
    assert out.strip() == "symbolic verdict=accept"


def test_verify_needs_a_point_source(capsys):
    code, _, err = run(capsys, "verify", IMP_REFL, "--mode", "field")
    assert code == 2
    assert "seed" in err


def test_verify_fiat_shamir_deterministic(capsys):
    code1, out1, _ = run(capsys, "verify", IMP_REFL, "--fiat-shamir")
    code2, out2, _ = run(capsys, "verify", IMP_REFL, "--fiat-shamir")
    assert code1 == code2 == 0
    assert out1 == out2


def test_verify_fiat_shamir_binds_every_step(capsys, tmp_path):
    # Same name and goal, one step changed: the point must change, since
    # it is fixed only after every step is written.
    text = load_proof_text("imp_refl")
    changed = text.replace("4 axiom K { alpha = A, beta = A }", "4 axiom K { alpha = A, beta = !A }")
    assert changed != text
    seeds = []
    for n, body in enumerate((text, changed)):
        proof = tmp_path / f"{n}.proof"
        proof.write_text(body)
        _, out, _ = run(capsys, "verify", str(proof), "--fiat-shamir", "--mode", "field")
        seeds += [ln for ln in out.splitlines() if ln.startswith("seed ")]
    assert len(seeds) == 2 and seeds[0] != seeds[1]


def test_verify_strict_and_repeats(capsys):
    code, out, _ = run(
        capsys, "verify", IMP_REFL, "--seed", SEED_HEX, "--repeats", "3", "--strict"
    )
    assert code == 0
    assert "repeats 3" in out
    assert out.count("repeat ") == 3


def test_transcript_parses_back(capsys):
    code, out, _ = run(
        capsys, "verify", IMP_REFL, "--seed", SEED_HEX, "--mode", "field", "--repeats", "2"
    )
    assert code == 0
    lines = out.strip().splitlines()
    header = dict(
        line.split(" ", 1) for line in lines[:6]
    )
    assert header["proof"] == "imp_refl"
    assert header["prime"].isdigit()
    assert header["repeats"] == "2"
    assert header["d-bound"] == "5"
    assert re.fullmatch(r"\d+/\d+", header["epsilon"])
    step_re = re.compile(
        r"step \d+ (axiom|mp|subst) main=\[\d+, \d+, \d+\] helpers=\{(\w+:\[\d+, \d+, \d+\])*\}"
    )
    steps = [ln for ln in lines if ln.startswith("step ")]
    assert len(steps) == 10  # 5 steps x 2 repeats
    assert all(step_re.fullmatch(ln) for ln in steps)
    footer = lines[-1]
    assert re.fullmatch(
        r"alpha1=\[\d+, \d+, \d+\] alpha2=\[\d+, \d+, \d+\] verdict=(accept|reject)", footer
    )


def test_factor_product(capsys, tmp_path):
    # A(X) A(Y) = (XY, X+1, 1)
    mat = tmp_path / "m.json"
    mat.write_text(json.dumps({"a": "X*Y", "b": "X + 1", "d": "1"}))
    code, out, _ = run(capsys, "factor", str(mat))
    assert code == 0
    assert out.strip() == "X Y"


def test_factor_identity(capsys, tmp_path):
    mat = tmp_path / "m.json"
    mat.write_text(json.dumps({"a": "1", "b": "0", "d": "1"}))
    code, out, _ = run(capsys, "factor", str(mat))
    assert code == 0
    assert out.strip() == ""


def test_factor_ignores_zero_exponents(capsys, tmp_path):
    # Y^0 is the constant 1, so the matrix is A(X).
    mat = tmp_path / "m.json"
    mat.write_text(json.dumps({"a": "X", "b": "1", "d": "Y^0"}))
    code, out, _ = run(capsys, "factor", str(mat))
    assert code == 0
    assert out.strip() == "X"


def test_factor_rejects_sum(capsys, tmp_path):
    # A(X) + A(Y) = (X+Y, 2, 2)
    mat = tmp_path / "m.json"
    mat.write_text(json.dumps({"a": "X + Y", "b": "2", "d": "2"}))
    code, _, err = run(capsys, "factor", str(mat))
    assert code == 1
    assert "NotAProduct" in err


def test_factor_long_product(capsys, tmp_path):
    # A(X)^1200, about 9.7 KB: one factor per loop step, not per stack frame.
    mat = tmp_path / "m.json"
    b = " + ".join(f"X^{k}" for k in range(1199, 0, -1)) + " + 1"
    mat.write_text(json.dumps({"a": "X^1200", "b": b, "d": "1"}))
    code, out, _ = run(capsys, "factor", str(mat))
    assert code == 0
    assert out.split() == ["X"] * 1200


def test_factor_non_object_json_is_malformed(capsys, tmp_path):
    mat = tmp_path / "m.json"
    for payload in (5, "abd"):
        mat.write_text(json.dumps(payload))
        code, _, err = run(capsys, "factor", str(mat))
        assert code == 2
        assert err.startswith("error: ")


def test_verify_deep_nesting_never_rejects_by_traceback(capsys, tmp_path):
    # One K axiom whose alpha is 1200 nested negations (about 1.2 KB).
    alpha = "!" * 1200 + "x"
    proof = tmp_path / "deep.proof"
    proof.write_text(
        f'proof "deep1200"\ngoal ({alpha} -> (y -> {alpha}))\n'
        f"1 axiom K {{ alpha = {alpha}, beta = y }}\nqed 1\n"
    )
    code, _, err = run(capsys, "verify", str(proof), "--seed", "01")
    assert code in (0, 2)
    assert "Traceback" not in err


def test_verify_field_depth_costs_no_stack(capsys, tmp_path):
    # The degree bound walks level by level, so field mode reaches the
    # parser's own depth limit.
    alpha = "!" * 900 + "x"
    proof = tmp_path / "deep.proof"
    proof.write_text(
        f'proof "deep900"\ngoal ({alpha} -> (y -> {alpha}))\n'
        f"1 axiom K {{ alpha = {alpha}, beta = y }}\nqed 1\n"
    )
    code, out, err = run(capsys, "verify", str(proof), "--mode", "field", "--seed", "01")
    assert code == 0, err
    assert "verdict=accept" in out


HEALED_SWAP = """proof "healed_swap"
goal (y -> y)
1 axiom K { alpha = x, beta = (x -> y) }
2 axiom S { alpha = x, beta = (x -> x), gamma = x }
3 mp 1 2
4 axiom K { alpha = x, beta = x }
5 mp 4 3
6 subst 5 x with (y)
qed 6
"""


def test_verify_off_path_atom_swap_is_never_accepted(capsys, tmp_path):
    # Wrong mp steps that only the symbolic helper divisions catch: one off
    # the qed path, and one on it (step 3 swaps y for x) whose error the
    # subst at step 6 cancels, so field mode accepts at every point tried.
    # The default mode must not exit 0.
    proof = tmp_path / "swap.proof"
    for text in (atom_swap_text("imp_refl", on_qed_path=False), HEALED_SWAP):
        proof.write_text(text)
        code, out, err = run(capsys, "verify", str(proof), "--seed", "01")
        assert code == 2
        assert "symbolic verdict=reject (malformed step" in out
        assert "disagree" in err


def test_keygen_then_verify(capsys, tmp_path):
    out_file = tmp_path / "point.assign"
    code, _, _ = run(
        capsys, "keygen", IMP_REFL, "--prime", "101", "--seed", "ab", "-o", str(out_file)
    )
    assert code == 0
    text = out_file.read_text()
    assert text.startswith("prime = 101\n")
    assert re.search(r"^I = \d+$", text, re.M)
    code, out, _ = run(capsys, "verify", IMP_REFL, "--assign", str(out_file), "--mode", "field")
    assert code == 0
    assert "verdict=accept" in out
    # keygen emits metavariable values too, so the strict cross-check works
    code, out, _ = run(
        capsys, "verify", IMP_REFL, "--assign", str(out_file), "--mode", "field", "--strict"
    )
    assert code == 0
    assert "verdict=accept" in out


def test_metavariable_values_needed_only_under_strict(capsys, tmp_path):
    point = tmp_path / "point.assign"
    run(capsys, "keygen", IMP_REFL, "--prime", "101", "--seed", "ab", "-o", str(point))
    lines = point.read_text().splitlines()
    kept = [ln for ln in lines if ln.split(" =")[0] not in ("ALPHA", "BETA", "GAMMA")]
    assert len(kept) == len(lines) - 3
    point.write_text("\n".join(kept) + "\n")
    argv = ["verify", IMP_REFL, "--assign", str(point), "--mode", "field"]
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert "verdict=accept" in out
    code, out, err = run(capsys, *argv, "--strict")
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")
    assert "ALPHA" in err


def test_verify_assign_takes_no_seed_flags(capsys, tmp_path):
    point = tmp_path / "point.assign"
    run(capsys, "keygen", IMP_REFL, "--prime", "101", "--seed", "ab", "-o", str(point))
    for extra in (["--repeats", "0"], ["--repeats", "3"], ["--seed", "01"], ["--fiat-shamir"]):
        code, out, err = run(capsys, "verify", IMP_REFL, "--assign", str(point), *extra)
        assert code == 2, extra
        assert out == ""
        assert err.startswith("error: ")


def test_verify_field_squaring_substitution_terminates(capsys, tmp_path):
    # Each subst doubles the formula's depth and squares its leaf count;
    # the formulas share subtrees, and the degree bound walks them shared.
    proof = tmp_path / "dbl4.proof"
    proof.write_text(
        'proof "dbl4"\ngoal (x -> (x -> x))\n1 axiom K { alpha = x, beta = x }\n'
        + "".join(f"{n} subst {n - 1} x step {n - 1}\n" for n in range(2, 6))
        + "qed 5\n"
    )
    code, out, _ = run(capsys, "verify", str(proof), "--mode", "field", "--seed", "01")
    assert code == 1
    assert "d-bound 33" in out
    assert "verdict=reject" in out


def test_verify_symbolic_takes_no_point_flags(capsys, tmp_path):
    point = tmp_path / "point.assign"
    run(capsys, "keygen", IMP_REFL, "--prime", "101", "--seed", "ab", "-o", str(point))
    for extra in (
        ["--seed", "01"],
        ["--assign", str(point)],
        ["--fiat-shamir"],
        ["--repeats", "0"],
        ["--repeats", "3"],
    ):
        code, out, err = run(capsys, "verify", IMP_REFL, "--mode", "symbolic", *extra)
        assert code == 2, extra
        assert out == ""
        assert err.startswith("error: ")


def test_bad_flags_exit_2(capsys):
    assert main(["verify"]) == 2
    assert main(["no-such-command"]) == 2


@pytest.mark.parametrize("argv, ascii_value, ascii_code, digits", [
    (["encode", "x", "--seed", "01", "--prime"], "101", 0, "\u0661\u0660\u0661"),
    (["verify", IMP_REFL, "--mode", "field", "--seed", "01", "--prime"], "101", 0,
     "\u0661\u0660\u0661"),
    (["verify", IMP_REFL, "--mode", "field", "--seed", "01", "--repeats"], "2", 0, "\u0662"),
    (["verify", IMP_REFL, "--mode", "field", "--seed", "01", "--tamper-step"], "1", 1,
     "\uff11"),
    (["keygen", IMP_REFL, "--seed", "ab", "--prime"], "101", 0, "\u0661\u0660\u0661"),
])
def test_integer_flags_take_ascii_digits_only(capsys, argv, ascii_value, ascii_code, digits):
    # int() reads every Unicode decimal digit; the flags, like proof scripts
    # and assignment files, take ASCII digits only.
    assert int(digits) == int(ascii_value)
    assert run(capsys, *argv, ascii_value)[0] == ascii_code
    code, out, err = run(capsys, *argv, digits)
    assert (code, out) == (2, "")
    assert f"error: argument {argv[-1]}: invalid int value: {digits!r}" in err


@pytest.mark.parametrize("exc", [NotDivisible("x"), ZeroInverse("0"), MemoryError("full")])
def test_internal_errors_exit_2(capsys, monkeypatch, exc):
    # Under the console script an escaping exception exits 1, which reads as reject.
    def fail(*args, **kwargs):
        raise exc

    monkeypatch.setattr(cli, "verify", fail)
    code, out, err = run(capsys, "verify", IMP_REFL, "--mode", "field", "--seed", "01")
    assert (code, out, err) == (2, "", f"error: {exc}\n")


def test_parser_is_built_once():
    assert cli.build_parser() is cli.build_parser()


def test_main_calls_in_one_process_keep_their_own_results(capsys):
    # One parser serves every call, so no value may carry over to the next call.
    calls = [
        (["--help"], 0),
        (["verify", IMP_REFL, "--no-such-flag"], 2),
        (["verify", IMP_REFL, "--seed", "01"], 0),
        (["verify", IMP_REFL], 2),
        (["verify", IMP_REFL, "--mode", "symbolic"], 0),
    ]
    first = [run(capsys, *argv) for argv, _ in calls]
    assert [code for code, _, _ in first] == [code for _, code in calls]
    assert first[0][1].startswith("usage: polyproof")
    assert "unrecognized arguments: --no-such-flag" in first[1][2]
    assert "verdict=accept" in first[2][1] and "symbolic verdict=accept" in first[2][1]
    assert first[3] == (2, "", "error: field mode needs --seed, --assign or --fiat-shamir\n")
    assert first[4] == (0, "symbolic verdict=accept\n", "")
    assert [run(capsys, *argv) for argv, _ in reversed(calls)] == first[::-1]


def test_substitution_free_field_run_builds_no_formula(capsys, monkeypatch, tmp_path):
    chain = tmp_path / "chain6.proof"  # six 5-step proofs of (xi -> xi), no substitution
    chain.write_text(benchmark_cases().chain_text(6))
    runs = [(IMP_REFL, "3"), (str(PROOF_DIR / "contrapose_fn.proof"), "1"), (str(chain), "28")]
    argvs = [["verify", path, "--mode", "field", "--seed", "0b", *tamper]
             for path, step in runs for tamper in ([], ["--tamper-step", step])]
    before = [run(capsys, *argv) for argv in argvs]

    def refuse(*args, **kwargs):
        raise AssertionError("a field run without substitution built a formula")

    for owner, name in ((protocol, "step_formulas"), (protocol, "instantiate_axiom"),
                        (logic, "instantiate_axiom"), (logic, "_substitute")):
        monkeypatch.setattr(owner, name, refuse)
    after = [run(capsys, *argv) for argv in argvs]
    assert after == before
    assert [code for code, _, _ in after] == [0, 1] * 3
    assert "d-bound 5\n" in after[0][1]


def test_substituting_field_run_still_replays(capsys, monkeypatch):
    replays = []
    step_formulas = protocol.step_formulas

    def counted(script, **kwargs):
        replays.append(script.name)
        return step_formulas(script, **kwargs)

    monkeypatch.setattr(protocol, "step_formulas", counted)
    code, out, _ = run(capsys, "verify", str(PROOF_DIR / "subst_demo.proof"),
                       "--mode", "field", "--seed", "01")
    assert (code, replays) == (0, ["subst_demo"])
    assert "d-bound 5\n" in out


def test_prime_cache_never_serves_a_wrong_verdict(capsys):
    field = ["verify", IMP_REFL, "--mode", "field", "--seed", "01", "--prime"]
    code, out, _ = run(capsys, *field, "101")
    assert code == 0 and "prime 101\n" in out
    assert run(capsys, *field, "100") == (2, "", "error: modulus 100 is not prime\n")
    assert run(capsys, *field, "101") == (code, out, "")
    composite = str(2**61 + 1)  # 3 * 768614336404564651
    code, out, err = run(capsys, "keygen", IMP_REFL, "--seed", "ab", "--prime", composite)
    assert (code, out, err) == (2, "", f"error: modulus {composite} is not prime\n")


def test_encode_declares_function_symbols_at_their_first_use(capsys):
    for flags in ([], ["--seed", "01"]):
        code, out, err = run(capsys, "encode", "f(x, !y)", *flags)
        assert (code, err) == (0, "")
        assert out.startswith("formula f(x, !y)\n")
    code, out, _ = run(capsys, "encode", "f(x, !y)", "--symbolic")
    assert "encoding A(F) + A(F1)A(X) + A(F2)A(N) + A(F2)A(N1)A(Y)" in out
    assert run(capsys, "encode", "f(x, f(y))") == (
        2, "", "error: 'f' takes 2 arguments, got 1 (at position 5)\n")


def dbl_text(k: int) -> str:
    """K { alpha = x, beta = x } substituted into itself k times."""
    return (
        f'proof "dbl{k}"\ngoal (x -> (x -> x))\n1 axiom K {{ alpha = x, beta = x }}\n'
        + "".join(f"{n} subst {n - 1} x step {n - 1}\n" for n in range(2, k + 2))
        + f"qed {k + 1}\n"
    )


@pytest.mark.parametrize("k, depth", [(5, 65), (8, 513), (12, 8193), (14, 32769)])
def test_verify_field_self_substitution_costs_distinct_nodes(capsys, tmp_path, k, depth):
    # The tree of the last formula has 3^(2^k) leaves but 2^(k+1) + 2
    # distinct nodes, and the syntactic replay builds only those; the
    # degree bound reads the depth each node carries, without a walk.
    proof = tmp_path / "dbl.proof"
    proof.write_text(dbl_text(k))
    start = time.perf_counter()
    code, out, _ = run(capsys, "verify", str(proof), "--mode", "field", "--seed", "01")
    assert time.perf_counter() - start < 2.0
    assert code == 1
    assert f"d-bound {depth}" in out
    assert "verdict=reject" in out


def test_verify_field_wrong_mp_after_self_substitution_terminates(capsys, tmp_path):
    # The degree bound's replay stops at the wrong mp without printing its
    # premises, whose text would run to 3^64 leaves.
    proof = tmp_path / "dbl.proof"
    proof.write_text(dbl_text(5).replace("qed 6\n", "7 mp 6 6\nqed 7\n"))
    code, out, _ = run(capsys, "verify", str(proof), "--mode", "field", "--seed", "01")
    assert code == 1
    assert "d-bound 65" in out


def test_verify_field_mp_over_equal_dags_built_apart(capsys, tmp_path):
    # Steps 7-12 rebuild dbl5, so the mp at step 15 compares two DAGs
    # built apart, whose trees have 3^32 leaves each.
    steps = ["7 axiom K { alpha = x, beta = x }"]
    steps += [f"{n} subst {n - 1} x step {n - 1}" for n in range(8, 13)]
    steps += ["13 axiom K { alpha = y, beta = y }", "14 subst 13 y step 12", "15 mp 6 14"]
    text = dbl_text(5).replace("goal (x -> (x -> x))", "goal (y -> (y -> y))")
    proof = tmp_path / "dbl5twice.proof"
    proof.write_text(text.replace("qed 6\n", "\n".join(steps) + "\nqed 15\n"))
    start = time.perf_counter()
    code, out, _ = run(capsys, "verify", str(proof), "--mode", "field", "--seed", "01")
    assert time.perf_counter() - start < 2
    assert code == 1
    assert "d-bound 67" in out
    assert "verdict=reject" in out


def test_prime_needs_a_field_point(capsys):
    for argv in (
        ["verify", IMP_REFL, "--mode", "symbolic", "--prime", "101"],
        ["encode", "(x -> y)", "--prime", "101"],
        ["encode", "(x -> y)", "--prime", "101", "--symbolic"],
    ):
        code, out, err = run(capsys, *argv)
        assert code == 2, argv
        assert out == ""
        assert err.startswith("error: ")


_fuzz_atom = st.sampled_from(["x", "y", "z"])
_fuzz_formula = st.recursive(
    _fuzz_atom,
    lambda inner: st.one_of(
        inner.map(lambda a: "!" + a),
        st.tuples(inner, inner).map(lambda ab: f"({ab[0]} -> {ab[1]})"),
    ),
    max_leaves=4,
)


@st.composite
def _fuzz_script(draw):
    """A grammar-built script of axiom, mp and subst steps (mostly wrong)."""
    count = draw(st.integers(1, 5))
    lines = ['proof "fuzz"', f"goal {draw(_fuzz_formula)}"]
    for n in range(1, count + 1):
        kind = draw(st.sampled_from(["axiom", "mp", "subst"] if n > 1 else ["axiom"]))
        earlier = st.integers(1, n - 1) if n > 1 else None
        if kind == "axiom":
            scheme = draw(st.sampled_from("KSN"))
            names = ("alpha", "beta", "gamma") if scheme == "S" else ("alpha", "beta")
            binding = ", ".join(f"{mv} = {draw(_fuzz_formula)}" for mv in names)
            lines.append(f"{n} axiom {scheme} {{ {binding} }}")
        elif kind == "mp":
            lines.append(f"{n} mp {draw(earlier)} {draw(earlier)}")
        elif draw(st.booleans()):
            lines.append(f"{n} subst {draw(earlier)} x with ({draw(_fuzz_formula)})")
        else:
            lines.append(f"{n} subst {draw(earlier)} {draw(_fuzz_atom)} step {draw(earlier)}")
    lines.append(f"qed {draw(st.integers(1, count))}")
    return "\n".join(lines) + "\n"


_FIXTURES = ("imp_refl", "subst_demo", "subst_step", "contrapose_fn")


def _edit(draw, text, edits, alphabet="0123456789()!->{},=#\" \nxyzfKSN"):
    """The text after the given number of single-character edits."""
    for _ in range(edits):
        at = draw(st.integers(0, len(text)))
        ch = draw(st.sampled_from(list(alphabet)))
        edit = draw(st.sampled_from(["insert", "delete", "replace"]))
        if edit == "insert":
            text = text[:at] + ch + text[at:]
        else:
            text = text[:at] + (ch if edit == "replace" else "") + text[at + 1:]
    return text


@st.composite
def _fuzz_text(draw):
    """A script or a fixture, with up to three single-character edits."""
    fixture = st.sampled_from(_FIXTURES).map(load_proof_text)
    return _edit(draw, draw(st.one_of(_fuzz_script(), fixture)), draw(st.integers(0, 3)))


@settings(max_examples=300)
@given(_fuzz_text())
def test_parse_errors_on_edited_scripts_name_their_line(text):
    try:
        parse_proof(text)
    except ParseError as exc:
        assert exc.line is not None and "None" not in str(exc), str(exc)


_FUZZ_FLAGS = (
    ["--seed", "01"],
    ["--seed", "01", "--mode", "field", "--strict"],
    ["--mode", "symbolic"],
    ["--seed", "01", "--tamper-step", "2"],
    ["--seed", "01", "--prime", "3"],
    ["--seed", "01", "--prime", "5", "--mode", "field", "--repeats", "2"],
)


@settings(max_examples=100)
@given(_fuzz_text(), st.sampled_from(_FUZZ_FLAGS))
def test_verify_fuzz_exits_by_contract(tmp_path_factory, text, flags):
    proof = tmp_path_factory.mktemp("fuzz") / "f.proof"
    proof.write_text(text)
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = main(["verify", str(proof), *flags])
    assert code in (0, 1, 2)


@settings(max_examples=100)
@given(
    st.data(),
    st.sampled_from((["--symbolic"], ["--seed", "01"], ["--seed", "01", "--prime", "3"])),
)
def test_encode_fuzz_exits_by_contract(data, flags):
    text = _edit(data.draw, data.draw(_fuzz_formula), data.draw(st.integers(0, 3)))
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = main(["encode", text, *flags])
    assert code in (0, 1, 2)


@settings(max_examples=100)
@given(
    st.sampled_from(_FIXTURES),
    st.sampled_from([3, 101, MERSENNE61]),
    st.sampled_from((["--mode", "field"], ["--mode", "field", "--strict"], [])),
    st.data(),
)
def test_verify_assign_fuzz_exits_by_contract(tmp_path_factory, name, prime, flags, data):
    # A keygen file with one line dropped, edited by characters, or given
    # another value.
    point = tmp_path_factory.mktemp("assign") / "point.assign"
    proof = str(PROOF_DIR / f"{name}.proof")
    assert main(["keygen", proof, "--prime", str(prime), "--seed", "ab", "-o", str(point)]) == 0
    lines = point.read_text().splitlines()
    at = data.draw(st.integers(0, len(lines) - 1))
    edit = data.draw(st.sampled_from(["drop", "chars", "value"]))
    if edit == "drop":
        del lines[at]
    elif edit == "chars":
        lines[at] = _edit(data.draw, lines[at], data.draw(st.integers(1, 3)))
    else:
        value = data.draw(st.integers(-1, 1 << 64))
        lines[at] = f"{lines[at].split(' =')[0]} = {value}"
    point.write_text("\n".join(lines) + "\n")
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = main(["verify", proof, "--assign", str(point), *flags])
    assert code in (0, 1, 2)


@settings(max_examples=100)
@given(st.lists(st.integers(0, 2), max_size=6), st.sampled_from("abd"), st.data())
def test_factor_fuzz_exits_by_contract(tmp_path_factory, seq, key, data):
    # A product of A(X), A(Y), A(Z) with one entry's text edited.
    m = product_of(seq, SymbolicRing())
    entries = {k: getattr(m, k).render({0: "X", 1: "Y", 2: "Z"}) for k in "abd"}
    edits = data.draw(st.integers(1, 3))
    entries[key] = _edit(data.draw, entries[key], edits, "XYZ_0123456789+-*^ $")
    mat = tmp_path_factory.mktemp("factor") / "m.json"
    mat.write_text(json.dumps(entries))
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(["factor", str(mat)])
    assert code in (0, 1, 2)
    assert code == 0 or err.getvalue().startswith(("NotAProduct: ", "error: "))


def output_digest(*runs):
    """sha256 over the exit code and stdout of each cli run, in order."""
    digest = hashlib.sha256()
    for argv in runs:
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = main(list(argv))
        digest.update(f"{code}\n{out.getvalue()}".encode())
    return digest.hexdigest()


def fixture_verify_runs(name, prime, repeats):
    """Default-mode verify of a fixture, untampered and at every --tamper-step."""
    path = str(PROOF_DIR / f"{name}.proof")
    steps = len(parse_proof(load_proof_text(name)).steps)
    flags = ["--seed", "a1", "--prime", str(prime), "--repeats", str(repeats)]
    return [["verify", path, *flags, *tamper]
            for tamper in [[]] + [["--tamper-step", str(k)] for k in range(1, steps + 1)]]


# Digests of the output before field entries became plain ints: transcripts
# and encodings must stay byte-identical across such representation changes.
VERIFY_DIGESTS = {
    ("imp_refl", 101, 1):
        "486ad4d0feed552251cda2527861fde2a5a5e0c2c32176d64577ea98e70989a5",
    ("imp_refl", 101, 3):
        "8277ad6033665905e6a6c17cc1f95f52979fa81b2d1c583e72c0a9479610ee0c",
    ("imp_refl", MERSENNE61, 1):
        "9e2cdbc7451b2fe1c84f0a29e539e5ce990ee83ad5eb1ccc6d4729239aa520cc",
    ("imp_refl", MERSENNE61, 3):
        "7c6091dfb395953c28ee5f75a84b59d19e574d99e52e917a906170ce48a2d7ab",
    ("subst_demo", 101, 1):
        "9d5d088a6f39cc8ad702a409d171bdd7a76038958e2d4fe34c173234d51791ce",
    ("subst_demo", 101, 3):
        "d3e672750917cd84b76ecf87e3d4f455246610f47ef87e91ba18e4e53c064c21",
    ("subst_demo", MERSENNE61, 1):
        "35f9533955e351244f8e613e8df6186223ea302bcdf0030f1e11bf3c9e8e60a8",
    ("subst_demo", MERSENNE61, 3):
        "f2e5226eca31813a36ee8659d211f38e57bfc299e41407adbf6f130f6385d29c",
    ("subst_step", 101, 1):
        "8cc581d2e60eb2ab59af51a8a2b2b37815e00e5e6b3c13ec4c05b7dc65a6991f",
    ("subst_step", 101, 3):
        "97a62c21c602e089bfdc0fbcc7ca7c13333058f2758491cc4eab3360b9000164",
    ("subst_step", MERSENNE61, 1):
        "4d25892431134df10db552cf02ff7f8a2fef745de6c58207830c1c6838c1ede7",
    ("subst_step", MERSENNE61, 3):
        "fc0adf1832ee7f50546725a46cc318312a97b990eb5bd6b87a1c5d89fc8b99b6",
    ("contrapose_fn", 101, 1):
        "9cd68433869e12de93280f3f527c8da2a21b391743a91fa5c104ee7c61ed46cd",
    ("contrapose_fn", 101, 3):
        "bd664ee942f5718168d7c8a2eca29b1df9b6be8a6ccada0e932b2447c891ff4e",
    ("contrapose_fn", MERSENNE61, 1):
        "ff40051f6e019b5a2538cd3a719e0e81b3cc9832a800a92f5952617c036db117",
    ("contrapose_fn", MERSENNE61, 3):
        "a7752ff196e7bd35590bfdd4559c01782695597f5865fe873fd46f0b2ea4bcec",
}
ENCODE_DIGESTS = {
    "((x -> y) -> (x -> z))": "34283df10da740126089b966c6dafc835647a31fa658292f0dc479a6f5ef41b3",
    "!!(x -> !y)": "bd4f2da6396b1cf149c53b5dbbf212e5db24195cbe6fee0b3c0de7e6f5fb198c",
    "(((x -> y) -> z) -> !(y -> x))":
        "51c6ab05fe7cc8813f528d6f4a3eb4723e9074ea883cb687cc352d0856d54e2e",
}


@pytest.mark.parametrize("name, prime, repeats", sorted(VERIFY_DIGESTS))
def test_verify_output_matches_recorded_digest(name, prime, repeats):
    runs = fixture_verify_runs(name, prime, repeats)
    assert output_digest(*runs) == VERIFY_DIGESTS[name, prime, repeats]


@pytest.mark.parametrize("formula", sorted(ENCODE_DIGESTS))
def test_encode_output_matches_recorded_digest(formula):
    assert output_digest(["encode", formula, "--seed", "01"]) == ENCODE_DIGESTS[formula]
