"""Output-equivalence sweep: the CLI's exit code, stdout and stderr over named
groups of runs, one SHA-256 per group, kept in ``tests/sweep.json``.

A refactor that must not change what the program prints records the sweep
before the change and checks it after:

    python tests/sweep.py --record            # every group, into sweep.json
    python tests/sweep.py --check             # exit 1 if any group differs
    python tests/sweep.py --check --group encode --group keygen
    python tests/sweep.py --show fixture-imp_refl   # the runs as text, to diff two checkouts
    python tests/sweep.py --verdicts --group swaps  # field against symbolic verdicts

Each run goes through ``cli.main`` in this process.  Proof texts are written
to a temporary directory, whose path is replaced by ``$DIR`` in every
argument and output.  ``tests/test_sweep.py`` checks the groups in ``SLICE``.

``--verdicts`` runs each distinct proof of a group's verify runs (its file
and ``--tamper-step``; the run's mode and point options dropped) once with
``--mode field --seed`` the sweep's seed and once with ``--mode symbolic``.
It prints how many agree per group and each run whose two exit codes
differ, and exits 1 if any differ.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from polyproof.cli import main  # noqa: E402
from tests.conftest import PROOF_DIR, atom_swap_text, benchmark_cases  # noqa: E402
from tests.test_cli import HEALED_SWAP  # noqa: E402

RECORD = Path(__file__).resolve().parent / "sweep.json"
FIXTURES = ("contrapose_fn", "imp_refl", "subst_demo", "subst_step")
SEED = "01" * 32
MODES = (["--seed", SEED], ["--mode", "field", "--prime", "101", "--seed", SEED],
         ["--mode", "symbolic"])
SKIPPED = ("dbl4", "deep1200")  # seconds per run; their cost is the benchmark's business
ENCODE_FORMULAS = (
    "x", "!x", "(x -> y)", "((x -> y) -> (x -> z))", "((x -> x) -> (y -> x))",
    "((x -> y) -> (x -> x))", "!(x -> !y)", "(!!x -> (y -> !z))",
    "f(x, g(y))", "(f(x, y) -> !f(y, x))", "!" * 40 + "x",
    "((((x -> y) -> (z -> x)) -> ((y -> z) -> (x -> y))) -> (x -> y))", "(x ->", "x y",
)
SLICE = ("exact-1", *(f"fixture-{n}" for n in FIXTURES), "swaps", "assign", "encode", "keygen",
         "usage", "repeats", "digit-limit")


def _workload_runs(workload: str, seed: int):
    cases = benchmark_cases()
    manifest = json.loads((ROOT / "perfbench" / "manifest.json").read_text("utf-8"))
    for case in cases.build(workload, manifest["workloads"][workload], seed, ROOT):
        if case.name.split("-")[1] in SKIPPED:
            continue
        path = f"$DIR/{case.name}.proof"
        yield {case.name: case.text}, case.argv(path)
        yield {case.name: case.text}, ["verify", path, "--mode", "symbolic"]


def _fixture_runs(name: str):
    text = (PROOF_DIR / f"{name}.proof").read_text("utf-8")
    steps = sum(line.split(" ", 1)[0].isdigit() for line in text.splitlines())
    path = f"$DIR/{name}.proof"
    for tamper in [None, *range(1, steps + 2)]:  # steps + 1 is out of range
        for mode in MODES:
            argv = ["verify", path, *mode]
            if tamper is not None:
                argv += ["--tamper-step", str(tamper)]
            yield {name: text}, argv


def _swap_runs():
    """Wrong mp steps over an atom swap, on and off the qed path, and one healed."""
    texts = {f"{name}-{on}": atom_swap_text(name, on) for name in FIXTURES for on in (0, 1)}
    for stem, text in [*texts.items(), ("healed_swap", HEALED_SWAP)]:
        for mode in MODES:
            yield {stem: text}, ["verify", f"$DIR/{stem}.proof", *mode]


def _assign_runs():
    """keygen's assignment files under verify --assign, whole and with each line dropped."""
    for name in FIXTURES:
        proof = (PROOF_DIR / f"{name}.proof").read_text("utf-8")
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            main(["keygen", str(PROOF_DIR / f"{name}.proof"), "--prime", "101", "--seed", "ab"])
        lines = stdout.getvalue().splitlines(keepends=True)
        for drop in [None, *range(len(lines))]:
            point = "".join(line for k, line in enumerate(lines) if k != drop)
            yield {name: proof, "point": point}, [
                "verify", f"$DIR/{name}.proof", "--assign", "$DIR/point.proof"]


def _usage_runs():
    """Options that do not go together, bad inputs and an over-long number.  (argparse's
    own errors are left out: it wraps their usage line to the terminal's width.)"""
    text = (PROOF_DIR / "imp_refl.proof").read_text("utf-8")
    files = {"imp_refl": text, "long": text.replace("qed 5", "qed " + "5" * 5000),
             "matrix": '{"a": "X*Y", "b": "X + 1"}'}
    path = "$DIR/imp_refl.proof"
    for argv in (["verify", path], ["verify", path, "--mode", "symbolic", "--seed", "01"],
                 ["verify", path, "--seed", "01", "--prime", "100"],
                 ["verify", "$DIR/missing.proof", "--seed", "01"],
                 ["verify", "$DIR/long.proof", "--seed", "01"], ["encode", "x", "--prime", "7"],
                 ["factor", "$DIR/matrix.proof"]):
        yield files, argv


def _encode_runs():
    for formula in ENCODE_FORMULAS:
        for extra in ([], ["--seed", SEED], ["--prime", "101", "--seed", "ff"]):
            yield {}, ["encode", formula, *extra]


def _keygen_runs():
    for name in FIXTURES:
        text = (PROOF_DIR / f"{name}.proof").read_text("utf-8")
        for extra in (["--seed", SEED], ["--seed", "ff" * 32, "--prime", "101"]):
            yield {name: text}, ["keygen", f"$DIR/{name}.proof", *extra]


def _repeats_runs():
    for name in ("imp_refl", "subst_demo"):
        text = (PROOF_DIR / f"{name}.proof").read_text("utf-8")
        for extra in (["--repeats", "2"], ["--repeats", "200"],
                      ["--repeats", "240", "--prime", "101"], ["--repeats", "3"]):
            yield {name: text}, ["verify", f"$DIR/{name}.proof", "--mode", "field",
                                 "--seed", SEED, *extra]


def _digit_limit_runs():
    """Numbers past the 4300 digits int() converts to and from text: the epsilon
    of 240 repeats at M61, and a name X<k> whose k has 5000 digits."""
    text = (PROOF_DIR / "imp_refl.proof").read_text("utf-8")
    yield {"imp_refl": text}, ["verify", "$DIR/imp_refl.proof", "--mode", "field",
                               "--seed", "01", "--repeats", "240"]
    yield {"matrix": json.dumps({"a": "X" + "1" * 5000, "b": "1", "d": "1"})}, [
        "factor", "$DIR/matrix.proof"]


def _product_matrix(names) -> str:
    """The JSON matrix of A(names[0]) ... A(names[-1]), each name's A its elementary
    matrix [[x, 1], [0, 1]]: a = x_1 ... x_n, b = 1 + x_1 + x_1 x_2 + ... + x_1 ... x_n-1."""
    prefixes = ["*".join(names[:k]) or "1" for k in range(len(names) + 1)]
    return json.dumps({"a": prefixes[-1], "b": " + ".join(prefixes[:-1]), "d": "1"})


def _symbolic_text_runs():
    """The exact kernel's text faces: factor on products and non-products, symbolic
    encodings over many variables, a symbolic verdict naming a variable, and an
    exponent of 2^31."""
    names = [f"v{k}" for k in range(30)]
    matrices = {
        "distinct": _product_matrix(names),
        "shuffled": _product_matrix(names[7:] + names[:7] + names[3:9]),
        "power": json.dumps({"a": "X^1200", "b": " + ".join(
            ["1", "X", *(f"X^{k}" for k in range(2, 1200))]), "d": "1"}),
        "identity": json.dumps({"a": "1", "b": "0", "d": "1"}),
        "zero_exponents": json.dumps({"a": "Y^0*X*Z^0*Y", "b": "1 + X*Y^0", "d": "Z^0"}),
        "sum": json.dumps({"a": "X + Y", "b": "1", "d": "1"}),
        "exponent_2_31": json.dumps({"a": "X^2147483648", "b": "1", "d": "1"}),
    }
    for stem, text in matrices.items():
        yield {stem: text}, ["factor", f"$DIR/{stem}.proof"]
    for formula in ("(h(a, b, c) -> k(a, b, c, d))",
                    "!f(g(x, y, z, w), g(w, z, y, x), x, h(x, y, z))",
                    "(p(q(a, b, c), b, c) -> !q(p(a, b, c), c, p(c, b, a)))"):
        yield {}, ["encode", formula]
    cases = benchmark_cases()
    for stem, text in (("chain13", cases.chain_text(13)), ("chain3_bad5", cases.chain_text(3, bad=5))):
        yield {stem: text}, ["verify", f"$DIR/{stem}.proof", "--mode", "symbolic"]


GROUPS = {
    **{f"{w}-{s}": (lambda w=w, s=s: _workload_runs(w, s))
       for w in ("steps", "growth", "exact") for s in (1, 2)},
    **{f"fixture-{n}": (lambda n=n: _fixture_runs(n)) for n in FIXTURES},
    "swaps": _swap_runs,
    "assign": _assign_runs,
    "encode": _encode_runs,
    "keygen": _keygen_runs,
    "usage": _usage_runs,
    "repeats": _repeats_runs,
    "digit-limit": _digit_limit_runs,
    "symbolic-text": _symbolic_text_runs,
}


def run_group(name: str):
    """[argv, exit code, stdout, stderr] per run of the group, paths as ``$DIR``."""
    return run_all(GROUPS[name]())


# A verify run's options that pick its mode or its point, with how many values each takes.
POINT_OPTIONS = {"--mode": 1, "--seed": 1, "--prime": 1, "--assign": 1, "--repeats": 1,
                 "--fiat-shamir": 0}
VERDICT_MODES = (["--mode", "field", "--seed", SEED], ["--mode", "symbolic"])


def verdicts(name: str):
    """[argv, field exit code, symbolic exit code] per distinct proof of the
    group's verify runs, argv without the mode and point options."""
    proofs = {}
    for files, argv in GROUPS[name]():
        if argv[0] != "verify":
            continue
        kept, rest = [], iter(argv)
        for arg in rest:
            if arg in POINT_OPTIONS:
                for _ in range(POINT_OPTIONS[arg]):
                    next(rest)
            else:
                kept.append(arg)
        stem = Path(argv[1]).stem
        files = {stem: files[stem]} if stem in files else {}
        proofs.setdefault(json.dumps([files, kept]), (files, kept))
    runs = [(files, argv + mode) for files, argv in proofs.values() for mode in VERDICT_MODES]
    codes = [code for _, code, _, _ in run_all(runs)]
    return [[argv, *codes[2 * i:2 * i + 2]] for i, (_, argv) in enumerate(proofs.values())]


def run_all(runs):
    """[argv, exit code, stdout, stderr] per (files, argv) run, paths as ``$DIR``."""
    out = []
    with tempfile.TemporaryDirectory() as tmp:
        for files, argv in runs:
            for stem, text in files.items():
                Path(tmp, f"{stem}.proof").write_text(text, encoding="utf-8")
            stdout, stderr = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                code = main([arg.replace("$DIR", tmp) for arg in argv])
            texts = [s.getvalue().replace(tmp, "$DIR") for s in (stdout, stderr)]
            out.append([argv, code, *texts])
    return out


def digest(runs) -> str:
    return hashlib.sha256(json.dumps(runs).encode()).hexdigest()


def recorded() -> dict:
    return json.loads(RECORD.read_text("utf-8"))


def cli(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    act = ap.add_mutually_exclusive_group(required=True)
    act.add_argument("--record", action="store_true", help="write the groups' digests")
    act.add_argument("--check", action="store_true", help="compare against sweep.json")
    act.add_argument("--show", metavar="GROUP", choices=sorted(GROUPS),
                     help="print one group's runs")
    act.add_argument("--verdicts", action="store_true",
                     help="compare field and symbolic verdicts")
    ap.add_argument("--group", action="append", choices=sorted(GROUPS),
                    help="limit --record, --check or --verdicts to this group (repeatable)")
    args = ap.parse_args(argv)
    if args.show:
        for argv_, code, stdout, stderr in run_group(args.show):
            print(f"$ polyproof {' '.join(argv_)}\nexit {code}\n{stdout}--- stderr\n{stderr}")
        return 0
    names = args.group or list(GROUPS)
    if args.verdicts:
        differ = 0
        for name in names:
            rows = verdicts(name)
            wrong = [row for row in rows if row[1] != row[2]]
            differ += len(wrong)
            print(f"{name}: {len(rows) - len(wrong)} of {len(rows)} agree")
            for argv_, field, symbolic in wrong:
                print(f"  field exit {field}, symbolic exit {symbolic}: {' '.join(argv_)}")
        return 1 if differ else 0
    digests = {}
    for name in names:
        start = time.perf_counter()
        runs = run_group(name)
        digests[name] = digest(runs)
        print(f"{name}: {len(runs)} runs in {time.perf_counter() - start:.2f} s",
              file=sys.stderr)
    if args.record:
        record = recorded() if RECORD.exists() else {}
        record.update(digests)
        RECORD.write_text(json.dumps(dict(sorted(record.items())), indent=1) + "\n", "utf-8")
        return 0
    want = recorded()
    differ = [name for name in names if want.get(name) != digests[name]]
    for name in differ:
        print(f"DIFFERS: {name}", file=sys.stderr)
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(cli())
