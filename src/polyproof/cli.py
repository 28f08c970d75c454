"""Command line front end.

Exit codes: 0 accept, 1 reject, 2 malformed input or internal error.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import sys
from itertools import groupby

from .encmat import EncMatrix, NotAProduct, SymbolicRing, factor_elementary_product
from .ffield import MERSENNE61, PrimeField
from .fingerprint import VarAllocation, encode_fingerprint
from .logic import (
    Formula,
    MPStep,
    ParseError,
    ProofScript,
    Signature,
    SubstStep,
    neg,
    parse_formula,
    parse_proof,
)
from .mpoly import MissingAssignment, MonomialOverflow, MPoly
from .protocol import Assignment, prove, verify, verify_symbolic

SYMBOLIC_SIZE_LIMIT = 10 * 1024  # above this, default verify mode drops to field-only


def _parse_seed(text: str) -> bytes:
    raw = bytes.fromhex(text)
    if len(raw) > 32:
        raise ValueError("seed longer than 32 bytes")
    return raw.rjust(32, b"\x00")


def _ascii_int(text: str) -> int:
    """An integer option in ASCII digits, as proof scripts and assignment files take."""
    if not (text.isascii() and text.isdigit()):
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
    return int(text)


def _fiat_shamir_seed(proof: bytes, prime: int) -> bytes:
    return hashlib.sha256(proof + f"\n{prime}".encode()).digest()


def _load_assignment(args, alloc: VarAllocation) -> Assignment:
    with open(args.assign, encoding="utf-8") as fh:
        assignment = Assignment.from_file_text(fh.read(), alloc, label=args.assign)
    if args.prime is not None and args.prime != assignment.field.p:
        raise ValueError("--prime disagrees with the assignment file")
    return assignment


def _path_products(f: Formula, alloc: VarAllocation):
    """Preorder list of (edge-variable path, vertex variable) per node."""
    out, stack = [], [(f, ())]
    while stack:
        node, path = stack.pop()
        out.append((path, alloc.vid(node.root, 0)))
        for slot in range(len(node.children), 0, -1):
            stack.append((node.children[slot - 1], path + (alloc.vid(node.root, slot),)))
    return out


def _product_str(vids, alloc) -> str:
    runs = [(alloc.display(v), len(list(run))) for v, run in groupby(vids)]
    return "".join(f"A({name})" + (f"^{n}" if n > 1 else "") for name, n in runs) or "1"


def cmd_encode(args) -> int:
    sig = Signature(declares_functions=True)
    formula = parse_formula(args.formula, sig)
    alloc = VarAllocation(sig)
    tracked = sig.atoms()

    field_mode = args.assign is not None or args.seed is not None
    if args.prime is not None and not field_mode:
        raise ValueError("--prime sets the field of a point: add --seed or --assign")

    if not field_mode:
        ring = SymbolicRing()
        fp = encode_fingerprint(formula, alloc, ring, tracked)
        names = alloc.display_names()
        print(f"formula {formula}")
        paths = _path_products(formula, alloc)
        expansion = " + ".join(_product_str(path + (v,), alloc) for path, v in paths)
        print(f"encoding {expansion}")
        for t in tracked:
            leaf_paths = [path for path, v in paths if v == alloc.vid(t, 0)]
            helper = " + ".join(_product_str(p, alloc) for p in leaf_paths) or "0"
            print(f"helper {t} = {helper}")
        print("entries:")
        print(f"  a = {fp.main.a.render(names)}")
        print(f"  b = {fp.main.b.render(names)}")
        print(f"  d = {fp.main.d.render(names)}")
        for t in tracked:
            h = fp.helpers[t]
            print(
                f"  helper {t} = [{h.a.render(names)}; {h.b.render(names)}; {h.d.render(names)}]"
            )
        return 0

    if args.assign is not None:
        if args.seed is not None:
            raise ValueError("--assign fixes one point: drop --seed")
        assignment = _load_assignment(args, alloc)
    else:
        field = PrimeField(args.prime if args.prime is not None else MERSENNE61)
        assignment = Assignment.from_seed(_parse_seed(args.seed), field, alloc)
    try:
        fp = encode_fingerprint(formula, alloc, assignment.ring(), tracked)
    except MissingAssignment as exc:
        raise MissingAssignment(alloc.display(exc.var)) from None
    print(f"formula {formula}")
    print(f"prime {assignment.field.p}")
    print(f"main={fp.main}")
    helpers = ", ".join(f"{t}:{fp.helpers[t]}" for t in tracked)
    print(f"helpers={{{helpers}}}")
    return 0


def _tamper(script: ProofScript, step_no: int) -> ProofScript:
    """Test hook: corrupt one step in a structure-preserving way."""
    if not 1 <= step_no <= len(script.steps):
        raise ValueError(f"--tamper-step {step_no} out of range")
    step = script.steps[step_no - 1]
    if hasattr(step, "binding"):
        mv = sorted(step.binding)[0]
        binding = dict(step.binding)
        binding[mv] = neg(binding[mv])
        new = step._replace(binding=binding)
    elif isinstance(step, MPStep):
        new = MPStep(step.imp, step.hyp)
    elif isinstance(step, SubstStep) and step.replacement is not None:
        new = step._replace(replacement=neg(step.replacement))
    else:
        new = step._replace(source=step.replacement_step, replacement_step=step.source)
    steps = list(script.steps)
    steps[step_no - 1] = new
    return script._replace(steps=tuple(steps))


def cmd_verify(args) -> int:
    with open(args.proof, encoding="utf-8") as fh:
        text = fh.read()
    script = parse_proof(text)
    if args.tamper_step is not None:
        script = _tamper(script, args.tamper_step)

    mode = args.mode
    if mode is None:
        mode = "both" if len(text.encode()) < SYMBOLIC_SIZE_LIMIT else "field"
    point_flags = args.seed is not None or args.fiat_shamir or args.repeats != 1
    if mode == "symbolic" and (point_flags or args.assign is not None or args.prime is not None):
        raise ValueError(
            "--mode symbolic takes no --seed, --assign, --prime, --fiat-shamir, --repeats"
        )

    symbolic_report = None
    if mode in ("symbolic", "both"):
        try:
            symbolic_report = verify_symbolic(script)
        except MonomialOverflow:
            if args.mode is not None:
                raise
            mode = "field"  # past the symbolic budget the default mode checks in the field

    transcript = None
    if mode in ("field", "both"):
        if args.assign is not None:
            if point_flags:
                raise ValueError("--assign fixes one point: drop --seed, --fiat-shamir, --repeats")
            assignment = _load_assignment(args, VarAllocation(script.signature))
            transcript = prove(script, assignment)
        else:
            field = PrimeField(args.prime if args.prime is not None else MERSENNE61)
            if args.fiat_shamir:
                seed = _fiat_shamir_seed(text.encode(), field.p)
            elif args.seed is not None:
                seed = _parse_seed(args.seed)
            else:
                raise ValueError("field mode needs --seed, --assign or --fiat-shamir")
            transcript = verify(script, seed, args.repeats, field)

    if transcript is not None:
        sys.stdout.write(transcript.render())
    if symbolic_report is not None:
        line = f"symbolic verdict={symbolic_report.verdict}"
        if symbolic_report.failure:
            line += f" ({symbolic_report.failure})"
        print(line)

    if mode == "both" and transcript.verdict != symbolic_report.verdict:
        print("internal error: field and symbolic verdicts disagree", file=sys.stderr)
        return 2
    final = transcript.verdict if transcript is not None else symbolic_report.verdict
    return 0 if final == "accept" else 1


def cmd_factor(args) -> int:
    import json  # only factor reads JSON; json.JSONDecodeError is a ValueError

    if args.matrix == "-":
        data = json.load(sys.stdin)
    else:
        with open(args.matrix, encoding="utf-8") as fh:
            data = json.load(fh)
    if not isinstance(data, dict):
        raise ValueError("matrix JSON must be an object with entries a, b, d")
    names: dict = {}
    entries = {}
    for key in ("a", "b", "d"):
        if key not in data:
            raise ValueError(f"matrix JSON lacks entry {key!r}")
        entries[key] = MPoly.parse(str(data[key]), names)
    matrix = EncMatrix(entries["a"], entries["b"], entries["d"])
    by_vid = {vid: name for name, vid in names.items()}
    try:
        sequence = factor_elementary_product(matrix)
    except NotAProduct as exc:
        print(f"NotAProduct: {exc}", file=sys.stderr)
        return 1
    print(" ".join(by_vid[v] for v in sequence))
    return 0


def cmd_keygen(args) -> int:
    with open(args.proof, encoding="utf-8") as fh:
        script = parse_proof(fh.read())
    field = PrimeField(args.prime)
    alloc = VarAllocation(script.signature)
    assignment = Assignment.from_seed(_parse_seed(args.seed), field, alloc)
    text = assignment.render(alloc)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


@functools.lru_cache(maxsize=None)  # built on first use, then reused by every main call
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="polyproof",
        description="Encode formulas as polynomial matrices and verify proof scripts"
        " probabilistically.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    enc = sub.add_parser("encode", help="fingerprint a formula: exact polynomials, or values"
                                        " at the point of --seed or --assign")
    enc.add_argument("formula")
    enc.add_argument("--prime", type=_ascii_int, default=None)
    enc.add_argument("--seed", help="hex seed, up to 32 bytes, left-padded")
    enc.add_argument("--assign", help="assignment file path")
    enc.set_defaults(func=cmd_encode)

    ver = sub.add_parser("verify", help="verify a proof script")
    ver.add_argument("proof")
    ver.add_argument("--prime", type=_ascii_int, default=None,
                     help=f"field modulus (default {MERSENNE61})")
    ver.add_argument("--seed", help="hex seed, up to 32 bytes, left-padded")
    ver.add_argument("--assign", help="assignment file path")
    ver.add_argument("--repeats", type=_ascii_int, default=1)
    ver.add_argument("--mode", choices=("field", "symbolic", "both"), default=None)
    ver.add_argument("--fiat-shamir", action="store_true",
                     help="derive the seed from the proof text and the prime (no "
                          "non-interactive security claim)")
    ver.add_argument("--tamper-step", type=_ascii_int, default=None,
                     help="test hook: corrupt the given step before verifying")
    ver.set_defaults(func=cmd_verify)

    fac = sub.add_parser("factor", help="factor a symbolic elementary product")
    fac.add_argument("matrix", help="JSON file with polynomial entries a, b, d ('-' for stdin)")
    fac.set_defaults(func=cmd_factor)

    key = sub.add_parser("keygen", help="emit a random assignment file for a proof")
    key.add_argument("proof")
    key.add_argument("--prime", type=_ascii_int, default=MERSENNE61)
    key.add_argument("--seed", required=True, help="hex seed, up to 32 bytes, left-padded")
    key.add_argument("-o", "--out", default=None)
    key.set_defaults(func=cmd_keygen)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    try:
        return args.func(args)
    except (ParseError, ValueError, OSError, RecursionError, MemoryError,
            ArithmeticError) as exc:  # ArithmeticError: NotDivisible, ZeroInverse
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
