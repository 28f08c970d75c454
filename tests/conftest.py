import copy
import importlib.util
import random
import sys
from pathlib import Path

import pytest
from hypothesis import settings

from polyproof.encmat import EncMatrix, FieldRing
from polyproof.fingerprint import encode_fingerprint, hom_subst
from polyproof.logic import (
    METAVARIABLES, Formula, Signature, atom, imp, neg, parse_proof, step_formulas,
)
from polyproof.mpoly import MissingAssignment

settings.register_profile("suite", deadline=None)
settings.load_profile("suite")

PROOF_DIR = Path(__file__).resolve().parent.parent / "proofs"

SEED0 = bytes(32)
SEED1 = bytes(31) + b"\x01"


def load_proof_text(name: str) -> str:
    return (PROOF_DIR / f"{name}.proof").read_text()


def _benchmark_module(stem: str):
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{stem}", PROOF_DIR.parent / "perfbench" / f"{stem}.py")
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)  # for dataclasses
    spec.loader.exec_module(module)
    return module


def benchmark_cases():
    """The benchmark's proof-script generators, ``perfbench/cases.py``."""
    return _benchmark_module("cases")


def benchmark_layers():
    """The benchmark's layer trace, ``perfbench/layers.py``."""
    return _benchmark_module("layers")


# -- reference oracles: the package never evaluates a polynomial, multiplies
# elementary matrices or substitutes into an axiom's template, so the tests
# keep these to check it against.

def poly_eval(poly, assignment, field):
    """The polynomial's value at the point ``assignment`` ({var: FieldElem})."""
    p = field.p
    total = 0
    for m, c in poly.terms().items():
        acc = c % p
        for v, e in m:
            if v not in assignment:
                raise MissingAssignment(v)
            acc = acc * pow(assignment[v].value, e, p) % p
        total = (total + acc) % p
    return field.elem(total)


def matrix_eval(m: EncMatrix, assignment, field) -> EncMatrix:
    """A symbolic matrix evaluated entrywise at the point, as ints in [0, p)."""
    return EncMatrix(*(poly_eval(e, assignment, field).value for e in m))


def with_metavariables(alloc):
    """A copy of the allocation with one more slot per axiom metavariable,
    which the package gives none (no run evaluates one), so that a test can
    encode a formula with ``alpha``, ``beta`` or ``gamma`` leaves."""
    alloc = copy.copy(alloc)
    alloc.slots, alloc._display = dict(alloc.slots), list(alloc._display)
    for mv in METAVARIABLES:
        alloc.slots[mv] = (alloc.size,)
        alloc._display.append(mv.upper())
    return alloc


def axiom_fingerprint_via_template(scheme, binding, alloc, ring, tracked):
    """An axiom's fingerprint from its template's: the template encoded over
    its metavariables, then each binding, encoded over the tracked atoms,
    substituted with hom_subst.  It must equal the package's template walk
    with the binding.  The metavariables get their own variables here; over
    the field any value does, because hom_subst cancels x_mv exactly."""
    alloc = with_metavariables(alloc)
    if isinstance(ring, FieldRing):
        ring = copy.copy(ring)
        ring.values = {**ring.values, **{alloc.vid(mv): 1 for mv in METAVARIABLES}}
    fp = encode_fingerprint(scheme.template, alloc, ring, scheme.metavars)
    for mv in scheme.metavars:
        repl = encode_fingerprint(binding[mv], alloc, ring, tracked)
        fp = hom_subst(fp, mv, repl, alloc, ring)
    return fp


def poly_degree(poly) -> int:
    """Total degree; -1 for the zero polynomial."""
    return max((sum(e for _, e in m) for m in poly.terms()), default=-1)


def elem(v, ring) -> EncMatrix:
    """The elementary matrix A(v) = [[x_v, 1], [0, 1]] over the given ring."""
    return EncMatrix(ring.var(v), ring.one(), ring.one())


def identity(ring) -> EncMatrix:
    return EncMatrix(ring.one(), ring.zero(), ring.one())


def product_of(vars_seq, ring) -> EncMatrix:
    """A(v1) A(v2) ... A(vn); the identity for the empty sequence."""
    result = identity(ring)
    for v in vars_seq:
        result = result * elem(v, ring)
    return result


def degree_bound(*formulas: Formula) -> int:
    """Nodes on the longest root-to-leaf path of the formulas, which bounds every
    entry degree: the largest depth the formulas carry, read without a walk."""
    return max((f.depth for f in formulas), default=0)


def node_count(f: Formula) -> int:
    return 1 + sum(node_count(c) for c in f.children)


def occurrences(f: Formula, name: str) -> int:
    if not f.children:
        return 1 if f.root == name else 0
    return sum(occurrences(c, name) for c in f.children)


def _rename_last_leaf(f: Formula, name: str) -> Formula:
    if not f.children:
        return atom(name)
    return Formula(f.root, f.children[:-1] + (_rename_last_leaf(f.children[-1], name),))


def atom_swap_text(name: str, on_qed_path: bool) -> str:
    """A fixture plus one wrong mp step whose premises differ by an atom swap.

    With F the qed formula and F' the same formula with its last leaf
    renamed to the fresh atom z, appends `K { alpha = F', beta = F }` and
    an mp from the qed step onto it.  F and F' have the same node count and
    differ inside the right branch, so the main matrix divides exactly and
    only the helpers of the swapped atoms can fail.  on_qed_path moves the
    goal and the qed to that mp's conclusion (F -> F').
    """
    text = load_proof_text(name)
    script = parse_proof(text)
    f = step_formulas(script)[script.qed - 1]
    swapped = _rename_last_leaf(f, "z")
    n = len(script.steps)
    goal = f"({f} -> {swapped})" if on_qed_path else str(script.goal)
    lines = [
        f"goal {goal}" if line.startswith("goal") else line
        for line in text.splitlines()
        if not line.startswith("qed")
    ]
    lines += [
        f"{n + 1} axiom K {{ alpha = {swapped}, beta = {f} }}",
        f"{n + 2} mp {script.qed} {n + 1}",
        f"qed {n + 2 if on_qed_path else script.qed}",
    ]
    return "\n".join(lines) + "\n"


def random_formula(rng: random.Random, max_depth: int, atoms=("x", "y", "z")) -> Formula:
    """Uniform-ish random formula over !, -> and the given atoms."""
    if max_depth <= 1:
        return atom(rng.choice(atoms))
    roll = rng.random()
    if roll < 0.35:
        return atom(rng.choice(atoms))
    if roll < 0.6:
        return neg(random_formula(rng, max_depth - 1, atoms))
    return imp(
        random_formula(rng, max_depth - 1, atoms),
        random_formula(rng, max_depth - 1, atoms),
    )


@pytest.fixture
def xyz_signature():
    sig = Signature()
    for name in ("x", "y", "z"):
        sig.declare(name, 0)
    return sig
