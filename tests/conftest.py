import importlib.util
import random
import sys
from pathlib import Path

import pytest
from hypothesis import settings

from polyproof.logic import Formula, Signature, atom, imp, neg, parse_proof, step_formulas

settings.register_profile("suite", deadline=None)
settings.load_profile("suite")

PROOF_DIR = Path(__file__).resolve().parent.parent / "proofs"

SEED0 = bytes(32)
SEED1 = bytes(31) + b"\x01"


def load_proof_text(name: str) -> str:
    return (PROOF_DIR / f"{name}.proof").read_text()


def benchmark_cases():
    """The benchmark's proof-script generators, ``perfbench/cases.py``."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_cases", PROOF_DIR.parent / "perfbench" / "cases.py")
    cases = sys.modules[spec.name] = importlib.util.module_from_spec(spec)  # for its dataclasses
    spec.loader.exec_module(cases)
    return cases


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
