"""The probabilistic verification procedure and its exact symbolic twin.

A proof script is replayed twice over the same random point of the field:

  * alpha1 is the evaluated encoding of the declared goal, computed
    directly from the goal formula;
  * alpha2 is the script replayed by ``logic.replay`` over fingerprints:
    the axioms' fingerprints, the only values computed from scratch (one
    walk of the scheme's template, each metavariable read as its binding),
    then the homomorphic modus-ponens and substitution operators, never
    looking at the formulas in between.

The run accepts exactly when alpha1 == alpha2.  When a wrong proof
propagates to a matrix other than the goal's, it is accepted only if the
entrywise difference vanishes at the sampled point, which happens with
probability at most d / (p - 2) per repeat, d being the largest formula
depth in the proof (points are drawn from the p - 2 values outside
{0, 1}).  No step is checked on its own, though: a wrong mp step whose
error a later step cancels exactly (an mp over a same-size atom swap,
healed by substituting the swapped atom; see README) propagates to the
goal's own matrix and is accepted at every point.  Only the symbolic
replay rejects it.

``verify_symbolic`` runs the same propagation over exact polynomials and
accepts only on polynomial identity; it is the ground truth the field
mode is tested against, feasible for small proofs.  A field run tracks
helper matrices only for the variables some subst step replaces; the
symbolic run tracks every atom of the signature, as their exact divisions
reject some malformed mp steps the main matrix lets through.
"""

from __future__ import annotations

import hashlib
import math
import re
from typing import Dict, List, NamedTuple, Optional, Tuple

from .encmat import EncMatrix, FieldRing, SymbolicRing
from .ffield import FieldElem, PointSampler, PrimeField
from .fingerprint import (
    Fingerprint,
    VarAllocation,
    encode,
    encode_fingerprint,
    hom_mp,
    hom_subst,
)
from .logic import (
    AXIOM_SCHEMES,
    AxiomStep,
    ProofScript,
    SubstStep,
    instantiate_axiom,  # unused here; the benchmark's layer trace counts calls through this name
    replay,
    step_formulas,
)
from .mpoly import MissingAssignment, NotDivisible, VarId

_ASSIGNMENT_LINE = re.compile(r"(\S+)\s*=\s*([0-9]+)")


class Assignment(NamedTuple):
    """Field values for every allocated polynomial variable.

    Values are always in [2, p): 0 would make elementary matrices
    singular and 1 is excluded from the sampling domain as well.
    """

    field: PrimeField
    values: Dict[VarId, FieldElem]
    provenance: str

    @classmethod
    def from_seed(cls, seed: bytes, field: PrimeField, alloc: VarAllocation) -> "Assignment":
        sampler = PointSampler(seed, field)
        values = {vid: sampler.next() for vid in range(alloc.size)}
        return cls(field, values, f"seed {seed.hex()}")

    @classmethod
    def from_file_text(
        cls, text: str, alloc: VarAllocation, label: str = "<text>"
    ) -> "Assignment":
        field = None
        values: Dict[VarId, FieldElem] = {}
        by_name = alloc.vid_by_display()
        for line_no, raw in enumerate(text.splitlines(), 1):
            line = raw.strip()
            if not line:
                continue
            m = _ASSIGNMENT_LINE.fullmatch(line)
            if not m:
                raise ValueError(f"assignment line {line_no}: malformed {raw!r}")
            name, digits = m.group(1), m.group(2).lstrip("0") or "0"
            if len(digits) > 19:  # p < 2**63 has 19 digits; int() reads 4300 at most
                raise ValueError(f"assignment line {line_no}: {len(digits)}-digit number > 2**63")
            number = int(digits)
            if name == "prime":
                if field is not None:
                    raise ValueError(f"assignment line {line_no}: duplicate prime")
                try:
                    field = PrimeField(number)
                except ValueError as exc:
                    raise ValueError(f"assignment line {line_no}: {exc}") from None
                continue
            if field is None:
                raise ValueError("assignment file must start with: prime = <decimal>")
            if name not in by_name:
                raise ValueError(f"assignment line {line_no}: unknown variable {name!r}")
            vid = by_name[name]
            if vid in values:
                raise ValueError(f"assignment line {line_no}: duplicate value for {name}")
            if not 2 <= number < field.p:
                raise ValueError(
                    f"assignment line {line_no}: {name} = {number} outside [2, {field.p})"
                )
            values[vid] = field.elem(number)
        if field is None:
            raise ValueError("assignment file must declare a prime")
        return cls(field, values, f"assignment-file {label}")

    def render(self, alloc: VarAllocation) -> str:
        lines = [f"prime = {self.field.p}"]
        for vid in sorted(self.values):
            lines.append(f"{alloc.display(vid)} = {self.values[vid].value}")
        return "\n".join(lines) + "\n"

    def ring(self) -> FieldRing:
        return FieldRing(self.field, self.values)


class StepRecord(NamedTuple):
    index: int
    kind: str
    fingerprint: Fingerprint


class Run(NamedTuple):
    """One replay of the script at one field point or over exact polynomials;
    a replay broken off by a failed exact division names its failure."""

    records: List[StepRecord]
    alpha1: Optional[EncMatrix]
    alpha2: Optional[EncMatrix]
    failure: Optional[str] = None

    @property
    def accepted(self) -> bool:
        return self.failure is None and self.alpha1 == self.alpha2

    @property
    def verdict(self) -> str:
        return "accept" if self.accepted else "reject"


class Transcript(NamedTuple):
    proof_name: str
    field: PrimeField
    provenance: str
    repeats: int
    d_bound: int
    runs: List[Run]
    tracked: List[str]  # each step line prints their helpers, a missing one as zero

    @property
    def verdict(self) -> str:
        return "accept" if all(run.accepted for run in self.runs) else "reject"

    @property
    def epsilon(self) -> Tuple[int, int]:
        """min(1, d / (p - 2)) ** repeats as (numerator, denominator), in lowest terms."""
        a, b = self._epsilon_base()
        return a ** self.repeats, b ** self.repeats

    def _epsilon_base(self) -> Tuple[int, int]:
        q = self.field.p - 2
        d = min(self.d_bound, q)
        g = math.gcd(d, q)  # a reduced fraction's powers are reduced too
        return d // g, q // g

    def render(self) -> str:
        a, b = self._epsilon_base()
        try:
            epsilon = f"{a ** self.repeats}/{b ** self.repeats}" if b > 1 else "1"
        except ValueError:  # more digits than Python prints: print the power
            epsilon = f"({a}/{b})^{self.repeats}"
        lines = [
            f"proof {self.proof_name}",
            f"prime {self.field.p}",
            self.provenance,
            f"repeats {self.repeats}",
            f"d-bound {self.d_bound}",
            f"epsilon {epsilon}",
        ]
        for r, run in enumerate(self.runs, 1):
            if self.repeats > 1:
                lines.append(f"repeat {r}")
            for rec in run.records:
                helpers = ", ".join(f"{t}:{rec.fingerprint.helpers[t]}" for t in self.tracked)
                lines.append(
                    f"step {rec.index} {rec.kind} "
                    f"main={rec.fingerprint.main} helpers={{{helpers}}}"
                )
            if self.repeats > 1:
                lines.append(f"alpha1={run.alpha1} alpha2={run.alpha2}")
        first = self.runs[0]
        lines.append(f"alpha1={first.alpha1} alpha2={first.alpha2} verdict={self.verdict}")
        return "\n".join(lines) + "\n"


def tracked_atoms(script: ProofScript) -> List[str]:
    """The variables some subst step replaces, sorted.

    These are the only helpers any step reads, so every fingerprint of a
    field run tracks exactly them: none for a proof without substitution.
    """
    return sorted({step.var for step in script.steps if isinstance(step, SubstStep)})


def script_atoms(script: ProofScript) -> List[str]:
    """All arity-0 symbols of the script's signature, sorted.

    The symbolic replay tracks all of them: there the exact division of
    each helper in ``hom_mp`` also checks the step, and it alone rejects
    an mp whose hypothesis and antecedent differ by a same-size atom swap
    in the antecedent's right branch.
    """
    return script.signature.atoms()


def proof_degree_bound(script: ProofScript) -> int:
    """Largest formula depth in the proof: the goal, the literal replacements,
    each axiom instance (read from its bindings) and, only for a script that
    substitutes, what the syntactic replay derives before its first broken
    step.  That is exact: without substitution every derived formula is an
    axiom instance or the right child of an earlier one, so none is deeper."""
    subst = [s for s in script.steps if isinstance(s, SubstStep)]
    depths = [script.goal.depth] + [s.replacement.depth for s in subst if s.replacement]
    depths += [AXIOM_SCHEMES[s.scheme].instance_depth(s.binding)
               for s in script.steps if isinstance(s, AxiomStep)]
    if subst:
        depths += [f.depth for f in step_formulas(script, partial=True)]
    return max(depths)


def propagate(script: ProofScript, alloc: VarAllocation, ring, tracked):
    """The script replayed in the fingerprint algebra over the given ring;
    returns (records, fingerprints)."""
    fps: List[Fingerprint] = []

    def axiom(scheme, binding) -> Fingerprint:
        scheme.check_binding(binding)
        return encode_fingerprint(scheme.template, alloc, ring, tracked, binding)

    replay(script, axiom,
           lambda hyp, imp: hom_mp(hyp, imp, alloc, ring),
           lambda source, var, repl: hom_subst(source, var, repl, alloc, ring),
           lambda f: encode_fingerprint(f, alloc, ring, tracked), fps)
    records = [StepRecord(i, s.kind, fp) for i, (s, fp) in enumerate(zip(script.steps, fps), 1)]
    return records, fps


def prove(script: ProofScript, assignment: Assignment) -> Transcript:
    """Single-run verification under an explicitly given assignment."""
    alloc, tracked = VarAllocation(script.signature), tracked_atoms(script)
    run = _replay(script, alloc, assignment.ring(), tracked)
    return _transcript(script, assignment.field, assignment.provenance, [run], tracked)


def verify(script: ProofScript, seed: bytes, repeats: int, field: PrimeField) -> Transcript:
    """Seeded verification with independent repeats.

    Repeat r uses the sub-seed SHA-256(seed || r as 4 big-endian bytes),
    so transcripts are a pure function of (script, seed, p, repeats).
    """
    if repeats < 1:
        raise ValueError("repeats must be >= 1")
    if len(seed) != 32:
        raise ValueError("seed must be exactly 32 bytes")
    alloc, tracked = VarAllocation(script.signature), tracked_atoms(script)
    runs = []
    for r in range(1, repeats + 1):
        sub_seed = hashlib.sha256(seed + r.to_bytes(4, "big")).digest()
        ring = Assignment.from_seed(sub_seed, field, alloc).ring()
        runs.append(_replay(script, alloc, ring, tracked))
    return _transcript(script, field, f"seed {seed.hex()}", runs, tracked)


def verify_symbolic(script: ProofScript) -> Run:
    """Exact verification: the propagated and direct polynomial matrices
    must be identical.  Failed exact divisions mean a malformed step and
    reject the script."""
    alloc = VarAllocation(script.signature)
    try:
        return _replay(script, alloc, SymbolicRing(), script_atoms(script))
    except NotDivisible as exc:
        return Run([], None, None, failure=f"malformed step: {exc}")


def _replay(script: ProofScript, alloc: VarAllocation, ring, tracked) -> Run:
    """Propagate the steps and encode the goal.

    Every variable is read from the ring as the replay reaches it, so an
    assignment lacking a value the replay needs raises MissingAssignment,
    which names the variable as assignment files do.
    """
    try:
        records, fps = propagate(script, alloc, ring, tracked)
        alpha1 = encode(script.goal, alloc, ring)
    except MissingAssignment as exc:
        raise MissingAssignment(alloc.display(exc.var)) from None
    return Run(records, alpha1, fps[script.qed - 1].main)


def _transcript(script: ProofScript, field: PrimeField, provenance, runs, tracked) -> Transcript:
    return Transcript(proof_name=script.name, field=field, provenance=provenance,
                      repeats=len(runs), d_bound=proof_degree_bound(script), runs=runs,
                      tracked=tracked)
