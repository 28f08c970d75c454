"""The probabilistic verification procedure and its exact symbolic twin.

A proof script is replayed twice over the same random point of the field:

  * alpha1 is the evaluated encoding of the declared goal, computed
    directly from the goal formula;
  * alpha2 is propagated from the axiom fingerprints through the
    homomorphic modus-ponens and substitution operators, without ever
    looking at the intermediate formulas.

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
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional

from .encmat import EncMatrix, FieldRing, SymbolicRing
from .ffield import FieldElem, PointSampler, PrimeField
from .fingerprint import (
    Fingerprint,
    VarAllocation,
    axiom_fingerprint_via_template,
    encode,
    encode_fingerprint,
    hom_mp,
    hom_subst,
)
from .logic import (
    AXIOM_SCHEMES,
    AxiomStep,
    MPStep,
    ProofScript,
    SubstStep,
    instantiate_axiom,  # unused here; the benchmark's layer trace counts calls through this name
    step_formulas,
)
from .mpoly import MissingAssignment, NotDivisible, VarId

_ASSIGNMENT_LINE = re.compile(r"(\S+)\s*=\s*([0-9]+)")


class StrictCheckError(Exception):
    """Direct and template-derived axiom fingerprints disagree."""


@dataclass
class Assignment:
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
            name, number = m.group(1), int(m.group(2))
            if name == "prime":
                if field is not None:
                    raise ValueError(f"assignment line {line_no}: duplicate prime")
                field = PrimeField(number)
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


@dataclass
class StepRecord:
    index: int
    kind: str
    fingerprint: Fingerprint


@dataclass
class Run:
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


@dataclass
class Transcript:
    proof_name: str
    field: PrimeField
    provenance: str
    repeats: int
    d_bound: int
    epsilon: Fraction
    runs: List[Run]
    tracked: List[str]  # each step line prints their helpers, a missing one as zero

    @property
    def verdict(self) -> str:
        return "accept" if all(run.accepted for run in self.runs) else "reject"

    def render(self) -> str:
        lines = [
            f"proof {self.proof_name}",
            f"prime {self.field.p}",
            self.provenance,
            f"repeats {self.repeats}",
            f"d-bound {self.d_bound}",
            f"epsilon {self.epsilon}",
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


def propagate(script: ProofScript, alloc: VarAllocation, ring, tracked, *, strict: bool = False):
    """Replay the proof steps over the given ring; returns (records, fingerprints)."""
    fps: List[Fingerprint] = []
    records: List[StepRecord] = []
    for idx, step in enumerate(script.steps, 1):
        if isinstance(step, AxiomStep):
            scheme = AXIOM_SCHEMES[step.scheme]
            scheme.check_binding(step.binding)
            fp = encode_fingerprint(scheme.template, alloc, ring, tracked, step.binding)
            if strict:
                fp2 = axiom_fingerprint_via_template(scheme, step.binding, alloc, ring, tracked)
                if fp != fp2:
                    raise StrictCheckError(
                        f"step {idx}: template-derived axiom fingerprint disagrees"
                    )
        elif isinstance(step, MPStep):
            fp = hom_mp(fps[step.hyp - 1], fps[step.imp - 1], alloc, ring)
        else:
            if step.replacement is not None:
                repl = encode_fingerprint(step.replacement, alloc, ring, tracked)
            else:
                repl = fps[step.replacement_step - 1]
            fp = hom_subst(fps[step.source - 1], step.var, repl, alloc, ring)
        fps.append(fp)
        records.append(StepRecord(idx, step.kind, fp))
    return records, fps


def prove(script: ProofScript, assignment: Assignment, *, strict: bool = False) -> Transcript:
    """Single-run verification under an explicitly given assignment."""
    alloc = VarAllocation(script.signature)
    run = _replay(script, alloc, assignment.ring(), tracked_atoms(script), strict)
    return _transcript(script, assignment.field, assignment.provenance, [run])


def verify(
    script: ProofScript,
    seed: bytes,
    repeats: int,
    field: PrimeField,
    *,
    strict: bool = False,
) -> Transcript:
    """Seeded verification with independent repeats.

    Repeat r uses the sub-seed SHA-256(seed || r as 4 big-endian bytes),
    so transcripts are a pure function of (script, seed, p, repeats).
    """
    if repeats < 1:
        raise ValueError("repeats must be >= 1")
    if len(seed) != 32:
        raise ValueError("seed must be exactly 32 bytes")
    alloc = VarAllocation(script.signature)
    tracked = tracked_atoms(script)
    runs = []
    for r in range(1, repeats + 1):
        sub_seed = hashlib.sha256(seed + r.to_bytes(4, "big")).digest()
        ring = Assignment.from_seed(sub_seed, field, alloc).ring()
        runs.append(_replay(script, alloc, ring, tracked, strict))
    return _transcript(script, field, f"seed {seed.hex()}", runs)


def verify_symbolic(script: ProofScript, *, strict: bool = False) -> Run:
    """Exact verification: the propagated and direct polynomial matrices
    must be identical.  Failed exact divisions mean a malformed step and
    reject the script."""
    alloc = VarAllocation(script.signature)
    try:
        return _replay(script, alloc, SymbolicRing(), script_atoms(script), strict)
    except NotDivisible as exc:
        return Run([], None, None, failure=f"malformed step: {exc}")


def _replay(script: ProofScript, alloc: VarAllocation, ring, tracked, strict: bool) -> Run:
    """Propagate the steps and encode the goal.

    Every variable is read from the ring as the replay reaches it, so an
    assignment lacking a value the replay needs raises MissingAssignment,
    which names the variable as assignment files do.
    """
    try:
        records, fps = propagate(script, alloc, ring, tracked, strict=strict)
        alpha1 = encode(script.goal, alloc, ring)
    except MissingAssignment as exc:
        raise MissingAssignment(alloc.display(exc.var)) from None
    return Run(records, alpha1, fps[script.qed - 1].main)


def _transcript(script: ProofScript, field: PrimeField, provenance: str, runs) -> Transcript:
    d = proof_degree_bound(script)
    return Transcript(
        proof_name=script.name,
        field=field,
        provenance=provenance,
        repeats=len(runs),
        d_bound=d,
        epsilon=_epsilon(d, field.p, len(runs)),
        runs=runs,
        tracked=tracked_atoms(script),
    )


def _epsilon(d: int, p: int, repeats: int) -> Fraction:
    per_run = min(Fraction(1), Fraction(d, p - 2))
    return per_run**repeats
