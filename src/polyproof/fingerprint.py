"""Tree-to-matrix encoding and the homomorphic proof-step operators.

Every signature symbol of arity d owns d + 1 polynomial variables: one
vertex variable (slot 0) and one edge variable per child (slots 1..d).
A formula tree encodes recursively as

    [leaf x]          = A(X)
    [c(T1, ..., Td)]  = A(C) + A(C1)[T1] + ... + A(Cd)[Td]

With P(u) the product of the edge variables on the path from the root to
node u, each entry is a sum with one term per node:

    [f] = (sum_u P(u) x_vertex(u), sum_u P(u) |subtree(u)|, #nodes)

so ``encode_fingerprint`` walks the tree once, without recursion, at one
ring product per node: P(child) = P(u) x_edge.  An axiom is walked as its
scheme's template, each metavariable leaf read as its binding, so the
instance is never built.
Distinct formulas get distinct matrices up to 6 nodes; from 7 nodes on the
encoding is slightly coarser than formula identity (see README, "Known
limitation").

A fingerprint extends the encoding with the helper matrix of each tracked
arity-0 symbol x: (sum of P(l) over the x-leaves l, sum_u P(u) times the
x-leaves strictly below u, #x-leaves).  Only nonzero helpers are stored; a
missing one reads as zero.  Modus ponens reads no helper and substituting x
reads only the helper of x, so a field replay tracks exactly the variables
that some subst step replaces, and no helper at all for a proof without
substitution.  The exact symbolic replay tracks every atom: in the
polynomial ring each helper's division in hom_mp is also a check on the step.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import zip_longest
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .encmat import EncMatrix, elem, elem_inv_mul, zero_matrix
from .logic import IMPLIES, METAVARIABLES, NOT, Formula, Signature
from .mpoly import VarId


class UnallocatedSymbol(Exception):
    """A formula symbol has no variables in the allocation."""


_BUILTIN_SLOTS = ((IMPLIES, ("I", "I1", "I2")), (NOT, ("N", "N1")))


class VarAllocation:
    """Assigns polynomial variable ids and display names to (symbol, slot).

    The builtin connectives get fixed ids: the implication slots are 0, 1,
    2 and the negation slots are 3, 4.  Remaining signature symbols are
    sorted by name and take consecutive ids from 5, slot by slot.  The
    axiom metavariables are appended at the end so that instantiating an
    axiom homomorphically from its template needs no extra bookkeeping.

    Display names (used in assignment files and rendered polynomials)
    uppercase the symbol name where that stays unambiguous and fall back
    to the name itself, then to underscore-suffixed variants.
    """

    def __init__(self, sig: Signature):
        self.slots: Dict[str, Tuple[VarId, ...]] = {}  # (vertex, edge 1, ..., edge d)
        self._display: List[str] = []
        used = set()

        def claim(sym: str, slot_names: Sequence[str]):
            start = len(self._display)
            self.slots[sym] = tuple(range(start, start + len(slot_names)))
            self._display += slot_names
            used.update(slot_names)

        for sym, slot_names in _BUILTIN_SLOTS:
            claim(sym, slot_names)

        def pick_base(sym: str, arity: int) -> str:
            candidates = [sym.upper(), sym]
            while True:
                for base in candidates:
                    names = [base] + [f"{base}{k}" for k in range(1, arity + 1)]
                    if not any(nm in used for nm in names):
                        return base
                candidates = [candidates[-1] + "_"]

        for sym, arity in sig.symbols():
            base = pick_base(sym, arity)
            claim(sym, [base] + [f"{base}{k}" for k in range(1, arity + 1)])
        for mv in METAVARIABLES:
            claim(mv, [pick_base(mv, 0)])

    @property
    def size(self) -> int:
        return len(self._display)

    def vid(self, sym: str, slot: int = 0) -> VarId:
        try:
            return self.slots[sym][slot]
        except (KeyError, IndexError):
            raise UnallocatedSymbol(f"no variable for symbol {sym!r} slot {slot}") from None

    def display(self, vid: VarId) -> str:
        return self._display[vid]

    def display_names(self) -> Dict[VarId, str]:
        return dict(enumerate(self._display))

    def vid_by_display(self) -> Dict[str, VarId]:
        return {nm: i for i, nm in enumerate(self._display)}


class Helpers(dict):
    """Helper matrices by atom, only the nonzero ones stored: a missing atom
    reads as the ring's zero matrix, and reading it inserts nothing."""

    def __init__(self, ring, pairs: Iterable[Tuple[str, EncMatrix]]):
        super().__init__((t, m) for t, m in pairs if m.a or m.b or m.d)
        self.ring = ring

    def __missing__(self, atom: str) -> EncMatrix:
        return zero_matrix(self.ring)


@dataclass(frozen=True)
class Fingerprint:
    """The encoding of a formula plus the nonzero helpers of tracked symbols."""

    main: EncMatrix
    helpers: Helpers


def encode(f: Formula, alloc: VarAllocation, ring) -> EncMatrix:
    """The matrix of a formula tree."""
    return encode_fingerprint(f, alloc, ring, ()).main


def encode_fingerprint(
    f: Formula, alloc: VarAllocation, ring, tracked: Iterable[str],
    binding: Optional[Dict[str, Formula]] = None,
) -> Fingerprint:
    """The closed form above, from one walk.  Variables are read in preorder,
    each edge's just before its child, so a ring missing several values
    names the first one the recursive definition reaches.  A leaf named in
    ``binding`` is walked as the formula bound to it, as if substituted."""
    tracked, binding = set(tracked), binding or {}
    slots, var, reduce = alloc.slots, ring.var, ring.reduce
    vertex: Dict[VarId, tuple] = {}  # vertex variable: (value, [(1, P(u))])
    sized, nodes = [], 0  # (|subtree(u)|, P(u)); nodes entered so far
    leaves = {}  # (1, P(l)) per t-leaf l, for the tracked atoms t met so far
    below = {}  # (#t-leaves under u, P(u)) per inner u
    stack = [(f, ring.one(), None)]
    while stack:
        node, p, edge = stack.pop()
        if node is None:  # p's subtree is done; edge holds the counts at its start
            sized.append((nodes - edge[0], p))
            if leaves:
                for (t, seen), n in zip_longest(leaves.items(), edge[1:], fillvalue=0):
                    if len(seen) > n:
                        below.setdefault(t, []).append((len(seen) - n, p))
            continue
        nodes += 1
        p = p if edge is None else reduce(p * var(edge))
        node = binding.get(node.root, node)
        root, kids = node.root, node.children
        ids = slots.get(root) or alloc.vid(root)  # vid raises UnallocatedSymbol
        if ids[0] not in vertex:
            vertex[ids[0]] = (var(ids[0]), [])
        vertex[ids[0]][1].append((1, p))
        if kids:
            start = (nodes - 1, *map(len, leaves.values())) if leaves else (nodes - 1,)
            stack.append((None, p, start))
            for slot in range(len(kids), 0, -1):
                stack.append((kids[slot - 1], p, ids[slot]))
        else:
            sized.append((1, p))
            if root in tracked:
                leaves.setdefault(root, []).append((1, p))
    lc, one = ring.lincomb, ring.one()
    main = EncMatrix(
        lc([(1, x * lc(ps)) for x, ps in vertex.values()]), lc(sized), lc([(nodes, one)])
    )
    return Fingerprint(main, Helpers(ring, (
        (t, EncMatrix(lc(ps), lc(below.get(t, ())), lc([(len(ps), one)])))
        for t, ps in leaves.items()
    )))


def hom_mp(fp_hyp: Fingerprint, fp_imp: Fingerprint, alloc: VarAllocation, ring) -> Fingerprint:
    """Fingerprint of the modus-ponens conclusion, from hypothesis and implication.

    Peels the implication node: subtract the vertex matrix and the
    hypothesis branch, then cancel the edge into the conclusion branch.
    No structural check is made; a bad step either fails exact division
    (symbolic ring) or surfaces at the final comparison (field ring).
    """
    vertex = elem(alloc.vid(IMPLIES, 0), ring)
    left_edge = elem(alloc.vid(IMPLIES, 1), ring)
    right_var = alloc.vid(IMPLIES, 2)
    main = elem_inv_mul(right_var, fp_imp.main - vertex - left_edge * fp_hyp.main, ring)
    helpers = Helpers(ring, (
        (x, elem_inv_mul(right_var, fp_imp.helpers[x] - left_edge * fp_hyp.helpers[x], ring))
        for x in fp_imp.helpers.keys() | fp_hyp.helpers.keys()
    ))
    return Fingerprint(main, helpers)


def hom_subst(
    fp_src: Fingerprint, var: str, fp_repl: Fingerprint, alloc: VarAllocation, ring
) -> Fingerprint:
    """Fingerprint of src with every leaf `var` replaced by the repl formula.

    The helper of var collects the path products into the var-leaves, so
    subtracting helper * A(X_var) removes those leaves and adding
    helper * [repl] grafts the replacement onto every one of them.
    """
    leaf = elem(alloc.vid(var, 0), ring)
    hv = fp_src.helpers[var]
    main = ring.reduce(fp_src.main - hv * leaf + hv * fp_repl.main)
    helpers = {}
    for x in fp_src.helpers.keys() | fp_repl.helpers.keys():
        graft = hv * fp_repl.helpers[x]
        helpers[x] = ring.reduce(graft if x == var else fp_src.helpers[x] + graft)
    return Fingerprint(main, Helpers(ring, helpers.items()))


def degree_bound(*formulas: Formula) -> int:
    """Nodes on the longest root-to-leaf path of the formulas, which bounds every
    entry degree: the largest depth the formulas carry, read without a walk."""
    return max((f.depth for f in formulas), default=0)


def axiom_fingerprint_via_template(
    scheme, binding: Dict[str, Formula], alloc: VarAllocation, ring, tracked: Iterable[str]
) -> Fingerprint:
    """Instantiate an axiom homomorphically from its template fingerprint.

    Encodes the template over its metavariables, then substitutes each
    binding, encoded over the tracked atoms, with hom_subst.  Must agree
    with the direct encoding; the strict verification mode cross-checks the
    two on every axiom step.
    """
    fp = encode_fingerprint(scheme.template, alloc, ring, scheme.metavars)
    for mv in scheme.metavars:
        repl = encode_fingerprint(binding[mv], alloc, ring, tracked)
        fp = hom_subst(fp, mv, repl, alloc, ring)
    return fp
