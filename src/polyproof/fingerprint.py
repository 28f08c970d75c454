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
product per node: P(child) = P(u) x_edge.  An axiom is walked as its
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

``hom_mp`` and ``hom_subst`` are written once, on the three entries, for
both rings, with the ring's ``matrix`` and ``peel`` (see ``encmat``).
``encode_fingerprint`` keeps two walks, chosen by the ring, each the faster
for its coefficients: over the field (``encmat.FieldRing``) running path
sums, O(1) per node on ints; over exact polynomials (``SymbolicRing``),
where a running sum grows with the path and costs O(depth) per node, the
closed form term by term: P(u) is a packed monomial, each node adds its
terms to the entries' {monomial: coefficient} dicts, and no polynomials are
multiplied.  Every term is positive, so each dict is an MPoly unfiltered.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, NamedTuple, Optional, Sequence, Tuple

from .encmat import EncMatrix, FieldRing, zero_matrix
from .encmat import elem_inv_mul  # unused; the benchmark's trace counts calls through this name
from .logic import IMPLIES, NOT, Formula, Signature
from .mpoly import MissingAssignment, MonomialOverflow, MPoly, VarId, times_var


class UnallocatedSymbol(Exception):
    """A formula symbol has no variables in the allocation."""


_BUILTIN_SLOTS = ((IMPLIES, ("I", "I1", "I2")), (NOT, ("N", "N1")))


class VarAllocation:
    """Assigns polynomial variable ids and display names to (symbol, slot).

    The builtin connectives get fixed ids: the implication slots are 0, 1,
    2 and the negation slots are 3, 4.  Remaining signature symbols are
    sorted by name and take consecutive ids from 5, slot by slot.  The
    axiom metavariables get none: an axiom is walked with each of them read
    as its binding, so no run evaluates one.

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


class Fingerprint(NamedTuple):
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
    if isinstance(ring, FieldRing):
        return _field_encode(f, alloc, ring, tracked, binding)
    tracked, binding = set(tracked), binding or {}
    slots, const, poly = alloc.slots, MPoly.const, MPoly._of  # every coefficient below is positive
    a, b, nodes = {}, {}, 0  # entries as {monomial: coefficient}; nodes entered
    leaves = {}  # tracked atom t: t-leaves entered so far
    ha, hb = {}, {}  # t: the a and b entries of t's helper
    stack = [(f, 0, None)]  # node, P(parent) as a packed monomial, edge variable into node
    room = ring.room  # bits of packed monomials the run may still create
    while stack:
        node, p, edge = stack.pop()
        if node is None:  # leaving the inner node u with P(u) = p; edge: counts on entry
            start, seen = edge
            b[p] = b.get(p, 0) + nodes - start  # |subtree(u)|
            for t, n in leaves.items():
                n -= seen.get(t, 0)  # t-leaves below u
                if n:
                    hbt = hb.setdefault(t, {})
                    hbt[p] = hbt.get(p, 0) + n
            continue
        nodes += 1
        p = p if edge is None else times_var(p, edge)
        node = binding.get(node.root, node)
        root, kids = node.root, node.children
        ids = slots.get(root) or alloc.vid(root)  # vid raises UnallocatedSymbol
        vertex = times_var(p, ids[0])  # the node's wider monomial; P(u) is the other
        room -= vertex.bit_length()
        if room < 0:
            raise MonomialOverflow("symbolic work budget exceeded: monomials pack past 2^28 bits")
        a[vertex] = a.get(vertex, 0) + 1
        if kids:
            stack.append((None, p, (nodes - 1, dict(leaves))))
            for slot in range(len(kids), 0, -1):
                stack.append((kids[slot - 1], p, ids[slot]))
            continue
        b[p] = b.get(p, 0) + 1
        if root in tracked:
            leaves[root] = leaves.get(root, 0) + 1
            hat = ha.setdefault(root, {})
            hat[p] = hat.get(p, 0) + 1
    ring.room = room
    return Fingerprint(EncMatrix(poly(a), poly(b), const(nodes)), Helpers(ring, (
        (t, EncMatrix(poly(ha[t]), poly(hb.get(t, {})), const(n))) for t, n in leaves.items()
    )))


def hom_mp(fp_hyp: Fingerprint, fp_imp: Fingerprint, alloc: VarAllocation, ring) -> Fingerprint:
    """Fingerprint of the modus-ponens conclusion, from hypothesis and implication.

    Peels the implication node: subtract the vertex matrix and the
    hypothesis branch, then cancel the edge into the conclusion branch.
    With h the hypothesis' matrix and m the implication's, the conclusion's
    is ((m.a - x_I - x_I1 h.a) / x_I2, (m.b - m.d - x_I1 h.b) / x_I2,
    m.d - 1 - h.d), and a helper's the same without the vertex's x_I and 1.
    No structural check is made; a bad step either fails exact division
    (symbolic ring) or surfaces at the final comparison (field ring).
    """
    vertex, left, right = alloc.slots[IMPLIES]
    x_vertex, x_left = ring.var(vertex), ring.var(left)  # x_I, x_I1, then x_I2 in peel
    h, m = fp_hyp.main, fp_imp.main
    main = ring.peel(right, m.a - x_vertex - x_left * h.a, m.b - m.d - x_left * h.b,
                     m.d - ring.one() - h.d)
    hyp_helpers, imp_helpers = fp_hyp.helpers, fp_imp.helpers
    if not (hyp_helpers or imp_helpers):
        return Fingerprint(main, imp_helpers)
    helpers = []
    for x in imp_helpers.keys() | hyp_helpers.keys():
        h, m = hyp_helpers[x], imp_helpers[x]
        helpers.append((x, ring.peel(right, m.a - x_left * h.a, m.b - m.d - x_left * h.b,
                                     m.d - h.d)))
    return Fingerprint(main, Helpers(ring, helpers))


def hom_subst(
    fp_src: Fingerprint, var: str, fp_repl: Fingerprint, alloc: VarAllocation, ring
) -> Fingerprint:
    """Fingerprint of src with every leaf `var` replaced by the repl formula.

    The helper h of var collects the path products into the var-leaves, so
    subtracting h A(X_var) removes those leaves and adding h [repl] grafts
    the replacement onto every one of them.  With s the source and r the
    replacement, that is s + (h.a (r.a - x_var), h.a (r.b - 1) + h.b (r.d - 1),
    h.d (r.d - 1)), and each helper t becomes s_t + h r_t, or h r_var for t = var.
    """
    x_var = ring.var(alloc.vid(var, 0))
    if var not in fp_src.helpers:
        return fp_src
    one, h, s, r = ring.one(), fp_src.helpers[var], fp_src.main, fp_repl.main
    main = ring.matrix(s.a + h.a * (r.a - x_var), s.b + h.a * (r.b - one) + h.b * (r.d - one),
                       s.d + h.d * (r.d - one))
    helpers = {x: m for x, m in fp_src.helpers.items() if x != var}
    for x, r in fp_repl.helpers.items():
        s = helpers.get(x) or zero_matrix(ring)
        helpers[x] = ring.matrix(s.a + h.a * r.a, s.b + h.a * r.b + h.b * r.d, s.d + h.d * r.d)
    return Fingerprint(main, Helpers(ring, helpers.items()))


def _field_encode(f, alloc, ring, tracked, binding) -> Fingerprint:
    """encode_fingerprint over the field: running sums of ints, each path
    product reduced mod p as the walk enters its node.  Every term is known
    on entry, as b = sum_u S(u) with S(u) = P(root) + ... + P(u), the path
    sum, and a tracked leaf l adds S(parent of l) to its helper's b."""
    slots, values, p = alloc.slots, ring.values, ring.p
    binding, tracked = binding or {}, set(tracked) if tracked else ()
    a = b = nodes = 0
    sums = {}  # tracked atom t: [sum of P(l), sum of S(parent of l), #leaves] over its leaves l
    stack = [(f, 1, 0, None)]  # node, P(parent), S(parent), edge variable into node
    pop, push = stack.pop, stack.append
    try:
        while stack:
            node, pu, s, edge = pop()
            if edge is not None:
                pu = pu * values[edge] % p
            root, kids = node.root, node.children
            if not kids and root in binding:
                node = binding[root]
                root, kids = node.root, node.children
            ids = slots.get(root) or alloc.vid(root)  # vid raises UnallocatedSymbol
            a += pu * values[ids[0]]
            nodes += 1
            if kids:
                s += pu
                b += s
                if len(kids) == 2:  # an implication, the common case, unrolled
                    push((kids[1], pu, s, ids[2]))
                    push((kids[0], pu, s, ids[1]))
                else:
                    for slot in range(len(kids), 0, -1):
                        push((kids[slot - 1], pu, s, ids[slot]))
                continue
            b += s + pu
            if root in tracked:
                acc = sums.setdefault(root, [0, 0, 0])
                acc[0], acc[1], acc[2] = acc[0] + pu, acc[1] + s, acc[2] + 1
    except KeyError as exc:
        raise MissingAssignment(exc.args[0]) from None
    main = EncMatrix(a % p, b % p, nodes % p)
    if sums:
        return Fingerprint(main, Helpers(ring, (
            (t, EncMatrix(ta % p, tb % p, td % p)) for t, (ta, tb, td) in sums.items())))
    if ring.no_helpers is None:  # one empty Helpers per run, for every fingerprint without one
        ring.no_helpers = Helpers(ring, ())
    return Fingerprint(main, ring.no_helpers)

