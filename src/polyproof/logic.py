"""Formulas, signatures, the concrete syntax, axiom schemes and proof scripts.

Formula grammar (implications always carry their own parentheses, so there
is no precedence to resolve):

    formula := atom
             | '!' formula
             | '(' formula '->' formula ')'
             | name '(' formula {',' formula} ')'

Arity-0 symbols are substitutable variables.  Symbols of positive arity
must be declared before use (``encode`` declares each at its first use);
bare atoms are declared while parsing.  The names ``alpha``, ``beta`` and
``gamma`` name axiom-scheme metavariables and are rejected as symbols.

Proof scripts are line oriented (``#`` starts a comment):

    proof "<name>"
    symbol <name> arity <k>          # before goal; needed for arity > 0
    goal <formula>
    <n> axiom <K|S|N> { alpha = <formula>, beta = <formula>[, gamma = ...] }
    <n> mp <h> <i>                   # from h: f and i: (f -> g), conclude g
    <n> subst <i> <var> with (<formula>)
    <n> subst <i> <var> step <j>
    qed <n>

A formula in a step (a binding or a ``with`` replacement) may sit inside
one layer of grouping parentheses: ``alpha = (x)`` reads as ``alpha = x``.
Steps are numbered consecutively from 1, in ASCII digits, and may only
reference earlier steps.  Every ``ParseError`` from ``parse_proof`` names
its line.  ``run_classical`` executes a script purely syntactically and is
the ground-truth checker the matrix pipeline is tested against.  A
``Formula`` is immutable, carries its depth and compares by structure
without recursion; formulas are unhashable.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

IMPLIES = "->"
NOT = "!"
METAVARIABLES = ("alpha", "beta", "gamma")
_NAME = r"[A-Za-z_][A-Za-z0-9_]*"
_IS_NAME = re.compile(_NAME)


class ParseError(Exception):
    """Malformed input text; carries a character position and, in a proof, the line."""

    def __init__(self, message: str, pos: Optional[int] = None):
        super().__init__(message)
        self.pos = pos
        self.line: Optional[int] = None

    def __str__(self):
        if self.line is not None:
            return f"{self.args[0]} (line {self.line})"
        return self.args[0] + ("" if self.pos is None else f" (at position {self.pos})")


class UnknownSymbol(ParseError):
    pass


class ArityMismatch(ParseError):
    pass


class ForwardReference(ParseError):
    pass


class BadQed(ParseError):
    pass


class NotAVariable(ParseError):
    """Substitution target has positive arity."""


class MissingBinding(Exception):
    """An axiom scheme metavariable was left unbound."""


class MPShapeMismatch(Exception):
    """Modus ponens: the implication step does not match the hypothesis."""


class GoalMismatch(Exception):
    """The qed step derives a different formula than the declared goal."""


class Formula:
    """An immutable node ``root(children)`` carrying its ``depth``, the nodes on
    its longest root-to-leaf path, computed once from the children's depths.
    ``==`` is structural, without recursion, and compares each pair of shared
    nodes once: equal DAGs built apart cost their distinct nodes, not their
    trees.  Formulas are unhashable."""

    __slots__ = ("root", "children", "depth")

    def __init__(self, root: str, children: Tuple["Formula", ...] = ()):
        depth = 0
        for c in children:
            if c.depth > depth:
                depth = c.depth
        object.__setattr__(self, "root", root)
        object.__setattr__(self, "children", children)
        object.__setattr__(self, "depth", depth + 1)

    def __setattr__(self, name, value=None):
        raise AttributeError(f"cannot assign to field {name!r} of an immutable Formula")

    __delattr__ = __setattr__

    def __reduce__(self):  # copy and pickle rebuild through __init__, as __setattr__ refuses
        return Formula, (self.root, self.children)

    def __eq__(self, other):
        if not isinstance(other, Formula):
            return NotImplemented
        seen, stack = set(), [(self, other)]
        while stack:
            x, y = stack.pop()
            if x is not y and (id(x), id(y)) not in seen:
                if x.root != y.root or x.depth != y.depth or len(x.children) != len(y.children):
                    return False
                seen.add((id(x), id(y)))
                stack.extend(zip(x.children, y.children))
        return True

    def __str__(self):
        return formula_text(self, None)

    def __repr__(self):
        return f"Formula({str(self)!r})"


def formula_text(f: Formula, limit: Optional[int] = 200) -> str:
    """``str(f)`` without recursion, cut after ``limit`` characters with "..."."""
    out, size, stack = [], 0, [f]
    while stack and (limit is None or size <= limit):
        x = stack.pop()
        if isinstance(x, str) or not x.children:
            out.append(x if isinstance(x, str) else x.root)
            size += len(out[-1])
        elif x.root == IMPLIES:
            stack += [")", x.children[1], " -> ", x.children[0], "("]
        elif x.root == NOT:
            stack += [x.children[0], "!"]
        else:
            args = [part for c in reversed(x.children) for part in (c, ", ")][:-1]
            stack += [")", *args, "(", x.root]
    text = "".join(out)
    return text if limit is None or size <= limit else text[:limit] + "..."


def atom(name: str) -> Formula:
    return Formula(name)


def imp(a: Formula, b: Formula) -> Formula:
    return Formula(IMPLIES, (a, b))


def neg(a: Formula) -> Formula:
    return Formula(NOT, (a,))


class Signature:
    """Symbol table: name -> arity.  '->' and '!' are always present."""

    def __init__(self, declares_functions: bool = False):
        self._arity: Dict[str, int] = {IMPLIES: 2, NOT: 1}
        self.declares_functions = declares_functions  # at the arity of a symbol's first use

    def declare(self, name: str, arity: int) -> None:
        if name in METAVARIABLES:
            raise ParseError(f"{name!r} is reserved for axiom metavariables")
        if not _IS_NAME.fullmatch(name):
            raise ParseError(f"invalid symbol name {name!r}")
        if arity < 0:
            raise ParseError(f"negative arity for {name!r}")
        if name in self._arity and self._arity[name] != arity:
            raise ParseError(
                f"symbol {name!r} already declared with arity {self._arity[name]}"
            )
        self._arity[name] = arity

    def has(self, name: str) -> bool:
        return name in self._arity

    def arity(self, name: str) -> int:
        if name not in self._arity:
            raise UnknownSymbol(f"unknown symbol {name!r}")
        return self._arity[name]

    def symbols(self) -> List[Tuple[str, int]]:
        """User-declared symbols (builtins excluded), sorted by name."""
        return sorted(
            (n, a) for n, a in self._arity.items() if n not in (IMPLIES, NOT)
        )

    def atoms(self) -> List[str]:
        """The arity-0 symbols, sorted by name."""
        return [n for n, a in self.symbols() if a == 0]


# -- parsing -----------------------------------------------------------------

_TOKEN = re.compile(rf"->|{_NAME}|\S")


class _Cursor:
    """The tokens of ``text[start:]``, then None for the end, and a read position.

    A non-space character that starts no name and no ``->`` is a token of its
    own, so a stray character fails only where the parser reaches it.
    """

    def __init__(self, text: str, start: int = 0):
        self.tokens = [(m.group(), m.start()) for m in _TOKEN.finditer(text, start)]
        self.tokens.append((None, len(text)))
        self.i = 0

    def peek(self) -> Optional[str]:
        return self.tokens[self.i][0]

    def take(self, *expected: str) -> str:
        """The next token: one of expected if given, else one the caller has peeked."""
        tok = self.tokens[self.i][0]
        if expected and tok not in expected:
            self.fail(f"expected {' or '.join(map(repr, expected))}")
        self.i += 1
        return tok

    def call_arity(self) -> int:
        """The arguments of the call whose '(' was just taken: its top-level commas, plus one."""
        depth, arity = 0, 1
        for tok, _ in self.tokens[self.i:]:  # the last token, None, ends every scan
            depth += (tok == "(") - (tok == ")")
            if depth < 0 or tok is None:
                return arity
            arity += depth == 0 and tok == ","

    def fail(self, message: str, cls=ParseError, at: Optional[int] = None):
        """Raise cls at token number at, or else at the next token, which the message names."""
        if at is None:
            at, tok = self.i, self.peek()
            message += ", found " + ("end of input" if tok is None else repr(tok))
        raise cls(message, pos=self.tokens[at][1])


def _formula(cur: _Cursor, sig: Signature, group: bool = False) -> Formula:
    """Read one formula, one Python frame per nesting level.

    With group, one layer of grouping parentheses may enclose the formula:
    after '(' and a formula, ')' closes the group and '->' an implication.
    """
    tok = cur.peek()
    if tok == "(":
        cur.take()
        left = _formula(cur, sig)
        if group and cur.peek() == ")":
            cur.take()
            return left
        cur.take(IMPLIES)
        right = _formula(cur, sig)
        cur.take(")")
        return imp(left, right)
    if tok == NOT:
        cur.take()
        return neg(_formula(cur, sig))
    if tok is None or not _IS_NAME.fullmatch(tok):
        cur.fail("expected a formula")
    at = cur.i
    cur.take()
    if tok in METAVARIABLES:
        cur.fail(f"{tok!r} is reserved for axiom metavariables", at=at)
    if cur.peek() == "(":
        cur.take()
        if sig.declares_functions and not sig.has(tok):
            sig.declare(tok, cur.call_arity())
        args = [_formula(cur, sig)]
        while cur.peek() == ",":
            cur.take()
            args.append(_formula(cur, sig))
        cur.take(")")
        if not sig.has(tok):
            cur.fail(f"unknown symbol {tok!r}", UnknownSymbol, at)
        if sig.arity(tok) != len(args):
            cur.fail(f"{tok!r} takes {sig.arity(tok)} arguments, got {len(args)}",
                     ArityMismatch, at)
        return Formula(tok, tuple(args))
    if not sig.has(tok):
        sig.declare(tok, 0)
    elif sig.arity(tok) != 0:
        cur.fail(f"{tok!r} has arity {sig.arity(tok)} and needs arguments", ArityMismatch, at)
    return atom(tok)


def _whole_formula(text: str, sig: Signature, start: int = 0, group: bool = False) -> Formula:
    """The formula that is all of ``text[start:]``."""
    cur = _Cursor(text, start)
    f = _formula(cur, sig, group)
    if cur.peek() is not None:
        cur.fail("expected end of input")
    return f


def parse_formula(text: str, sig: Optional[Signature] = None) -> Formula:
    """Parse a formula, declaring unseen arity-0 symbols in sig."""
    return _whole_formula(text, Signature() if sig is None else sig)


# -- substitution and axiom schemes ------------------------------------------

def subst_syntactic(f: Formula, var: str, replacement: Formula, sig: Signature) -> Formula:
    """Replace every occurrence of the arity-0 symbol var by replacement."""
    if sig.has(var) and sig.arity(var) != 0:
        raise NotAVariable(f"{var!r} has arity {sig.arity(var)}")
    return _substitute(f, {var: replacement})


def _substitute(f: Formula, mapping: Dict[str, Formula]) -> Formula:
    """Simultaneously replace every leaf named in mapping by its formula.

    Maps each distinct inner node of f (by identity) once, with an explicit
    stack, so the result shares subtrees as f does and every copy of a
    replacement is one subtree: cost and result grow with distinct nodes,
    not with tree size or depth.
    """
    if not f.children:
        return mapping.get(f.root, f)
    done: Dict[int, Formula] = {}
    stack = [f]
    while stack:
        node = stack[-1]
        if id(node) in done:
            stack.pop()
            continue
        kids, waiting = [], False
        for c in node.children:
            if not c.children:
                kids.append(mapping.get(c.root, c))
            elif id(c) in done:
                kids.append(done[id(c)])
            else:
                waiting = True
                stack.append(c)
        if not waiting:
            stack.pop()
            done[id(node)] = Formula(node.root, tuple(kids))
    return done[id(f)]


@dataclass(frozen=True)
class AxiomScheme:
    name: str
    metavars: Tuple[str, ...]
    template: Formula

    def __post_init__(self):  # sets leaf_depths: each symbol's greatest depth, the root's being 1
        depths, stack = {}, [(self.template, 1)]
        while stack:
            node, d = stack.pop()
            stack += [(c, d + 1) for c in node.children]
            depths[node.root] = max(d, depths.get(node.root, 0))
        object.__setattr__(self, "leaf_depths", depths)

    def instance_depth(self, binding: Dict[str, Formula]) -> int:
        """The depth of the instance under binding, without building it."""
        return max(self.leaf_depths[mv] - 1 + binding[mv].depth for mv in self.metavars)

    def check_binding(self, binding: Dict[str, Formula]) -> None:
        """Raise MissingBinding unless binding names every metavariable."""
        for mv in self.metavars:
            if mv not in binding:
                raise MissingBinding(f"axiom {self.name} needs {mv}")


_MA, _MB, _MC = atom("alpha"), atom("beta"), atom("gamma")

AXIOM_SCHEMES: Dict[str, AxiomScheme] = {
    "K": AxiomScheme("K", ("alpha", "beta"), imp(_MA, imp(_MB, _MA))),
    "S": AxiomScheme(
        "S",
        ("alpha", "beta", "gamma"),
        imp(imp(_MA, imp(_MB, _MC)), imp(imp(_MA, _MB), imp(_MA, _MC))),
    ),
    "N": AxiomScheme(
        "N", ("alpha", "beta"), imp(imp(neg(_MA), neg(_MB)), imp(_MB, _MA))
    ),
}


def instantiate_axiom(scheme: AxiomScheme, binding: Dict[str, Formula]) -> Formula:
    """Simultaneously substitute the metavariables of the template."""
    scheme.check_binding(binding)
    return _substitute(scheme.template, binding)


# -- proof scripts -------------------------------------------------------------

@dataclass(frozen=True)
class AxiomStep:
    scheme: str
    binding: Dict[str, Formula]
    kind = "axiom"


@dataclass(frozen=True)
class MPStep:
    hyp: int
    imp: int
    kind = "mp"


@dataclass(frozen=True)
class SubstStep:
    source: int
    var: str
    replacement: Optional[Formula] = None
    replacement_step: Optional[int] = None
    kind = "subst"


@dataclass(frozen=True)
class ProofScript:
    name: str
    signature: Signature
    goal: Formula
    steps: Tuple = ()
    qed: int = 0


_PROOF = re.compile(r'proof\s+"([^"]*)"')
_SYMBOL = re.compile(rf"symbol\s+({_NAME})\s+arity\s+([0-9]+)")
_GOAL = re.compile(r"goal\s")
_STEP = re.compile(r"([0-9]+)\s+(axiom|mp|subst)\b\s*")
_MP = re.compile(r"([0-9]+)\s+([0-9]+)")
_SUBST = re.compile(rf"([0-9]+)\s+({_NAME})\s+(with|step)\s+(.+)")
_QED = re.compile(r"qed\s+([0-9]+)")


def parse_proof(text: str) -> ProofScript:
    """Parse a proof script; every ParseError names the line it concerns."""
    lines = [(n, ln) for n, raw in enumerate(text.splitlines(), 1)
             if (ln := raw.partition("#")[0].strip())]
    lines.append((lines[-1][0] if lines else 1, ""))  # end of input
    sig, steps, i = Signature(), [], 1
    n, ln = lines[0]
    try:
        header = _PROOF.fullmatch(ln)
        if not header:
            raise ParseError('proof file must start with: proof "<name>"')
        while lines[i][1].startswith("symbol"):
            n, ln = lines[i]
            m = _SYMBOL.fullmatch(ln)
            if not m:
                raise ParseError("malformed symbol declaration")
            sig.declare(m.group(1), int(m.group(2)))
            i += 1
        n, ln = lines[i]
        if not _GOAL.match(ln):
            raise ParseError("expected a goal line")
        goal = _whole_formula(ln, sig, len("goal"))
        for (n, ln), (next_n, next_ln) in zip(lines[i + 1:], lines[i + 2:]):
            m = _QED.fullmatch(ln)
            if not m:
                steps.append(_step(ln, sig, len(steps) + 1))
                continue
            if next_ln:
                n = next_n
                raise ParseError(f"unexpected content after qed: {next_ln!r}")
            qed = int(m.group(1))
            if not 1 <= qed <= len(steps):
                raise BadQed(f"qed {qed} does not name a step (have {len(steps)})")
            return ProofScript(header.group(1), sig, goal, tuple(steps), qed)
        raise ParseError("missing qed line")
    except ParseError as exc:
        exc.line = n
        raise


def _ref(idx: int, ref: int) -> int:
    """Step idx's reference to an earlier step."""
    if not 1 <= ref < idx:
        raise ForwardReference(f"step {idx} references step {ref}")
    return ref


def _step(ln: str, sig: Signature, idx: int):
    """The step on line ln, which must be numbered idx."""
    m = _STEP.match(ln)
    if not m:
        raise ParseError(f"unrecognized line: {ln!r}")
    got = int(m.group(1))
    if got != idx:
        raise ParseError(f"steps must be numbered consecutively; expected {idx}, got {got}")
    kind = m.group(2)
    if kind == "axiom":
        return _axiom_step(_Cursor(ln, m.end()), sig)
    m = (_MP if kind == "mp" else _SUBST).fullmatch(ln, m.end())
    if not m:
        usage = "mp <h> <i>" if kind == "mp" else (
            "subst <i> <var> with (<formula>) or: subst <i> <var> step <j>")
        raise ParseError(f"malformed {kind} step, expected: {usage}")
    if kind == "mp":
        return MPStep(_ref(idx, int(m.group(1))), _ref(idx, int(m.group(2))))
    src, var = _ref(idx, int(m.group(1))), m.group(2)
    if not sig.has(var):
        sig.declare(var, 0)  # rejects a metavariable
    elif sig.arity(var) != 0:
        raise NotAVariable(f"{var!r} has arity {sig.arity(var)}")
    if m.group(3) == "with":
        return SubstStep(src, var, replacement=_whole_formula(ln, sig, m.start(4), True))
    if not (m.group(4).isascii() and m.group(4).isdecimal()):
        raise ParseError("malformed subst step reference")
    return SubstStep(src, var, replacement_step=_ref(idx, int(m.group(4))))


def _axiom_step(cur: _Cursor, sig: Signature) -> AxiomStep:
    """``<scheme> { mv = formula, ... }``; empty entries between commas are skipped."""
    name = cur.peek()
    if name not in AXIOM_SCHEMES:
        cur.fail("expected an axiom scheme (K, S or N)")
    scheme = AXIOM_SCHEMES[cur.take()]
    cur.take("{")
    binding: Dict[str, Formula] = {}
    while True:
        mv = cur.peek()
        if mv not in (",", "}"):
            if mv not in scheme.metavars:
                cur.fail(f"expected a metavariable of scheme {name}")
            if mv in binding:
                cur.fail(f"duplicate binding for {mv!r}", at=cur.i)
            cur.take()
            cur.take("=")
            binding[mv] = _formula(cur, sig, group=True)
        if cur.take(",", "}") == "}":
            break
    if cur.peek() is not None:
        cur.fail("expected end of input")
    for mv in scheme.metavars:
        if mv not in binding:
            raise ParseError(f"axiom {name} is missing binding for {mv}")
    return AxiomStep(name, binding)


# -- the classical (syntactic) checker ----------------------------------------

def step_formulas(script: ProofScript, *, partial: bool = False) -> List[Formula]:
    """The formula derived at each step, executing the script syntactically.

    The formulas share subtrees (see ``_substitute``), so one substituted
    into itself k times costs its distinct nodes, not its tree, and so does
    the mp check's ``==``; a walk that ignores sharing (``str``) still pays
    for the tree.

    With partial=True, stops at the first broken step and returns the
    prefix instead of raising.
    """
    derived: List[Formula] = []
    for step in script.steps:
        try:
            if isinstance(step, AxiomStep):
                f = instantiate_axiom(AXIOM_SCHEMES[step.scheme], step.binding)
            elif isinstance(step, MPStep):
                hyp = derived[step.hyp - 1]
                impl = derived[step.imp - 1]
                if impl.root != IMPLIES or impl.children[0] != hyp:
                    if partial:
                        return derived
                    raise MPShapeMismatch(
                        f"step {len(derived) + 1}: {formula_text(impl)} "
                        f"does not follow from {formula_text(hyp)} by mp"
                    )
                f = impl.children[1]
            else:
                repl = step.replacement
                if repl is None:
                    repl = derived[step.replacement_step - 1]
                f = subst_syntactic(derived[step.source - 1], step.var, repl, script.signature)
        except NotAVariable:
            if partial:
                return derived
            raise
        derived.append(f)
    return derived


def run_classical(script: ProofScript) -> Formula:
    """Execute the script syntactically; returns the goal on success."""
    derived = step_formulas(script)
    concluded = derived[script.qed - 1]
    if concluded != script.goal:
        proved, goal = formula_text(concluded), formula_text(script.goal)
        raise GoalMismatch(f"proved {proved}, goal was {goal}")
    return concluded
