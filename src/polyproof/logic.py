"""Formulas, signatures, the concrete syntax, axiom schemes and proof scripts.

Formula grammar (implications always carry their own parentheses, so there
is no precedence to resolve):

    formula := atom
             | '!' formula
             | '(' formula '->' formula ')'
             | name '(' formula {',' formula} ')'

Arity-0 symbols are substitutable variables.  Symbols of positive arity
must be declared before use; bare atoms are declared implicitly while
parsing.  The names ``alpha``, ``beta`` and ``gamma`` are reserved for
axiom-scheme metavariables and are rejected as formula symbols.

Proof scripts are line oriented (``#`` starts a comment):

    proof "<name>"
    symbol <name> arity <k>          # optional, before goal
    goal <formula>
    <n> axiom <K|S|N> { alpha = <formula>, beta = <formula>[, gamma = ...] }
    <n> mp <h> <i>                   # from h: f and i: (f -> g), conclude g
    <n> subst <i> <var> with (<formula>)
    <n> subst <i> <var> step <j>
    qed <n>

Steps are numbered consecutively from 1 and may only reference earlier
steps.  ``run_classical`` executes a script purely syntactically and is
the ground-truth checker the matrix pipeline is tested against.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

IMPLIES = "->"
NOT = "!"
METAVARIABLES = ("alpha", "beta", "gamma")


class ParseError(Exception):
    """Malformed input text; carries a character or line position."""

    def __init__(self, message: str, pos: Optional[int] = None, line: Optional[int] = None):
        loc = ""
        if line is not None:
            loc = f" (line {line})"
        elif pos is not None:
            loc = f" (at position {pos})"
        super().__init__(message + loc)
        self.pos = pos
        self.line = line


class UnknownSymbol(ParseError):
    pass


class ArityMismatch(ParseError):
    pass


class ForwardReference(ParseError):
    pass


class BadQed(ParseError):
    pass


class NotAVariable(Exception):
    """Substitution target has positive arity."""


class MissingBinding(Exception):
    """An axiom scheme metavariable was left unbound."""


class MPShapeMismatch(Exception):
    """Modus ponens: the implication step does not match the hypothesis."""


class GoalMismatch(Exception):
    """The qed step derives a different formula than the declared goal."""


@dataclass(frozen=True)
class Formula:
    root: str
    children: Tuple["Formula", ...] = ()

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


def same_formula(a: Formula, b: Formula) -> bool:
    """Structural equality, without recursion, comparing each pair of nodes once."""
    seen, stack = set(), [(a, b)]
    while stack:
        x, y = stack.pop()
        if x is not y and (id(x), id(y)) not in seen:
            if x.root != y.root or len(x.children) != len(y.children):
                return False
            seen.add((id(x), id(y)))
            stack.extend(zip(x.children, y.children))
    return True


def node_count(f: Formula) -> int:
    return 1 + sum(node_count(c) for c in f.children)


def occurrences(f: Formula, name: str) -> int:
    if not f.children:
        return 1 if f.root == name else 0
    return sum(occurrences(c, name) for c in f.children)


class Signature:
    """Symbol table: name -> arity.  '->' and '!' are always present."""

    def __init__(self):
        self._arity: Dict[str, int] = {IMPLIES: 2, NOT: 1}

    def declare(self, name: str, arity: int) -> None:
        if name in METAVARIABLES:
            raise ParseError(f"{name!r} is reserved for axiom metavariables")
        if not re.fullmatch(r"[A-Za-z_][A-Za-z0-9_]*", name):
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


# -- formula parsing ---------------------------------------------------------

_FORMULA_TOKEN = re.compile(r"\s*(->|[()!,]|[A-Za-z_][A-Za-z0-9_]*)")


def _tokenize_formula(text: str):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _FORMULA_TOKEN.match(text, pos)
        if not m:
            if text[pos:].strip():
                bad = text[pos:].lstrip()
                raise ParseError(f"unexpected character {bad[0]!r}", pos=pos)
            break
        tokens.append((m.group(1), m.start(1)))
        pos = m.end()
    return tokens


def parse_formula(text: str, sig: Optional[Signature] = None) -> Formula:
    """Parse a formula, declaring unseen arity-0 symbols in sig."""
    if sig is None:
        sig = Signature()
    tokens = _tokenize_formula(text)
    pos = 0

    def peek():
        return tokens[pos][0] if pos < len(tokens) else None

    def where():
        return tokens[pos][1] if pos < len(tokens) else len(text)

    def take(expected=None):
        nonlocal pos
        if pos >= len(tokens):
            raise ParseError("unexpected end of formula", pos=len(text))
        tok, at = tokens[pos]
        if expected is not None and tok != expected:
            raise ParseError(f"expected {expected!r}, found {tok!r}", pos=at)
        pos += 1
        return tok, at

    def formula() -> Formula:
        tok = peek()
        if tok == "(":
            take("(")
            left = formula()
            take(IMPLIES)
            right = formula()
            take(")")
            return imp(left, right)
        if tok == NOT:
            take(NOT)
            return neg(formula())
        if tok is None or not re.fullmatch(r"[A-Za-z_][A-Za-z0-9_]*", tok):
            raise ParseError(f"expected a formula, found {tok!r}", pos=where())
        name, at = take()
        if name in METAVARIABLES:
            raise ParseError(f"{name!r} is reserved for axiom metavariables", pos=at)
        if peek() == "(":
            take("(")
            args = [formula()]
            while peek() == ",":
                take(",")
                args.append(formula())
            take(")")
            if not sig.has(name):
                raise UnknownSymbol(f"unknown symbol {name!r}", pos=at)
            if sig.arity(name) != len(args):
                raise ArityMismatch(
                    f"{name!r} takes {sig.arity(name)} arguments, got {len(args)}",
                    pos=at,
                )
            return Formula(name, tuple(args))
        if not sig.has(name):
            sig.declare(name, 0)
        elif sig.arity(name) != 0:
            raise ArityMismatch(
                f"{name!r} has arity {sig.arity(name)} and needs arguments",
                pos=at,
            )
        return atom(name)

    result = formula()
    if pos < len(tokens):
        raise ParseError(f"trailing input {tokens[pos][0]!r}", pos=tokens[pos][1])
    return result


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
    for mv in scheme.metavars:
        if mv not in binding:
            raise MissingBinding(f"axiom {scheme.name} needs {mv}")
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


def _strip_comment(line: str) -> str:
    idx = line.find("#")
    return line if idx < 0 else line[:idx]


def _split_top_level(text: str, sep: str) -> List[str]:
    parts = []
    depth = 0
    start = 0
    for i, ch in enumerate(text):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        elif ch == sep and depth == 0:
            parts.append(text[start:i])
            start = i + 1
    parts.append(text[start:])
    return parts


def _parse_step_formula(text: str, sig: Signature, line_no: int) -> Formula:
    """Formula text in a step; one layer of grouping parens may be stripped."""
    text = text.strip()
    try:
        return parse_formula(text, sig)
    except ParseError:
        if text.startswith("(") and text.endswith(")"):
            inner = text[1:-1].strip()
            try:
                return parse_formula(inner, sig)
            except ParseError as exc:
                raise ParseError(str(exc), line=line_no) from None
        raise


def parse_proof(text: str) -> ProofScript:
    sig = Signature()
    name = None
    goal = None
    steps: List = []
    qed = None

    lines = [(n, _strip_comment(raw).strip()) for n, raw in enumerate(text.splitlines(), 1)]
    lines = [(n, ln) for n, ln in lines if ln]
    i = 0

    if i >= len(lines) or not lines[i][1].startswith("proof"):
        raise ParseError("proof file must start with: proof \"<name>\"",
                         line=lines[i][0] if i < len(lines) else 1)
    m = re.fullmatch(r'proof\s+"([^"]*)"', lines[i][1])
    if not m:
        raise ParseError('malformed proof header, expected: proof "<name>"', line=lines[i][0])
    name = m.group(1)
    i += 1

    while i < len(lines) and lines[i][1].startswith("symbol"):
        n, ln = lines[i]
        m = re.fullmatch(r"symbol\s+([A-Za-z_][A-Za-z0-9_]*)\s+arity\s+(\d+)", ln)
        if not m:
            raise ParseError("malformed symbol declaration", line=n)
        try:
            sig.declare(m.group(1), int(m.group(2)))
        except ParseError as exc:
            raise ParseError(str(exc), line=n) from None
        i += 1

    if i >= len(lines) or not re.match(r"goal\s", lines[i][1]):
        raise ParseError("expected a goal line", line=lines[i][0] if i < len(lines) else 1)
    n, ln = lines[i]
    try:
        goal = parse_formula(ln[len("goal"):], sig)
    except ParseError as exc:
        raise ParseError(f"bad goal: {exc}", line=n) from None
    i += 1

    while i < len(lines) and qed is None:
        n, ln = lines[i]
        i += 1
        m = re.fullmatch(r"qed\s+(\d+)", ln)
        if m:
            qed = int(m.group(1))
            break
        m = re.match(r"(\d+)\s+(axiom|mp|subst)\b\s*(.*)", ln)
        if not m:
            raise ParseError(f"unrecognized line: {ln!r}", line=n)
        idx = int(m.group(1))
        if idx != len(steps) + 1:
            raise ParseError(
                f"steps must be numbered consecutively; expected {len(steps) + 1}, got {idx}",
                line=n,
            )
        kind, rest = m.group(2), m.group(3)
        if kind == "axiom":
            steps.append(_parse_axiom_step(rest, sig, n))
        elif kind == "mp":
            m2 = re.fullmatch(r"(\d+)\s+(\d+)", rest.strip())
            if not m2:
                raise ParseError("malformed mp step, expected: mp <h> <i>", line=n)
            hyp, impl = int(m2.group(1)), int(m2.group(2))
            for ref in (hyp, impl):
                if not 1 <= ref < idx:
                    raise ForwardReference(
                        f"step {idx} references step {ref}", line=n
                    )
            steps.append(MPStep(hyp, impl))
        else:
            steps.append(_parse_subst_step(rest, sig, idx, n))

    if qed is None:
        raise ParseError("missing qed line")
    if i < len(lines):
        raise ParseError(f"unexpected content after qed: {lines[i][1]!r}", line=lines[i][0])
    if not 1 <= qed <= len(steps):
        raise BadQed(f"qed {qed} does not name a step (have {len(steps)})")
    return ProofScript(name, sig, goal, tuple(steps), qed)


def _parse_axiom_step(rest: str, sig: Signature, line_no: int) -> AxiomStep:
    m = re.fullmatch(r"([A-Za-z]\w*)\s*\{(.*)\}\s*", rest, re.S)
    if not m:
        raise ParseError("malformed axiom step, expected: axiom <scheme> { ... }", line=line_no)
    scheme_name = m.group(1)
    if scheme_name not in AXIOM_SCHEMES:
        raise ParseError(f"unknown axiom scheme {scheme_name!r}", line=line_no)
    scheme = AXIOM_SCHEMES[scheme_name]
    binding: Dict[str, Formula] = {}
    for part in _split_top_level(m.group(2), ","):
        part = part.strip()
        if not part:
            continue
        m2 = re.match(r"([A-Za-z]\w*)\s*=\s*(.+)", part, re.S)
        if not m2:
            raise ParseError(f"malformed binding {part!r}", line=line_no)
        mv = m2.group(1)
        if mv not in scheme.metavars:
            raise ParseError(
                f"{mv!r} is not a metavariable of scheme {scheme_name}", line=line_no
            )
        if mv in binding:
            raise ParseError(f"duplicate binding for {mv!r}", line=line_no)
        binding[mv] = _parse_step_formula(m2.group(2), sig, line_no)
    for mv in scheme.metavars:
        if mv not in binding:
            raise ParseError(f"axiom {scheme_name} is missing binding for {mv}", line=line_no)
    return AxiomStep(scheme_name, binding)


def _parse_subst_step(rest: str, sig: Signature, idx: int, line_no: int) -> SubstStep:
    m = re.fullmatch(
        r"(\d+)\s+([A-Za-z_][A-Za-z0-9_]*)\s+(with|step)\s+(.+)", rest.strip(), re.S
    )
    if not m:
        raise ParseError(
            "malformed subst step, expected: subst <i> <var> with (<formula>) "
            "or: subst <i> <var> step <j>",
            line=line_no,
        )
    src = int(m.group(1))
    if not 1 <= src < idx:
        raise ForwardReference(f"step {idx} references step {src}", line=line_no)
    var = m.group(2)
    if var in METAVARIABLES:
        raise ParseError(f"{var!r} is reserved for axiom metavariables", line=line_no)
    if sig.has(var):
        if sig.arity(var) != 0:
            raise NotAVariable(f"{var!r} has arity {sig.arity(var)}")
    else:
        sig.declare(var, 0)
    if m.group(3) == "with":
        replacement = _parse_step_formula(m.group(4), sig, line_no)
        return SubstStep(src, var, replacement=replacement)
    m2 = re.fullmatch(r"(\d+)", m.group(4).strip())
    if not m2:
        raise ParseError("malformed subst step reference", line=line_no)
    ref = int(m2.group(1))
    if not 1 <= ref < idx:
        raise ForwardReference(f"step {idx} references step {ref}", line=line_no)
    return SubstStep(src, var, replacement_step=ref)


# -- the classical (syntactic) checker ----------------------------------------

def step_formulas(script: ProofScript, *, partial: bool = False) -> List[Formula]:
    """The formula derived at each step, executing the script syntactically.

    The formulas share subtrees (see ``_substitute``), so one substituted
    into itself k times costs its distinct nodes, not its tree; a walk that
    ignores sharing (``str``, ``node_count``) still pays for the tree.

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
                if impl.root != IMPLIES or not same_formula(impl.children[0], hyp):
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
    if not same_formula(concluded, script.goal):
        proved, goal = formula_text(concluded), formula_text(script.goal)
        raise GoalMismatch(f"proved {proved}, goal was {goal}")
    return concluded
