"""Proof-script families for the verifier benchmark.

Every case is built as text from a seeded ``random.Random`` and carries the
exit code a correct verifier must give (0 accept, 1 reject).  That answer is
fixed by construction: a valid derivation of its goal, or one corrupted step
on the path to ``qed`` (or a goal that differs from what the steps prove).
The verifier is never asked.  Corruptions change a node count, so the ``d``
entry of the propagated matrix differs from the goal's and a correct
verifier rejects in every mode, at every evaluation point.

Families (the sizes ``k`` and ``n`` of a workload are a fixed multiset
from manifest.json; the seed draws their order, which cases are wrong and
how, the random formulas of ``fn`` and every case's evaluation point):

* ``chain-k``: k independent 5-step proofs of ``(xi -> xi)``, qed the last.
* ``grow-k``: proves ``(x -> x)``, substitutes ``x := (x -> x)`` k times
  (the derived formula doubles at every step), then discards it with
  K, mp, ``subst ... step`` and mp and closes with ``x := y``: goal
  ``(y -> y)``.
* ``dbl-k``: ``K {alpha = x, beta = x}`` substituted into itself k times;
  the goal is step 1's formula, so the answer is reject.
* ``deep-n``: one K axiom whose ``alpha`` is n nested negations.
* ``fn``: one axiom instance over declared function symbols.
* ``collision7`` and ``offpath``: the two known defects (see manifest.json).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path
from typing import List, Optional

ACCEPT, REJECT = 0, 1


@dataclass(frozen=True)
class Case:
    name: str
    text: str
    expect: int
    seed_hex: str
    mode: Optional[str] = None  # --mode value; None keeps the CLI default
    defect: Optional[str] = None  # key of manifest["known_defects"] this case shows

    def argv(self, path: str) -> List[str]:
        argv = ["verify", path, "--seed", self.seed_hex]
        if self.mode is not None:
            argv += ["--mode", self.mode]
        return argv


# -- proof text ------------------------------------------------------------

def _imp(a: str, b: str) -> str:
    return f"({a} -> {b})"


def _refl_block(a: str, base: int, bad: int = 0) -> List[str]:
    """The 5-step proof of (a -> a) as steps base+1..base+5.

    ``bad`` in 1..5 corrupts that step: a binding gains a negation or an
    mp takes its premises in the wrong order.
    """
    aa = _imp(a, a)
    s = [base + i for i in range(1, 6)]
    lines = [
        f"{s[0]} axiom K {{ alpha = {a}, beta = {'!' if bad == 1 else ''}{aa} }}",
        f"{s[1]} axiom S {{ alpha = {a}, beta = {aa}, gamma = {'!' if bad == 2 else ''}{a} }}",
        f"{s[2]} mp {s[1]} {s[0]}" if bad == 3 else f"{s[2]} mp {s[0]} {s[1]}",
        f"{s[3]} axiom K {{ alpha = {a}, beta = {'!' if bad == 4 else ''}{a} }}",
        f"{s[4]} mp {s[2]} {s[3]}" if bad == 5 else f"{s[4]} mp {s[3]} {s[2]}",
    ]
    return lines


def _script(name: str, goal: str, steps: List[str], qed: int, symbols=()) -> str:
    head = [f'proof "{name}"'] + [f"symbol {s} arity {a}" for s, a in symbols]
    return "\n".join(head + [f"goal {goal}"] + steps + [f"qed {qed}"]) + "\n"


def chain_text(k: int, bad: int = 0, offpath: bool = False) -> str:
    """k blocks; ``bad`` corrupts that step of the last block (on the qed
    path), or of the first block when ``offpath`` is set."""
    steps: List[str] = []
    for i in range(1, k + 1):
        hit = (i == 1) if offpath else (i == k)
        steps += _refl_block(f"x{i}", 5 * (i - 1), bad if hit else 0)
    return _script(f"chain{k}", _imp(f"x{k}", f"x{k}"), steps, 5 * k)


GROW_WRONG_GOALS = ("(y -> !y)", "(!y -> y)", "!(y -> y)")


def grow_text(k: int, goal: str = "(y -> y)") -> str:
    steps = _refl_block("x", 0)
    steps += [f"{5 + j} subst {4 + j} x with ((x -> x))" for j in range(1, k + 1)]
    g = 5 + k
    steps += [
        f"{g + 1} axiom K {{ alpha = (x -> x), beta = w }}",
        f"{g + 2} mp 5 {g + 1}",
        f"{g + 3} subst {g + 2} w step {g}",
        f"{g + 4} mp {g} {g + 3}",
        f"{g + 5} subst {g + 4} x with (y)",
    ]
    return _script(f"grow{k}", goal, steps, g + 5)


def dbl_text(k: int) -> str:
    steps = ["1 axiom K { alpha = x, beta = x }"]
    steps += [f"{n} subst {n - 1} x step {n - 1}" for n in range(2, k + 2)]
    # Without the final newline dbl4 is the 149-byte script ROADMAP measures.
    return _script(f"dbl{k}", "(x -> (x -> x))", steps, k + 1).rstrip("\n")


def deep_text(n: int) -> str:
    alpha = "!" * n + "x"
    return _script(f"deep{n}", _imp(alpha, _imp("y", alpha)),
                   [f"1 axiom K {{ alpha = {alpha}, beta = y }}"], 1)


_SCHEMES = {
    "K": (("alpha", "beta"), lambda a, b, c: _imp(a, _imp(b, a))),
    "S": (("alpha", "beta", "gamma"),
          lambda a, b, c: _imp(_imp(a, _imp(b, c)), _imp(_imp(a, b), _imp(a, c)))),
    "N": (("alpha", "beta"), lambda a, b, c: _imp(_imp("!" + a, "!" + b), _imp(b, a))),
}


def _random_term(rng: random.Random, nodes: int, funcs) -> str:
    """A random formula of exactly ``nodes`` nodes over x, y, z, !, -> and
    the given (name, arity) function symbols."""
    if nodes == 1:
        return rng.choice("xyz")
    shapes = [("!", 1)] + ([("->", 2)] if nodes >= 3 else [])
    shapes += [f for f in funcs if f[1] < nodes]
    name, arity = rng.choice(shapes)
    cuts = sorted(rng.sample(range(1, nodes - 1), arity - 1))
    sizes = [b - a for a, b in zip([0] + cuts, cuts + [nodes - 1])]
    args = [_random_term(rng, size, funcs) for size in sizes]
    if name == "!":
        return "!" + args[0]
    if name == "->":
        return _imp(*args)
    return f"{name}({', '.join(args)})"


def fn_text(rng: random.Random, index: int, wrong: bool, nodes=(3, 5, 7)) -> str:
    """One axiom instance whose bindings use declared function symbols.

    The scheme, the arities and the binding sizes follow ``index``, so a
    pass's cost does not depend on the seed; the shapes are random.  A
    wrong case negates one binding in the step but not in the goal.
    """
    funcs = [("f", 1 + index % 3), ("g", 1 + index % 2)]
    scheme = sorted(_SCHEMES)[index % len(_SCHEMES)]
    metavars, template = _SCHEMES[scheme]
    binding = {mv: _random_term(rng, nodes[(index + j) % len(nodes)], funcs)
               for j, mv in enumerate(metavars)}
    goal = template(*(binding.get(mv, "") for mv in ("alpha", "beta", "gamma")))
    if wrong:
        mv = rng.choice(metavars)
        binding[mv] = "!" + binding[mv]
    step = f"1 axiom {scheme} {{ {', '.join(f'{mv} = {binding[mv]}' for mv in metavars)} }}"
    return _script(f"fn-{scheme}", goal, [step], 1, symbols=funcs)


COLLISION7 = _script(
    "collision7", "((x -> x) -> (y -> y))", _refl_block("(x -> y)", 0), 5
)


# -- workloads -------------------------------------------------------------

def sizes(p: dict) -> List[int]:
    """Each size from k_min to k_max, per_k times: every seed covers the
    range the same way, so the size mix (and with it the cost) of a pass
    does not depend on the seed; the seed draws their order."""
    return [k for k in range(p["k_min"], p["k_max"] + 1) for _ in range(p["per_k"])]


def _wrong_set(rng: random.Random, count: int, share: float) -> set:
    return set(rng.sample(range(count), round(count * share)))


def build(workload: str, spec: dict, seed: int, root: Path) -> List[Case]:
    """The case list of one workload; ``spec`` is its manifest entry."""
    rng = random.Random(f"{workload}/{seed}")
    fam = spec["families"]
    mode = spec["mode"]
    out: List[Case] = []

    def add(name, text, expect, defect=None):
        out.append(Case(f"{len(out):02d}-{name}", text, expect,
                        f"{rng.getrandbits(256):064x}", mode, defect))

    if "chain" in fam:
        p = fam["chain"]
        ks = sizes(p)
        wrong = _wrong_set(rng, len(ks), p["wrong_share"])
        for i, k in enumerate(ks):
            bad = rng.randint(1, 5) if i in wrong else 0
            add(f"chain{k}" + (f"-bad{bad}" if bad else ""), chain_text(k, bad),
                REJECT if bad else ACCEPT)
    if "grow" in fam:
        p = fam["grow"]
        ks = sizes(p)
        wrong = _wrong_set(rng, len(ks), p["wrong_share"])
        for i, k in enumerate(ks):
            if i in wrong:
                add(f"grow{k}-badgoal", grow_text(k, rng.choice(GROW_WRONG_GOALS)), REJECT)
            else:
                add(f"grow{k}", grow_text(k), ACCEPT)
    for k in fam.get("dbl", {}).get("k", ()):
        add(f"dbl{k}", dbl_text(k), REJECT, "dbl-replay")
    if "deep" in fam:
        p = fam["deep"]
        for n in p["n"]:
            add(f"deep{n}", deep_text(n), ACCEPT)
        for n in p["over_n"]:
            add(f"deep{n}", deep_text(n), ACCEPT, "deep-recursion")
    if "fn" in fam:
        p = fam["fn"]
        wrong = _wrong_set(rng, p["cases"], p["wrong_share"])
        for i in range(p["cases"]):
            add("fn" + ("-bad" if i in wrong else ""), fn_text(rng, i, i in wrong, p["nodes"]),
                REJECT if i in wrong else ACCEPT)
    for name in fam.get("fixtures", ()):
        add(name, (root / "proofs" / f"{name}.proof").read_text(encoding="utf-8"), ACCEPT)
    if fam.get("collision7"):
        add("collision7", COLLISION7, REJECT, "collision7")
    if "offpath" in fam:
        k = fam["offpath"]["k"]
        add(f"offpath{k}", chain_text(k, bad=3, offpath=True), REJECT, "offpath-break")
    rng.shuffle(out)
    return out
