import copy
import pickle
import re
import time

import pytest
from hypothesis import given
from hypothesis import strategies as st

from polyproof.logic import (
    AXIOM_SCHEMES,
    ArityMismatch,
    AxiomStep,
    BadQed,
    ForwardReference,
    Formula,
    GoalMismatch,
    MissingBinding,
    MPShapeMismatch,
    MPStep,
    NotAVariable,
    ParseError,
    Signature,
    SubstStep,
    UnknownSymbol,
    _substitute,
    atom,
    formula_text,
    imp,
    instantiate_axiom,
    neg,
    parse_formula,
    parse_proof,
    run_classical,
    step_formulas,
    subst_syntactic,
)

from .conftest import load_proof_text

formulas = st.recursive(
    st.sampled_from([atom("x"), atom("y"), atom("z")]),
    lambda inner: st.one_of(
        inner.map(neg),
        st.tuples(inner, inner).map(lambda ab: imp(*ab)),
    ),
    max_leaves=32,
)

# Adds the function symbols g/1 and h/3.
fn_formulas = st.recursive(
    st.sampled_from([atom("x"), atom("y"), atom("c")]),
    lambda inner: st.one_of(
        inner.map(neg),
        st.tuples(inner, inner).map(lambda ab: imp(*ab)),
        inner.map(lambda a: Formula("g", (a,))),
        st.tuples(inner, inner, inner).map(lambda abc: Formula("h", abc)),
    ),
    max_leaves=16,
)


def test_parse_simple_implication():
    f = parse_formula("(A -> A)")
    assert f == imp(atom("A"), atom("A"))


def test_parse_nested():
    f = parse_formula("((x -> y) -> (x -> z))")
    assert f == imp(imp(atom("x"), atom("y")), imp(atom("x"), atom("z")))


def test_parse_negation():
    assert parse_formula("!x") == neg(atom("x"))


def test_parse_error_carries_position():
    with pytest.raises(ParseError) as exc:
        parse_formula("(x ->)")
    assert exc.value.pos is not None


def test_parse_function_application():
    sig = Signature()
    sig.declare("f", 2)
    f = parse_formula("f(x, !y)", sig)
    assert f.root == "f" and len(f.children) == 2


def test_parse_unknown_function():
    with pytest.raises(UnknownSymbol):
        parse_formula("g(x)", Signature())


def test_parse_arity_mismatch():
    sig = Signature()
    sig.declare("f", 2)
    with pytest.raises(ArityMismatch):
        parse_formula("f(x)", sig)
    with pytest.raises(ArityMismatch):
        parse_formula("f", sig)


def test_parse_rejects_metavariable_names():
    with pytest.raises(ParseError):
        parse_formula("(alpha -> x)")


@given(fn_formulas)
def test_print_parse_roundtrip(f):
    sig = Signature()
    sig.declare("g", 1)
    sig.declare("h", 3)
    assert parse_formula(str(f), sig) == f


def test_parse_error_names_the_next_token():
    with pytest.raises(ParseError, match=r"^expected '->', found end of input \(at position 2\)$"):
        parse_formula("(x")
    with pytest.raises(ParseError, match=r"^expected a formula, found '\$' \(at position 6\)$"):
        parse_formula("(x -> $)")


def test_subst_basic(xyz_signature):
    f = imp(atom("x"), atom("y"))
    r = imp(atom("A"), atom("A"))
    assert subst_syntactic(f, "x", r, xyz_signature) == imp(r, atom("y"))


def test_subst_no_occurrence(xyz_signature):
    assert subst_syntactic(atom("y"), "x", atom("z"), xyz_signature) == atom("y")


def test_subst_under_negation(xyz_signature):
    assert subst_syntactic(neg(atom("x")), "x", atom("y"), xyz_signature) == neg(atom("y"))


def test_subst_rejects_function_symbol():
    sig = Signature()
    sig.declare("f", 1)
    with pytest.raises(NotAVariable):
        subst_syntactic(atom("x"), "f", atom("y"), sig)


@given(formulas)
def test_subst_identity(f):
    sig = Signature()
    for name in ("x", "y", "z"):
        sig.declare(name, 0)
    assert subst_syntactic(f, "x", atom("x"), sig) == f


def _naive_substitute(f, mapping):
    if not f.children:
        return mapping.get(f.root, f)
    return Formula(f.root, tuple(_naive_substitute(c, mapping) for c in f.children))


def _distinct_nodes(f):
    seen, stack = set(), [f]
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen.add(id(node))
            stack.extend(node.children)
    return len(seen)


def _leaves(f, memo):
    if id(f) not in memo:
        memo[id(f)] = sum(_leaves(c, memo) for c in f.children) if f.children else 1
    return memo[id(f)]


@given(formulas, st.dictionaries(st.sampled_from(["x", "y", "z"]), formulas, max_size=3))
def test_substitute_matches_naive_reference(f, mapping):
    # The formulas strategy shares its atoms; imp(f, f) also shares a subtree.
    for g in (f, imp(f, f)):
        assert _substitute(g, mapping) == _naive_substitute(g, mapping)


def test_subst_shares_repeated_substitution(xyz_signature):
    r = imp(atom("x"), atom("x"))
    f = r
    for _ in range(40):
        f = subst_syntactic(f, "x", r, xyz_signature)
    assert _leaves(f, {}) == 2**41
    assert _distinct_nodes(f) <= 2 * 40


def test_subst_deep_chain_needs_no_recursion(xyz_signature):
    f = atom("x")
    for _ in range(5000):
        f = neg(f)
    g = subst_syntactic(f, "x", imp(atom("y"), atom("y")), xyz_signature)
    for _ in range(5000):
        assert g.root == "!"
        (g,) = g.children
    assert g == imp(atom("y"), atom("y"))


def test_self_substitution_grows_by_distinct_nodes():
    # dbl-k: K { alpha = x, beta = x } substituted into itself k times.
    k = 10
    text = 'proof "dbl"\ngoal (x -> (x -> x))\n1 axiom K { alpha = x, beta = x }\n'
    text += "".join(f"{n} subst {n - 1} x step {n - 1}\n" for n in range(2, k + 2))
    derived = step_formulas(parse_proof(text + f"qed {k + 1}\n"))
    assert [_distinct_nodes(f) for f in derived[1:]] == [2 ** (n + 1) + 2 for n in range(1, k + 1)]


def test_instantiate_k():
    a, aa = atom("A"), imp(atom("A"), atom("A"))
    got = instantiate_axiom(AXIOM_SCHEMES["K"], {"alpha": a, "beta": aa})
    assert got == parse_formula("(A -> ((A -> A) -> A))")


def test_instantiate_s():
    a, aa = atom("A"), imp(atom("A"), atom("A"))
    got = instantiate_axiom(AXIOM_SCHEMES["S"], {"alpha": a, "beta": aa, "gamma": a})
    assert got == parse_formula("((A -> ((A -> A) -> A)) -> ((A -> (A -> A)) -> (A -> A)))")


def test_instantiate_n():
    x = atom("x")
    got = instantiate_axiom(AXIOM_SCHEMES["N"], {"alpha": x, "beta": x})
    assert got == parse_formula("((!x -> !x) -> (x -> x))")


@given(st.sampled_from(sorted(AXIOM_SCHEMES)), st.lists(fn_formulas, min_size=3, max_size=3))
def test_instance_depth_is_the_depth_of_the_instance(name, bound):
    scheme = AXIOM_SCHEMES[name]
    binding = dict(zip(scheme.metavars, bound))
    assert scheme.instance_depth(binding) == instantiate_axiom(scheme, binding).depth


def test_signature_declaring_functions_takes_the_arity_of_the_first_use():
    sig = Signature(declares_functions=True)
    f = parse_formula("f(g(x), f(!y, (x -> z)))", sig)
    assert str(f) == "f(g(x), f(!y, (x -> z)))"
    assert sig.symbols() == [("f", 2), ("g", 1), ("x", 0), ("y", 0), ("z", 0)]
    for text, message, pos in (
        ("f(x, f(y))", "'f' takes 2 arguments, got 1", 5),  # the first use, read left to right
        ("(x -> x(y))", "'x' takes 0 arguments, got 1", 6),
        ("(f(x) -> f)", "'f' has arity 1 and needs arguments", 9),
    ):
        with pytest.raises(ArityMismatch, match=re.escape(message)) as exc:
            parse_formula(text, Signature(declares_functions=True))
        assert exc.value.pos == pos
    with pytest.raises(ParseError, match="reserved"):
        parse_formula("alpha(x)", Signature(declares_functions=True))


def test_instantiate_missing_binding():
    with pytest.raises(MissingBinding):
        instantiate_axiom(AXIOM_SCHEMES["K"], {"alpha": atom("A")})


def test_parse_proof_fixture():
    script = parse_proof(load_proof_text("imp_refl"))
    assert script.name == "imp_refl"
    assert script.qed == 5
    assert len(script.steps) == 5
    assert isinstance(script.steps[0], AxiomStep)
    assert script.steps[2] == MPStep(1, 2)


def test_parse_proof_subst_variants():
    script = parse_proof(load_proof_text("subst_demo"))
    step = script.steps[5]
    assert isinstance(step, SubstStep) and step.replacement == atom("y")
    script = parse_proof(load_proof_text("subst_step"))
    assert script.steps[2].replacement_step == 1


def test_parse_proof_forward_reference():
    text = """proof "bad"
goal (A -> A)
1 axiom K { alpha = A, beta = A }
2 mp 1 3
3 axiom K { alpha = A, beta = A }
qed 2
"""
    with pytest.raises(ForwardReference):
        parse_proof(text)


def test_parse_proof_bad_qed():
    text = 'proof "empty"\ngoal (A -> A)\nqed 1\n'
    with pytest.raises(BadQed):
        parse_proof(text)


def test_parse_proof_rejects_subst_on_function_symbol():
    text = """proof "bad"
symbol f arity 2
goal (A -> A)
1 axiom K { alpha = A, beta = A }
2 subst 1 f with (A)
qed 2
"""
    with pytest.raises(NotAVariable):
        parse_proof(text)


_PLAIN = ("1 axiom K { alpha = x, beta = y }", "2 subst 1 x with (x -> y)")


def _two_steps(lines):
    return parse_proof('proof "q"\ngoal x\n' + "\n".join(lines) + "\nqed 2\n").steps


@pytest.mark.parametrize("lines", [
    ("1 axiom K { alpha = (x), beta = y }", _PLAIN[1]),
    ("1 axiom K { alpha = x,, beta = y, }", _PLAIN[1]),
    ("1 axiom K { , beta = ( y ),alpha=x }", _PLAIN[1]),
    (_PLAIN[0], "2 subst 1 x with ((x -> y))"),
])
def test_grouping_parens_and_empty_entries_read_as_the_plain_form(lines):
    assert _two_steps(lines) == _two_steps(_PLAIN)


@pytest.mark.parametrize("lines", [
    ("1 axiom K { alpha = ((x)), beta = y }", _PLAIN[1]),
    ("1 axiom K { alpha = (x) y, beta = y }", _PLAIN[1]),
    (_PLAIN[0], "2 subst 1 x with (((x -> y)))"),
    (_PLAIN[0], "2 subst 1 x with !(x)"),
])
def test_only_one_layer_of_grouping_parens(lines):
    with pytest.raises(ParseError, match=r"\(line [34]\)$"):
        _two_steps(lines)


_LONG = "9" * 5000


@pytest.mark.parametrize("text, line, cls", [
    ('proof "p"\ngoal x\n1 axiom K { alpha = x $, beta = y }\nqed 1\n', 3, ParseError),
    ('proof "p"\ngoal x\n\n1 axiom K { alpha = x, beta = y }\n\n', 4, ParseError),
    ('proof "p"\ngoal x\n1 axiom K { alpha = x, beta = y }\nqed 2\n# end\n', 4, BadQed),
    ('proof "p"\nsymbol f arity 1\ngoal x\n1 axiom K { alpha = x, beta = y }\n'
     "2 subst 1 f with (x)\nqed 2\n", 5, NotAVariable),
    ('proof "p"\ngoal x\n1 axiom K { alpha = x, beta = y }\nqed 1\nqed 1\n', 5, ParseError),
    ('proof "p"\ngoal (x ->', 2, ParseError),
    ('proof "p"\n', 1, ParseError),
    # numbers of over 4300 digits, which int() refuses to read
    (f'proof "p"\nsymbol f arity {_LONG}\ngoal x\n1 axiom K {{ alpha = x, beta = y }}\nqed 1\n',
     2, ParseError),
    (f'proof "p"\ngoal x\n{_LONG} axiom K {{ alpha = x, beta = y }}\nqed 1\n', 3, ParseError),
    (f'proof "p"\ngoal x\n1 axiom K {{ alpha = x, beta = y }}\n2 mp 1 {_LONG}\nqed 2\n', 4,
     ParseError),
    (f'proof "p"\ngoal x\n1 axiom K {{ alpha = x, beta = y }}\n2 subst {_LONG} x with (y)\n'
     "qed 2\n", 4, ParseError),
    (f'proof "p"\ngoal x\n1 axiom K {{ alpha = x, beta = y }}\n2 subst 1 x step {_LONG}\n'
     "qed 2\n", 4, ParseError),
    (f'proof "p"\ngoal x\n1 axiom K {{ alpha = x, beta = y }}\nqed {_LONG}\n', 4, ParseError),
])
def test_parse_errors_name_their_line(text, line, cls):
    with pytest.raises(cls) as exc:
        parse_proof(text)
    assert exc.value.line == line
    assert str(exc.value).endswith(f" (line {line})") and "None" not in str(exc.value)


def test_leading_zeros_do_not_count_as_digits():
    z = "0" * 5000
    script = parse_proof(f'proof "p"\nsymbol f arity {z}2\ngoal x\n'
                         f"{z}1 axiom K {{ alpha = x, beta = y }}\n2 mp {z}1 {z}1\n"
                         f"3 subst {z}1 x step {z}2\nqed {z}3\n")
    assert script.signature.arity("f") == 2 and script.qed == 3
    assert script.steps[1] == MPStep(1, 1) and script.steps[2].replacement_step == 2


def test_parse_proof_rejects_bad_numbering():
    text = """proof "bad"
goal (A -> A)
2 axiom K { alpha = A, beta = A }
qed 2
"""
    with pytest.raises(ParseError):
        parse_proof(text)


def test_run_classical_fixture():
    script = parse_proof(load_proof_text("imp_refl"))
    assert run_classical(script) == parse_formula("(A -> A)")


def test_run_classical_swapped_mp():
    script = parse_proof(load_proof_text("imp_refl"))
    steps = list(script.steps)
    steps[2] = MPStep(2, 1)
    bad = type(script)(script.name, script.signature, script.goal, tuple(steps), script.qed)
    with pytest.raises(MPShapeMismatch):
        run_classical(bad)


def test_run_classical_goal_mismatch():
    text = load_proof_text("imp_refl").replace("goal (A -> A)", "goal (A -> !A)")
    with pytest.raises(GoalMismatch):
        run_classical(parse_proof(text))


def test_run_classical_subst_fixtures():
    for name in ("subst_demo", "subst_step", "contrapose_fn"):
        script = parse_proof(load_proof_text(name))
        assert run_classical(script) == script.goal


@given(formulas, formulas)
def test_same_formula_is_structural_equality(f, g):
    assert (f == g) == (str(f) == str(g))
    assert (f != g) == (str(f) != str(g))
    assert imp(f, g) == imp(f, g) and f == f


def test_same_formula_compares_equal_dags_built_apart():
    def doubled(n, leaf):  # 2**n leaves, n + 1 distinct nodes
        f = leaf
        for _ in range(n):
            f = imp(f, f)
        return f

    start = time.perf_counter()
    assert doubled(100, atom("x")) == doubled(100, atom("x"))
    assert doubled(100, atom("x")) != doubled(100, atom("y"))
    deep = [atom("x"), atom("x")]
    for _ in range(5000):
        deep = [neg(f) for f in deep]
    assert deep[0] == deep[1] and deep[0].depth == 5001
    assert time.perf_counter() - start < 1.0


def test_formula_is_immutable_and_unhashable():
    f = imp(atom("x"), neg(atom("y")))
    for field in ("root", "children", "depth"):
        with pytest.raises(AttributeError):
            setattr(f, field, getattr(f, field))
        with pytest.raises(AttributeError):
            delattr(f, field)
    with pytest.raises(TypeError):
        hash(f)
    assert (f.root, f.depth, f.children[1].depth) == ("->", 3, 2)
    for g in (copy.copy(f), copy.deepcopy(f), pickle.loads(pickle.dumps(f))):
        assert g == f and g.depth == 3


@pytest.mark.parametrize("body", [
    "symbol f arity \u0661\ngoal x\n1 axiom K { alpha = x, beta = x }\nqed 1",
    "goal x\n\u0661 axiom K { alpha = x, beta = x }\nqed 1",
    "goal x\n1 axiom K { alpha = x, beta = x }\n2 mp \u0661 1\nqed 2",
    "goal x\n1 axiom K { alpha = x, beta = x }\n2 subst \u0661 x with (y)\nqed 2",
    "goal x\n1 axiom K { alpha = x, beta = x }\n2 subst 1 x step \u0661\nqed 2",
    "goal x\n1 axiom K { alpha = x, beta = x }\nqed \u0661",
])
def test_proof_numbers_are_ascii_digits(body):
    # U+0661 ARABIC-INDIC DIGIT ONE is a Unicode decimal digit, but no
    # arity, step number or step reference.
    parse_proof('proof "p"\n' + body.replace("\u0661", "1"))
    with pytest.raises(ParseError):
        parse_proof('proof "p"\n' + body)


def dbl5_twice_text():
    """dbl5 derived twice, steps 1-6 and 7-12; the mp at step 15 concludes a
    formula whose tree has 3^32 leaves, not the goal."""
    dbl = ["axiom K { alpha = x, beta = x }"] + [f"subst {n} x step {n}" for n in range(1, 6)]
    again = ["axiom K { alpha = x, beta = x }"] + [f"subst {n} x step {n}" for n in range(7, 12)]
    tail = ["axiom K { alpha = y, beta = y }", "subst 13 y step 12", "mp 6 14"]
    lines = [f"{n} {s}" for n, s in enumerate(dbl + again + tail, 1)]
    return 'proof "dbl5twice"\ngoal (y -> (y -> y))\n' + "\n".join(lines) + "\nqed 15\n"


def test_mp_and_goal_checks_on_equal_dags_built_apart():
    # dbl5 is derived twice; the mp at step 15 and the goal check compare
    # separately built DAGs whose trees have 3^32 leaves.
    text = dbl5_twice_text()
    script = parse_proof(text)
    derived = step_formulas(script)
    assert derived[14].root == "->" and derived[14].children[0] is derived[11]
    goal = step_formulas(parse_proof(text))[14]
    assert run_classical(script._replace(goal=goal)) == goal


def test_mismatch_messages_quote_large_formulas_briefly():
    # Each message quotes at most 200 characters of a formula, so it costs
    # no walk of a 3^32-leaf tree; short formulas are quoted in full.
    script = parse_proof(dbl5_twice_text())
    start = time.perf_counter()
    goal = r"goal was \(y -> \(y -> y\)\)$"
    with pytest.raises(GoalMismatch, match=r"^proved \(.{199}\.\.\., " + goal):
        run_classical(script)
    wrong_mp = script._replace(steps=script.steps + (MPStep(6, 6),), qed=16)
    with pytest.raises(MPShapeMismatch, match=r"^step 16: \(.{199}\.\.\. does not follow from"):
        run_classical(wrong_mp)
    assert time.perf_counter() - start < 2


def _recursive_text(f):
    if f.root == "->":
        return f"({_recursive_text(f.children[0])} -> {_recursive_text(f.children[1])})"
    if f.root == "!":
        return "!" + _recursive_text(f.children[0])
    if not f.children:
        return f.root
    return f"{f.root}({', '.join(map(_recursive_text, f.children))})"


@given(fn_formulas, st.integers(0, 80))
def test_formula_text_matches_recursive_reference(f, limit):
    text = _recursive_text(f)
    assert str(f) == formula_text(f, None) == text
    assert formula_text(f, limit) == (text if len(text) <= limit else text[:limit] + "...")


def test_declared_arity_is_bounded_by_the_script_length():
    # Every declared slot costs a variable and a sampled value, and no call in
    # the script can take more arguments than it has characters.
    def script(arity):
        return (f'proof "p"\nsymbol f arity {arity}\ngoal (x -> x)\n'
                "1 axiom K { alpha = x, beta = x }\nqed 1\n")

    size = len(script(10))  # the same for every two-digit arity
    assert size < 100 and parse_proof(script(size)).signature.arity("f") == size
    for arity in (size + 1, 1000000, 10**9):
        with pytest.raises(ParseError, match=rf"^arity {arity} of 'f' exceeds the script's "
                                             rf"length of \d+ characters \(line 2\)$"):
            parse_proof(script(arity))
