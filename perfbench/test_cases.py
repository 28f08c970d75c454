"""Checks of the benchmark itself: known verdicts and the layer trace.

Run with ``PYTHONPATH=src python -m pytest perfbench``.
"""

import contextlib
import io
import json
import random
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import cases  # noqa: E402
from polyproof import cli  # noqa: E402
from polyproof.logic import (  # noqa: E402
    GoalMismatch,
    MPShapeMismatch,
    MPStep,
    SubstStep,
    parse_proof,
    run_classical,
    step_formulas,
)

MANIFEST = json.loads((HERE / "manifest.json").read_text(encoding="utf-8"))


def classical_verdict(text):
    script = parse_proof(text)
    try:
        assert run_classical(script) == script.goal
    except (MPShapeMismatch, GoalMismatch):
        return cases.REJECT
    return cases.ACCEPT


def qed_path(script):
    """Step numbers the qed step depends on, itself included."""
    need, todo = set(), [script.qed]
    while todo:
        n = todo.pop()
        if n in need:
            continue
        need.add(n)
        step = script.steps[n - 1]
        if isinstance(step, MPStep):
            todo += [step.hyp, step.imp]
        elif isinstance(step, SubstStep):
            todo += [step.source] + ([step.replacement_step] if step.replacement_step else [])
    return need


def first_broken_step(script):
    derived = step_formulas(script, partial=True)
    return len(derived) + 1 if len(derived) < len(script.steps) else None


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("bad", [0, 1, 2, 3, 4, 5])
def test_chain_verdicts_and_corruption_on_qed_path(k, bad):
    text = cases.chain_text(k, bad)
    assert classical_verdict(text) == (cases.REJECT if bad else cases.ACCEPT)
    script = parse_proof(text)
    assert len(script.steps) == 5 * k
    if bad:
        assert first_broken_step(script) in qed_path(script)


@pytest.mark.parametrize("k", [1, 2, 4])
def test_grow_verdicts(k):
    assert classical_verdict(cases.grow_text(k)) == cases.ACCEPT
    for goal in cases.GROW_WRONG_GOALS:
        assert classical_verdict(cases.grow_text(k, goal)) == cases.REJECT
    script = parse_proof(cases.grow_text(k))
    assert qed_path(script) == set(range(1, len(script.steps) + 1))


def test_dbl_is_a_wrong_goal_and_dbl4_keeps_its_size():
    assert classical_verdict(cases.dbl_text(2)) == cases.REJECT
    assert len(cases.dbl_text(4).encode()) == 149


@pytest.mark.parametrize("n", [0, 1, 7, 40])
def test_deep_verdicts(n):
    assert classical_verdict(cases.deep_text(n)) == cases.ACCEPT


def test_fn_verdicts():
    rng = random.Random(7)
    for i in range(40):
        wrong = i % 3 == 0
        assert classical_verdict(cases.fn_text(rng, i, wrong)) == (
            cases.REJECT if wrong else cases.ACCEPT)


def test_known_defect_cases_are_wrong_proofs():
    assert classical_verdict(cases.COLLISION7) == cases.REJECT
    offpath = parse_proof(cases.chain_text(3, bad=3, offpath=True))
    assert first_broken_step(offpath) == 3
    assert 3 not in qed_path(offpath)


@pytest.mark.parametrize("workload", sorted(MANIFEST["workloads"]))
def test_workload_cases_match_run_classical(workload):
    spec = MANIFEST["workloads"][workload]
    built = cases.build(workload, spec, 1, HERE.parent)
    assert len(built) >= 40  # verify_ms_p75 needs ten cases beyond it
    assert built == cases.build(workload, spec, 1, HERE.parent)
    assert built != cases.build(workload, spec, 2, HERE.parent)
    for case in built:
        assert case.defect is None or case.defect in MANIFEST["known_defects"]
        if case.defect in ("deep-recursion", "dbl-replay"):
            # Too deep for the recursive checker, or a 43M-leaf formula:
            # the families are checked at small sizes above.
            continue
        assert classical_verdict(case.text) == case.expect, case.name


def test_trace_accounts_for_case_time(tmp_path):
    from layers import Tracer

    path = tmp_path / "c.proof"
    path.write_text(cases.grow_text(3), encoding="utf-8")
    argv = ["verify", str(path), "--seed", "01", "--mode", "field"]
    before = dict(vars(cli))
    tracer = Tracer()
    tracer.install()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            assert tracer.wrap_root(cli.main)(argv) == 0
    finally:
        tracer.remove()
    assert dict(vars(cli)) == before
    layer, own = tracer.layer_metrics()
    root = [end - start for name, start, end, parent in tracer.spans if parent < 0]
    assert len(root) == 1
    assert sum(own.values()) == pytest.approx(root[0] * 1000.0)
    assert layer["fingerprint.hom_subst_calls"] == 5
    assert layer["fingerprint.hom_mp_calls"] == 4
    assert layer["logic.subst_syntactic_calls"] == 5
    assert layer["protocol.d_bound_max"] >= 5
    assert layer["mpoly.mul_calls"] == 0


def test_benchmark_json_names_the_metrics_the_run_prints():
    import run
    from layers import Tracer

    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert spec["paths"] == [HERE.name]
    assert {w["name"] for w in spec["workloads"]} == set(MANIFEST["workloads"])
    passes = [[run.CaseRun(0, 1.0, 10, 0.5), run.CaseRun(1, 2.0, 10, 0.6)]] * 2
    end_to_end = set(run.end_to_end(passes, 0.7)) | {"setup_s"}
    assert {m["name"] for m in spec["end_to_end"]} == end_to_end
    layer, _ = Tracer().layer_metrics()
    traced = set(layer) | {"trace.case_ms", "trace.untraced_ms", "trace.overhead_ms",
                           "src.lines"}
    assert {m["name"] for m in spec["per_layer"]} == traced
