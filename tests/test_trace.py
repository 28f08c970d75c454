"""The benchmark's layer trace (``perfbench/layers.py``) on the verifier.

A traced run must end as the untraced run does, and its layer self times
must add up to the whole run: the benchmark reports a workload as incorrect
otherwise.  A wrapper that changes a result or raises out of a callback
shows here first.
"""

import contextlib
import io

import pytest

from polyproof import cli
from polyproof.logic import MPStep, SubstStep, parse_proof

from .conftest import benchmark_cases, benchmark_layers, load_proof_text

CASES = benchmark_cases()


def _run(main, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("name, text, flags, code, replays", [
    # field only, with no subst step: no helper anywhere
    ("chain3", CASES.chain_text(3), ["--mode", "field"], 0, 1),
    # the default mode replays symbolically, which breaks off inside hom_mp, then in the field
    ("chain3_bad5", CASES.chain_text(3, bad=5), [], 1, 2),
    ("imp_refl", load_proof_text("imp_refl"), [], 0, 2),
    # hom_subst in both rings: the symbolic replay, then the field one
    ("subst_demo", load_proof_text("subst_demo"), [], 0, 2),
])
def test_trace_keeps_the_outcome_and_accounts_for_the_run(tmp_path, name, text, flags, code,
                                                          replays):
    path = tmp_path / f"{name}.proof"
    path.write_text(text, encoding="utf-8")
    argv = ["verify", str(path), "--seed", "01", *flags]
    untraced = _run(cli.main, argv)
    tracer = benchmark_layers().Tracer()
    tracer.install()
    try:
        traced = _run(tracer.wrap_root(cli.main), argv)
    finally:
        tracer.remove()
    assert traced == untraced and traced[0] == code
    assert _run(cli.main, argv) == untraced  # remove() restored every name
    layer, own = tracer.layer_metrics()
    roots = [end - start for _, start, end, parent in tracer.spans if parent < 0]
    assert len(roots) == 1
    assert sum(own.values()) == pytest.approx(roots[0] * 1000.0)
    mp_steps = sum(isinstance(step, MPStep) for step in parse_proof(text).steps)
    assert layer["fingerprint.hom_mp_calls"] == mp_steps * replays
    subst_steps = sum(isinstance(step, SubstStep) for step in parse_proof(text).steps)
    assert layer["fingerprint.hom_subst_calls"] == subst_steps * replays


# The exact kernel's work on the default-mode cases above: products, exact
# divisions, failed divisions and the most terms in a product.  A change to the
# monomial representation does the same products and divisions, and the trace
# still sees each one.
@pytest.mark.parametrize("name, text, counts", [
    ("chain3_bad5", CASES.chain_text(3, bad=5), (22, 21, 1, 9)),
    ("imp_refl", load_proof_text("imp_refl"), (8, 8, 0, 7)),
    ("subst_demo", load_proof_text("subst_demo"), (16, 8, 0, 7)),
])
def test_trace_counts_the_exact_kernels_operations(tmp_path, name, text, counts):
    path = tmp_path / f"{name}.proof"
    path.write_text(text, encoding="utf-8")
    tracer = benchmark_layers().Tracer()
    tracer.install()
    try:
        _run(tracer.wrap_root(cli.main), ["verify", str(path), "--seed", "01"])
    finally:
        tracer.remove()
    layer, _ = tracer.layer_metrics()
    assert tuple(layer[f"mpoly.{key}"] for key in (
        "mul_calls", "div_exact_calls", "not_divisible", "terms_max")) == counts
