"""Verifier benchmark: one workload, one seed, one closed-loop run.

Run from the repository root:

    python3 perfbench/run.py --workload steps --seed 1 --seconds 35 --trace 0

The run generates the workload's proof scripts from ``--seed`` (see
``cases.py`` and ``manifest.json``), writes them under ``.perfbench-out/``
and verifies them one after another in this process through
``polyproof.cli.main(["verify", ...])``: one client, nothing in parallel.
Passes over the same case list repeat until ``--seconds`` is used up.
Every exit code is checked against the case's known verdict; an exception
or a deadline overrun is recorded by name as a failure.  End-to-end times
are put at a reference machine speed (see ``case_times``).

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced run (``layers.py``).  Human-readable lines come first;
the last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  ``correct`` is false when a case
fails that is not a known defect listed in ``manifest.json``, or when the
trace does not account for the measured time.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import resource
import signal
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter
from typing import NamedTuple, Union

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"

MIN_PASSES = 3
SETUP_RUNS = 9
SELF_TIME_TOLERANCE = 0.02  # layer self times must sum to the case time within 2%
STAGES = ("cli.self_ms", "logic.parse_proof_ms", "protocol.verify_ms",
          "protocol.verify_symbolic_ms", "protocol.render_ms")


class Deadline(BaseException):
    """Raised by SIGALRM inside a case that overran its deadline.

    A BaseException, so that no ``except Exception`` in the program under
    test can swallow it.
    """


def _on_alarm(signum, frame):
    raise Deadline


class _Node:
    __slots__ = ("a", "b")

    def __init__(self, a, b):
        self.a = a
        self.b = b


def reference_loop():
    """A fixed slice of pure-Python work like the verifier's (small objects,
    tuples, dicts, arithmetic mod 2**61 - 1), timed before every case to
    gauge how fast the machine runs at that moment."""
    acc = {}
    x = 1
    for i in range(800):
        n = _Node(i, i * 7919 % 104729)
        key = tuple(sorted((n.a % 17, n.b % 13)))
        acc[key] = acc.get(key, 0) + n.b
        x = x * 48271 % 2305843009213693951
    return len(acc), x


class CaseRun(NamedTuple):
    outcome: Union[int, str]  # exit code, "timeout", or the escaping exception's name
    ms: float
    out_bytes: int
    reference_ms: float  # reference_loop() just before the case


def run_case(main, case, path, deadline):
    out, err = io.StringIO(), io.StringIO()
    argv = case.argv(path)
    gc.collect()
    start = perf_counter()
    reference_loop()
    reference_ms = (perf_counter() - start) * 1000.0
    start = perf_counter()
    try:
        signal.setitimer(signal.ITIMER_REAL, deadline)
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                outcome = main(argv)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
    except Deadline:
        outcome = "timeout"
    except Exception as exc:  # a traceback is a failure to record, not to hide
        outcome = type(exc).__name__
    ms = (perf_counter() - start) * 1000.0
    return CaseRun(outcome, ms, len(out.getvalue().encode()), reference_ms)


def one_pass(main, cases, paths, deadline):
    return [run_case(main, c, p, deadline) for c, p in zip(cases, paths)]


def run_passes(main, cases, paths, deadline, seconds):
    """At least MIN_PASSES passes; stop before a pass that would end after
    ``seconds``."""
    passes = []
    begin = perf_counter()
    while True:
        start = perf_counter()
        passes.append(one_pass(main, cases, paths, deadline))
        took = perf_counter() - start
        if len(passes) >= MIN_PASSES and perf_counter() - begin + took > seconds:
            return passes


def setup_seconds():
    """Wall times of fresh interpreters importing polyproof.cli."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    times = []
    for _ in range(SETUP_RUNS):
        start = perf_counter()
        subprocess.run([sys.executable, "-c", "import polyproof.cli"], cwd=ROOT, env=env,
                       check=True, stdout=subprocess.DEVNULL)
        times.append(perf_counter() - start)
    return times


def source_lines():
    return sum(len(p.read_text(encoding="utf-8").splitlines())
               for p in sorted((SRC / "polyproof").rglob("*.py")))


def failures(cases, passes):
    """{case name: (case, outcomes that missed the known verdict)}."""
    out = {}
    for results in passes:
        for case, run in zip(cases, results):
            if run.outcome != case.expect:
                out.setdefault(case.name, (case, []))[1].append(run.outcome)
    return out


def report_failures(failed, known):
    if not failed:
        print("failing cases: none")
        return True
    print("failing cases:")
    all_known = True
    for name, (case, outcomes) in sorted(failed.items()):
        seen = ", ".join(sorted({str(o) for o in outcomes}))
        if case.defect in known:
            note = f"known defect {case.defect}, ROADMAP item {known[case.defect]['roadmap_item']}"
        else:
            note = "NOT A KNOWN DEFECT"
            all_known = False
        print(f"  {name}: {seen} x{len(outcomes)} (expected {case.expect}; {note})")
    return all_known


def case_times(passes, reference_ms):
    """Each case's wall time at the reference machine speed.

    On a shared machine, other tenants slow stretches of a run, and
    sometimes whole runs, by up to half.  So every case is timed against
    reference_loop() run just before it: over the run's passes, the lower
    quartile of (case time / reference time), times ``reference_ms``, the
    reference's time where the benchmark was defined.  A slower program
    shows in full; a slower machine mostly cancels.
    """
    return [statistics.quantiles([p[i].ms / p[i].reference_ms for p in passes], n=4,
                                 method="inclusive")[0] * reference_ms
            for i in range(len(passes[0]))]


def end_to_end(passes, reference_ms):
    """The end-to-end metrics.  proofs_per_s counts only cases that returned
    an exit code, over their own time: a timeout or a crash shows in the
    failed count, and the deadline's length is not the program's speed."""
    times = case_times(passes, reference_ms)
    completed = [t for i, t in enumerate(times) if all(isinstance(p[i].outcome, int)
                                                      for p in passes)]
    return {
        "verify_ms_p50": (statistics.median(times), "ms"),
        "verify_ms_p75": (statistics.quantiles(times, n=4, method="inclusive")[2], "ms"),
        "proofs_per_s": (len(completed) / (sum(completed) / 1000.0), "1/s"),
        "transcript_bytes": (statistics.median(sum(r.out_bytes for r in p) for p in passes),
                             "bytes"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def _unit(name):
    if name.endswith("_ms"):
        return "ms"
    if name == "fingerprint.helpers_per_step":
        return "helpers/step"
    if name == "src.lines":
        return "lines"
    return "count"


def traced(main, cases, paths, deadline, seconds, spec, workload, seed, reference_ms):
    """A warm-up pass, then pairs of one untraced and one traced pass until
    ``seconds`` is used up; returns (passes, metrics, trace check ok).

    Layer times are as measured.  The overhead compares the two passes of a
    pair case by case at the reference speed, as ``case_times`` does, so
    that the machine slowing between them does not read as overhead; cases
    that did not return an exit code in both take the deadline's time, not
    the program's, and are left out.
    """
    from layers import Tracer

    begin = perf_counter()
    passes = [one_pass(main, cases, paths, deadline)]
    tracer = Tracer()
    root = tracer.wrap_root(main)
    untraced_ms, overhead_ms, per_pass, self_errors = [], [], [], []
    while True:
        start = perf_counter()
        plain = one_pass(main, cases, paths, deadline)
        tracer.install()
        try:
            results = one_pass(root, cases, paths, deadline)
        finally:
            tracer.remove()
        passes += [plain, results]
        untraced_ms.append(sum(r.ms for r in plain))
        overhead_ms.append(reference_ms * sum(t.ms / t.reference_ms - u.ms / u.reference_ms
                                              for t, u in zip(results, plain)
                                              if isinstance(t.outcome, int)
                                              and isinstance(u.outcome, int)))
        layer, own = tracer.layer_metrics()
        case_ms = sum(r.ms for r in results)
        self_errors.append(abs(sum(own.values()) - case_ms) / case_ms)
        layer["trace.case_ms"] = case_ms
        per_pass.append(layer)
        tracer.dump(OUT / f"trace-{workload}-seed{seed}.jsonl")
        tracer.reset()
        took = perf_counter() - start
        if perf_counter() - begin + took > seconds:
            break

    metrics = {name: statistics.median(p[name] for p in per_pass) for name in per_pass[0]}
    metrics["trace.untraced_ms"] = statistics.median(untraced_ms)
    metrics["trace.overhead_ms"] = statistics.median(overhead_ms)
    metrics["src.lines"] = source_lines()
    ok = max(self_errors) <= SELF_TIME_TOLERANCE
    print(f"trace check: layer self times sum to the traced case time within "
          f"{max(self_errors):.4%} (tolerance {SELF_TIME_TOLERANCE:.0%}): "
          f"{'ok' if ok else 'FAILED'}")
    print(f"tracing overhead: {metrics['trace.overhead_ms']:.1f} ms per pass at the "
          f"reference speed; as measured, {metrics['trace.case_ms']:.1f} ms traced against "
          f"{metrics['trace.untraced_ms']:.1f} ms untraced")
    purpose_checks(metrics, spec.get("purpose", {}))
    return passes, {k: (v, _unit(k)) for k, v in metrics.items()}, ok


def purpose_checks(m, purpose):
    """Print whether the trace confirms what the workload was chosen for."""
    case_ms = m["trace.case_ms"]
    for name, share in purpose.get("share_above", {}).items():
        got = m[name] / case_ms
        print(f"purpose: {name} is {got:.1%} of case time, want > {share:.0%}: "
              f"{'ok' if got > share else 'no'}")
    for name, share in purpose.get("share_below", {}).items():
        got = m[name] / case_ms
        print(f"purpose: {name} is {got:.1%} of case time, want < {share:.0%}: "
              f"{'ok' if got < share else 'no'}")
    if "largest_stage" in purpose:
        top = max(STAGES, key=lambda s: m[s])
        shares = ", ".join(f"{s} {m[s] / case_ms:.1%}" for s in STAGES)
        print(f"purpose: largest stage {top}, want {purpose['largest_stage']}: "
              f"{'ok' if top == purpose['largest_stage'] else 'no'} ({shares})")
    for name in purpose.get("nonzero", ()):
        print(f"purpose: {name} = {m[name]}, want > 0: {'ok' if m[name] > 0 else 'no'}")
    for name in purpose.get("zero", ()):
        print(f"purpose: {name} = {m[name]}, want 0: {'ok' if m[name] == 0 else 'no'}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "polyproof" / "cli.py").is_file():
        print(f"error: no polyproof sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from polyproof import cli

    import cases as families

    manifest = json.loads((HERE / "manifest.json").read_text(encoding="utf-8"))
    if args.workload not in manifest["workloads"]:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    spec = manifest["workloads"][args.workload]
    deadline = manifest["deadline_s"]

    setup = setup_seconds() if args.trace == 0 else None
    cases = families.build(args.workload, spec, args.seed, ROOT)
    signal.signal(signal.SIGALRM, _on_alarm)
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        paths = []
        for case in cases:
            path = Path(tmp) / f"{case.name}.proof"
            path.write_text(case.text, encoding="utf-8")
            paths.append(str(path))
        measured = perf_counter()
        if args.trace == 0:
            passes = run_passes(cli.main, cases, paths, deadline, args.seconds)
            metrics = end_to_end(passes, manifest["reference_ms"])
            calls = [r.ms for p in passes for r in p]
            refs = statistics.median(r.reference_ms for p in passes for r in p)
            # Set-up runs in other processes, so it takes the run's typical speed.
            metrics["setup_s"] = (statistics.median(setup) * manifest["reference_ms"] / refs,
                                  "s")
            notes = [
                f"as measured: verify_ms_p50 {statistics.median(calls):.4f}  verify_ms_p75 "
                f"{statistics.quantiles(calls, n=4, method='inclusive')[2]:.4f} over all calls"
                f"  setup_s {statistics.median(setup):.4f}  reference_loop() median "
                f"{refs:.4f} ms (scaled to {manifest['reference_ms']} ms)",
            ]
            with open(OUT / f"timings-{args.workload}-seed{args.seed}.json", "w",
                      encoding="utf-8") as fh:
                json.dump({"cases": [c.name for c in cases], "passes": passes}, fh)
            trace_ok = True
        else:
            passes, metrics, trace_ok = traced(cli.main, cases, paths, deadline, args.seconds,
                                               spec, args.workload, args.seed,
                                               manifest["reference_ms"])
            notes = []
        measured = perf_counter() - measured

    attempted = len(cases) * len(passes)
    failed = failures(cases, passes)
    n_failed = sum(len(outcomes) for _, outcomes in failed.values())
    print(f"workload {args.workload}  seed {args.seed}  mode {spec['mode'] or 'default'}  "
          f"cases/pass {len(cases)}  passes {len(passes)}  measured {measured:.1f} s  "
          f"deadline {deadline} s  trace {args.trace}")
    for line in notes:
        print(line)
    for name, (value, unit) in metrics.items():
        print(f"  {name:<36} {value:>14.4f} {unit}")
    print(f"  {'failed_share':<36} {n_failed / attempted:>14.4f} share "
          f"({n_failed} of {attempted} case runs)")
    all_known = report_failures(failed, manifest["known_defects"])

    result = {
        "correct": all_known and trace_ok,
        "attempted": attempted,
        "failed": n_failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
