"""Layer trace for the verifier benchmark, installed from outside the package.

Module functions are wrapped in the namespace that calls them: ``protocol``
imports ``hom_mp``, ``encode``, ``step_formulas`` and friends by name, so a
wrapper placed only in the defining module would never fire.  Wrapping in
the caller's namespace also leaves recursive calls (``fingerprint.encode``
calling itself) unwrapped, so one span covers one top-level call.

Layer boundaries record spans (name, start, end, parent) in memory.  The
hot methods (``EncMatrix.__mul__``, ``FieldElem`` arithmetic,
``MPoly.__mul__``) are wrapped on their class and only counted, or timed
in aggregate, because a span per call would cost more than the call.
"""

from __future__ import annotations

import functools
import json
from collections import Counter, defaultdict
from time import perf_counter

from polyproof import cli, encmat, ffield, fingerprint, logic, mpoly, protocol

# (metric prefix, module holding the name, name): spans.
SPANS = (
    ("logic.parse_proof", cli, "parse_proof"),
    ("protocol.verify", cli, "verify"),
    ("protocol.verify_symbolic", cli, "verify_symbolic"),
    ("protocol.tracked_atoms", protocol, "tracked_atoms"),
    ("protocol.proof_degree_bound", protocol, "proof_degree_bound"),
    ("logic.step_formulas", protocol, "step_formulas"),
    ("protocol.propagate", protocol, "propagate"),
    ("fingerprint.encode", protocol, "encode"),
    ("fingerprint.encode_fingerprint", protocol, "encode_fingerprint"),
    ("fingerprint.encode_fingerprint", fingerprint, "encode_fingerprint"),
    ("fingerprint.hom_mp", protocol, "hom_mp"),
    ("fingerprint.hom_subst", protocol, "hom_subst"),
    ("fingerprint.hom_subst", fingerprint, "hom_subst"),
)

# (counter, module holding the name, name): call counts only.
COUNTED = (
    ("logic.instantiate_axiom_calls", protocol, "instantiate_axiom"),
    ("logic.instantiate_axiom_calls", logic, "instantiate_axiom"),
    ("logic.subst_syntactic_calls", logic, "subst_syntactic"),
    ("encmat.elem_inv_mul_calls", fingerprint, "elem_inv_mul"),
    ("ffield.inv_calls", ffield.FieldElem, "inv"),
    ("ffield.elem_ops", ffield.FieldElem, "__add__"),
    ("ffield.elem_ops", ffield.FieldElem, "__sub__"),
    ("ffield.elem_ops", ffield.FieldElem, "__mul__"),
)

# Span names whose inclusive time is reported as <name>_ms.
TIMED_SPANS = tuple(dict.fromkeys(name for name, _, _ in SPANS)) + (
    "protocol.assignment",
    "protocol.render",
)
CALL_COUNTS = (
    "fingerprint.encode_fingerprint",
    "fingerprint.hom_mp",
    "fingerprint.hom_subst",
)
COUNTERS = tuple(dict.fromkeys(name for name, _, _ in COUNTED)) + (
    "encmat.mul_calls_field",
    "encmat.mul_calls_symbolic",
    "ffield.points_sampled",
    "mpoly.mul_calls",
    "mpoly.div_exact_calls",
    "mpoly.not_divisible",
)
ROOT = "cli.main"


class Tracer:
    """Spans and counters of one traced pass; ``reset`` starts the next."""

    def __init__(self):
        self._undo = []
        self.spans = []  # (name, start, end, parent index or -1)
        self._stack = []
        self.counts = Counter()
        self.seconds = defaultdict(float)  # aggregate time of hot methods
        self.maxima = Counter()
        self.helpers = 0
        self.steps = 0

    def reset(self):
        """Clear in place: the installed wrappers hold these containers."""
        self.spans.clear()
        self._stack.clear()
        self.counts.clear()
        self.seconds.clear()
        self.maxima.clear()
        self.helpers = 0
        self.steps = 0

    # -- wrappers ------------------------------------------------------------

    def span(self, name, fn, on_result=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[index] = (name, start, end, parent)
            if on_result is not None:
                on_result(result)
            return result

        return wrapper

    def counted(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _patch(self, owner, attr, value):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    # -- install / remove ----------------------------------------------------

    def install(self):
        for name, owner, attr in SPANS:
            on_result = None
            if attr == "propagate":
                on_result = self._on_propagate
            elif attr == "proof_degree_bound":
                on_result = self._on_degree_bound
            self._patch(owner, attr, self.span(name, getattr(owner, attr), on_result))
        for name, owner, attr in COUNTED:
            self._patch(owner, attr, self.counted(name, owner.__dict__[attr]))

        from_seed = protocol.Assignment.__dict__["from_seed"].__func__
        self._patch(protocol.Assignment, "from_seed",
                    classmethod(self.span("protocol.assignment", from_seed)))
        self._patch(protocol.Transcript, "render",
                    self.span("protocol.render", protocol.Transcript.render))

        counts, seconds, maxima = self.counts, self.seconds, self.maxima
        enc_mul = encmat.EncMatrix.__mul__
        poly_type = mpoly.MPoly

        def enc_mul_counted(a, b):
            if type(a.a) is poly_type:
                counts["encmat.mul_calls_symbolic"] += 1
            else:
                counts["encmat.mul_calls_field"] += 1
            return enc_mul(a, b)

        poly_mul = mpoly.MPoly.__mul__

        def poly_mul_timed(a, b):
            start = perf_counter()
            result = poly_mul(a, b)
            seconds["mpoly.mul"] += perf_counter() - start
            counts["mpoly.mul_calls"] += 1
            if len(result._terms) > maxima["mpoly.terms_max"]:
                maxima["mpoly.terms_max"] = len(result._terms)
            return result

        div_exact = mpoly.MPoly.div_exact_by_var

        def div_exact_counted(poly, v):
            counts["mpoly.div_exact_calls"] += 1
            try:
                return div_exact(poly, v)
            except mpoly.NotDivisible:
                counts["mpoly.not_divisible"] += 1
                raise

        sample = ffield.PointSampler.next

        def sample_timed(sampler):
            start = perf_counter()
            result = sample(sampler)
            seconds["ffield.sample"] += perf_counter() - start
            counts["ffield.points_sampled"] += 1
            return result

        self._patch(encmat.EncMatrix, "__mul__", enc_mul_counted)
        self._patch(mpoly.MPoly, "__mul__", poly_mul_timed)
        self._patch(mpoly.MPoly, "div_exact_by_var", div_exact_counted)
        self._patch(ffield.PointSampler, "next", sample_timed)

    def remove(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def _on_propagate(self, result):
        records, _ = result
        self.steps += len(records)
        self.helpers += sum(len(rec.fingerprint.helpers) for rec in records)

    def _on_degree_bound(self, d):
        self.maxima["protocol.d_bound_max"] = max(self.maxima["protocol.d_bound_max"], d)

    # -- results -------------------------------------------------------------

    def wrap_root(self, fn):
        return self.span(ROOT, fn)

    def layer_metrics(self):
        """Per-pass layer numbers: inclusive ms per span name, self ms per
        span name, call counts and maxima."""
        inclusive = defaultdict(float)
        own = defaultdict(float)
        calls = Counter()
        for name, start, end, parent in self.spans:
            took = (end - start) * 1000.0
            inclusive[name] += took
            own[name] += took
            calls[name] += 1
            if parent >= 0:
                own[self.spans[parent][0]] -= took
        out = {f"{name}_ms": inclusive[name] for name in TIMED_SPANS}
        out["cli.self_ms"] = own[ROOT]
        out.update({f"{name}_calls": calls[name] for name in CALL_COUNTS})
        out.update({name: self.counts[name] for name in COUNTERS})
        out["ffield.sample_ms"] = self.seconds["ffield.sample"] * 1000.0
        out["mpoly.mul_ms"] = self.seconds["mpoly.mul"] * 1000.0
        out["mpoly.terms_max"] = self.maxima["mpoly.terms_max"]
        out["protocol.d_bound_max"] = self.maxima["protocol.d_bound_max"]
        out["fingerprint.helpers_per_step"] = self.helpers / self.steps if self.steps else 0.0
        return out, dict(own)

    def dump(self, path):
        """Write the spans of the current pass as JSON lines."""
        with open(path, "w", encoding="utf-8") as fh:
            for index, (name, start, end, parent) in enumerate(self.spans):
                fh.write(json.dumps({"id": index, "name": name, "start": start,
                                     "end": end, "parent": parent}) + "\n")
