"""Outside-in layer spans for the traced benchmark run.

The tracer wraps the functions ``ramimo.harness`` calls into the other
modules (plus ``channel`` -> ``numerics.sample_complex_gaussian_matrix``) by
rebinding the names in the calling module for the duration of one call, so
``src/`` stays untouched.  Every wrapped call records a span (name, start,
end, parent); spans stay in memory and are aggregated after the call.  Self
time is a span's duration minus the durations of its child spans.
"""

import importlib
import math
import time
from contextlib import contextmanager

ROOT_SPAN = "harness.run"

# (module the call is made from, attribute, span name)
TARGETS = (
    ("harness", "build_transmit_codebook", "codebook.build_transmit_codebook"),
    ("harness", "build_feedback_codebook", "codebook.build_feedback_codebook"),
    ("harness", "cross_gram", "feedback.cross_gram"),
    ("harness", "draw_user_channel", "channel.draw_user_channel"),
    ("channel", "sample_complex_gaussian_matrix", "numerics.sample_complex_gaussian_matrix"),
    ("harness", "mrc_effective_channel", "channel.mrc_effective_channel"),
    ("harness", "compute_feedback", "feedback.compute_feedback"),
    ("harness", "feedback_vector", "feedback.feedback_vector"),
    ("harness", "gap_sample_delta_ra", "feedback.gap_sample_delta_ra"),
    ("harness", "schedule_bruteforce", "scheduler.schedule_bruteforce"),
    ("harness", "zf_schedule", "harness.zf_schedule"),
    ("harness", "zf_decision_for", "scheduler.zf_decision_for"),
    ("harness", "rate_with_beams", "rates.rate_with_beams"),
    ("harness", "realize_rates", "scheduler.realize_rates"),
    ("harness", "empirical_D", "bounds.empirical_D"),
)

CODEBOOK_SPANS = ("codebook.build_transmit_codebook", "codebook.build_feedback_codebook", "feedback.cross_gram")

# per-layer metric -> unit; every traced run emits all of them, 0 where a layer does not run
LAYER_UNITS = {
    "feedback.compute_feedback.s": "s",
    "feedback.compute_feedback.calls": "count",
    "feedback.compute_feedback.us_per_call": "us",
    "feedback.compute_feedback.self_share": "ratio",
    "feedback.gap_mean_nats": "nats",
    "feedback.scalar_products": "count",
    "scheduler.schedule_bruteforce.s": "s",
    "scheduler.schedule_bruteforce.calls": "count",
    "scheduler.schedule_bruteforce.us_per_call": "us",
    "scheduler.set_size_mean": "users",
    "scheduler.misprediction_nats": "nats",
    "harness.zf_schedule.self_s": "s",
    "harness.zf_schedule.calls": "count",
    "scheduler.zf_decision_for.s": "s",
    "scheduler.zf_decision_for.calls": "count",
    "rates.rate_with_beams.s": "s",
    "rates.rate_with_beams.calls": "count",
    "channel.draw_user_channel.self_s": "s",
    "channel.draw_user_channel.calls": "count",
    "numerics.sample_complex_gaussian_matrix.s": "s",
    "numerics.sample_complex_gaussian_matrix.calls": "count",
    "scheduler.realize_rates.s": "s",
    "scheduler.realize_rates.calls": "count",
    "channel.mrc_effective_channel.s": "s",
    "channel.mrc_effective_channel.calls": "count",
    "feedback.gap_sample_delta_ra.s": "s",
    "feedback.gap_sample_delta_ra.calls": "count",
    "bounds.empirical_D.s": "s",
    "bounds.empirical_D.calls": "count",
    "bounds.empirical_D.us_per_sample": "us",
    "codebook.build_s": "s",
    "harness.run.s": "s",
    "harness.self_s": "s",
    "harness.child_cover_frac": "ratio",
    "harness.trace_overhead_frac": "ratio",
}


class Tracer:
    """In-memory span recorder plus the counts read off wrapped results."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1]
        self._stack = []
        self.gaps = []
        self.scalar_products = 0
        self.set_sizes = []
        self.mispredictions = []
        self.empd_samples = 0
        self._last_decision = None  # (decision, predicted sum rate)

    def span(self, name, fn, *args, **kwargs):
        parent = self._stack[-1] if self._stack else -1
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), 0.0, parent])
        self._stack.append(idx)
        try:
            return fn(*args, **kwargs)
        finally:
            self.spans[idx][2] = time.perf_counter()
            self._stack.pop()

    def wrap(self, name, fn):
        observe = getattr(self, "_observe_" + name.rsplit(".", 1)[1], None)

        def traced(*args, **kwargs):
            out = self.span(name, fn, *args, **kwargs)
            if observe is not None:
                observe(args, out)
            return out

        return traced

    def _observe_compute_feedback(self, args, msg):
        self.scalar_products += msg.scalar_product_count
        if msg.gap is not None:
            self.gaps.append(msg.gap)

    def _observe_schedule_bruteforce(self, args, decision):
        self.set_sizes.append(len(decision.assignment))
        self._last_decision = (decision, decision.predicted_sum_rate)

    def _observe_zf_schedule(self, args, out):
        decision, predicted = out
        self.set_sizes.append(len(decision.users))
        self._last_decision = (decision, predicted)

    def _observe_realize_rates(self, args, report):
        if self._last_decision is not None and args[0] is self._last_decision[0]:
            self.mispredictions.append(self._last_decision[1] - report.sum)
        self._last_decision = None

    def _observe_empirical_D(self, args, out):
        self.empd_samples += args[5]


@contextmanager
def instrument(tracer):
    """Rebind every TARGETS name to a traced wrapper; restore on exit."""
    saved = []
    try:
        for mod_name, attr, span_name in TARGETS:
            mod = importlib.import_module("ramimo." + mod_name)
            orig = getattr(mod, attr)
            saved.append((mod, attr, orig))
            setattr(mod, attr, tracer.wrap(span_name, orig))
        yield tracer
    finally:
        for mod, attr, orig in reversed(saved):
            setattr(mod, attr, orig)


def _child_times(spans):
    """Summed duration of each span's direct children."""
    child = [0.0] * len(spans)
    for _, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    return child


def check_spans(spans):
    """Violations of span nesting: children inside parents, self times >= 0."""
    problems = []
    for i, (name, start, end, parent) in enumerate(spans):
        if end < start:
            problems.append(f"span {i} {name} ends before it starts")
        if parent >= 0:
            pname, pstart, pend, _ = spans[parent]
            if start < pstart or end > pend:
                problems.append(f"span {i} {name} lies outside its parent {pname}")
    for i, ((name, start, end, _), child) in enumerate(zip(spans, _child_times(spans))):
        if (end - start) - child < -1e-9:
            problems.append(f"span {i} {name} has negative self time")
    return problems


def layer_metrics(tracer):
    """Per-layer values of one traced call (all LAYER_UNITS except the overhead)."""
    spans = tracer.spans
    child_time = _child_times(spans)
    total, self_total, calls = {}, {}, {}
    for i, (name, start, end, _) in enumerate(spans):
        total[name] = total.get(name, 0.0) + (end - start)
        self_total[name] = self_total.get(name, 0.0) + (end - start) - child_time[i]
        calls[name] = calls.get(name, 0) + 1

    def s(name):
        return total.get(name, 0.0)

    def per_call_us(name, count):
        return s(name) / count * 1e6 if count else 0.0

    run_s = s(ROOT_SPAN)
    all_self = sum(self_total.values())
    m = {}
    for name in (
        "feedback.compute_feedback",
        "scheduler.schedule_bruteforce",
        "scheduler.zf_decision_for",
        "rates.rate_with_beams",
        "numerics.sample_complex_gaussian_matrix",
        "scheduler.realize_rates",
        "channel.mrc_effective_channel",
        "feedback.gap_sample_delta_ra",
        "bounds.empirical_D",
    ):
        m[name + ".s"] = s(name)
        m[name + ".calls"] = calls.get(name, 0)
    for name in ("harness.zf_schedule", "channel.draw_user_channel"):
        m[name + ".self_s"] = self_total.get(name, 0.0)
        m[name + ".calls"] = calls.get(name, 0)
    m["feedback.compute_feedback.us_per_call"] = per_call_us("feedback.compute_feedback", calls.get("feedback.compute_feedback", 0))
    m["feedback.compute_feedback.self_share"] = self_total.get("feedback.compute_feedback", 0.0) / all_self if all_self else 0.0
    m["scheduler.schedule_bruteforce.us_per_call"] = per_call_us("scheduler.schedule_bruteforce", calls.get("scheduler.schedule_bruteforce", 0))
    m["bounds.empirical_D.us_per_sample"] = per_call_us("bounds.empirical_D", tracer.empd_samples)
    m["feedback.gap_mean_nats"] = math.fsum(tracer.gaps) / len(tracer.gaps) if tracer.gaps else 0.0
    m["feedback.scalar_products"] = tracer.scalar_products
    m["scheduler.set_size_mean"] = sum(tracer.set_sizes) / len(tracer.set_sizes) if tracer.set_sizes else 0.0
    m["scheduler.misprediction_nats"] = (
        math.fsum(tracer.mispredictions) / len(tracer.mispredictions) if tracer.mispredictions else 0.0
    )
    m["codebook.build_s"] = sum(s(name) for name in CODEBOOK_SPANS)
    m["harness.run.s"] = run_s
    m["harness.self_s"] = self_total.get(ROOT_SPAN, 0.0)
    m["harness.child_cover_frac"] = 1.0 - m["harness.self_s"] / run_s if run_s else 0.0
    return m
