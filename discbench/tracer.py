"""Spans around calls into discbraid, recorded from outside the program.

``Tracer.install`` replaces each wrap target at the name where the program
looks it up (a module global or a class attribute) with a wrapper that
records a span: name, start, end, parent span and task id.  Spans stay in
memory until the run writes them out.  ``uninstall`` restores the original
objects, so untraced rounds run the program unchanged.

A target that the program no longer has is reported as absent; its metrics
read zero.
"""

from __future__ import annotations

import importlib
import math
import time
from collections import defaultdict

from discbraid.errors import DegenerateConfigurationError

# layer name -> every (module, attribute path) where the program looks it up
TARGETS = {
    "seifert.matrix_signature": [("discbraid.seifert", "matrix_signature")],
    "seifert.seifert_matrix": [("discbraid.seifert", "seifert_matrix")],
    "loops.gg_loop": [("discbraid.estimator", "gg_loop")],
    "loops.loop_braid": [("discbraid.estimator", "loop_braid")],
    "flows.flow_path": [("discbraid.loops", "flow_path"), ("discbraid.flows", "flow_path")],
    "flows.angular_rate_float": [("discbraid.flows", "FlowSpec.angular_rate_float")],
    "flows.lp_length_radial": [("discbraid.flows", "lp_length_radial")],
    "flows.lp_length_exact_even": [("discbraid.flows", "lp_length_exact_even")],
    "profiles.RadialProfile.derivative": [("discbraid.profiles", "RadialProfile.derivative")],
    "braids.linking_number": [("discbraid.quasimorphisms", "linking_number")],
    "estimator.estimate_phi_n": [("discbraid.estimator", "estimate_phi_n")],
    "estimator._lk2_chunk_values": [("discbraid.estimator", "_lk2_chunk_values")],
    "lengths.lp_length_sampled": [("discbraid.lengths", "lp_length_sampled")],
}

# layers whose per-call latency is reported; the others get calls and busy time
LATENCY = [name for name in TARGETS if name != "profiles.RadialProfile.derivative"]
TAIL_PERCENTILES = (99.9, 99.0, 90.0)


def _resolve(module_name: str, path: str):
    owner = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part)
    return owner, attr


def _exists(module_name: str, path: str) -> bool:
    try:
        owner, attr = _resolve(module_name, path)
    except (ImportError, AttributeError):
        return False
    return attr in owner.__dict__


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []  # (layer, start_ns, end_ns, parent index, task)
        self.stack: list[int] = []
        self.task = ""
        self.values: dict[str, list[int]] = defaultdict(list)
        self.degenerate = 0
        self.absent = sorted(
            name for name, places in TARGETS.items()
            if not all(_exists(m, p) for m, p in places)
        )
        self._saved: list[tuple] = []

    def install(self):
        """Wrap every present target; spans go to a fresh list."""
        self.spans = []
        self.stack = []
        for name, places in TARGETS.items():
            if name in self.absent:
                continue
            for module_name, path in places:
                owner, attr = _resolve(module_name, path)
                original = owner.__dict__[attr]
                self._saved.append((owner, attr, original))
                setattr(owner, attr, self._wrap(name, original))

    def uninstall(self):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def _wrap(self, name, fn):
        spans, stack, values = self.spans, self.stack, self.values
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except DegenerateConfigurationError:
                if name == "loops.loop_braid":
                    self.degenerate += 1
                raise
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, stack[-1] if stack else None, self.task)
            if name == "loops.loop_braid":
                values["loops.word_letters"].append(len(result.letters))
            elif name == "seifert.seifert_matrix":
                values["seifert.size"].append(result.size)
            elif name == "estimator.estimate_phi_n":
                values["estimator.accepted"].append(result.samples)
                values["estimator.rejected"].append(result.rejected)
            return result

        traced.__wrapped__ = fn
        return traced

    def counts(self) -> dict[str, float]:
        """Deterministic counts over everything traced so far."""
        v = self.values
        accepted = sum(v["estimator.accepted"])
        rejected = sum(v["estimator.rejected"])
        out = {
            "loops.loop_braid.degenerate": self.degenerate,
            "estimator.configs": accepted + rejected,
            "estimator.accepted": accepted,
            "estimator.rejected": rejected,
            "estimator.accept_ratio": accepted / (accepted + rejected) if accepted + rejected else 0.0,
        }
        for key in ("seifert.size", "loops.word_letters"):
            seq = v[key]
            out[f"{key}.mean"] = sum(seq) / len(seq) if seq else 0.0
            out[f"{key}.max"] = max(seq, default=0)
        return out


def layer_times(spans) -> dict[str, dict]:
    """calls, busy and self time (s), and per-call durations (ns) per layer.

    Busy time counts a span only when no ancestor has the same layer, so
    recursion is not counted twice; self time is a span's duration minus the
    time its direct children cover.
    """
    child_ns = [0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent is not None:
            child_ns[parent] += end - start
    out = {name: {"calls": 0, "busy_s": 0.0, "self_s": 0.0, "durations": []} for name in TARGETS}
    for i, (name, start, end, parent, _) in enumerate(spans):
        entry = out[name]
        entry["calls"] += 1
        entry["durations"].append(end - start)
        entry["self_s"] += (end - start - child_ns[i]) * 1e-9
        p = parent
        while p is not None and spans[p][0] != name:
            p = spans[p][3]
        if p is None:
            entry["busy_s"] += (end - start) * 1e-9
    return out


def percentile(sorted_values, q: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    rank = max(1, math.ceil(len(sorted_values) * q / 100.0 - 1e-9))
    return sorted_values[rank - 1]


def latency(durations_ns) -> tuple[float, float, float]:
    """(p50, tail, tail percentile) in microseconds.

    The tail is the highest of the 99.9th, 99th and 90th percentiles that has
    at least ten calls beyond it, else the slowest call (percentile 100).
    """
    if not durations_ns:
        return 0.0, 0.0, 0.0
    d = sorted(durations_ns)
    for q in TAIL_PERCENTILES:
        if len(d) * (100.0 - q) / 100.0 >= 10:
            return percentile(d, 50) / 1e3, percentile(d, q) / 1e3, q
    return percentile(d, 50) / 1e3, d[-1] / 1e3, 100.0
