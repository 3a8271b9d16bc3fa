"""Outside-in tracing: spans around qsdcnet's public functions.

The tracer replaces each target attribute with a wrapper that records a span
(name, start, end, parent span, op id) in memory, and puts the original back
on ``uninstall``. Targets are named where the callers look them up: protocol
binds ``apply_noise``, ``apply_encoding`` and ``bell_state`` by name, so they
are wrapped in protocol's namespace as well as in qstate's. A target that no
longer exists is reported as absent, not as an error.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

# (span name, "module" or "module:Class", attribute)
TARGETS = (
    ("protocol.session", "qsdcnet.protocol", "run_qsdc"),
    ("protocol.encode_block", "qsdcnet.protocol", "encode_block"),
    ("protocol.transmit_decode", "qsdcnet.protocol", "transmit_and_decode_block"),
    ("protocol.detection_round", "qsdcnet.protocol", "run_security_detection"),
    ("protocol.state_tables", "qsdcnet.protocol", "_encoding_cumulative"),
    ("protocol.state_tables", "qsdcnet.protocol", "_detection_branch_cumulative"),
    ("protocol.to_jsonl", "qsdcnet.protocol:SessionTranscript", "to_jsonl"),
    ("qstate.apply_noise", "qsdcnet.qstate", "apply_noise"),
    ("qstate.apply_noise", "qsdcnet.protocol", "apply_noise"),
    ("qstate.apply_encoding", "qsdcnet.qstate", "apply_encoding"),
    ("qstate.apply_encoding", "qsdcnet.protocol", "apply_encoding"),
    ("qstate.bell_state", "qsdcnet.qstate", "bell_state"),
    ("qstate.bell_state", "qsdcnet.protocol", "bell_state"),
    ("qstate.fidelity", "qsdcnet.qstate", "fidelity"),
    ("qstate.bell_diagonal", "qsdcnet.qstate:TwoQubitState", "bell_diagonal"),
    ("qstate.state_init", "qsdcnet.qstate:TwoQubitState", "__init__"),
    ("analysis.clopper_pearson", "qsdcnet.analysis", "clopper_pearson"),
    ("analysis.qber", "qsdcnet.analysis", "qber_from_transcript"),
    ("analysis.qber", "qsdcnet.analysis", "qber_from_counts"),
    ("analysis.secrecy", "qsdcnet.analysis", "session_secrecy_report"),
    ("analysis.secrecy", "qsdcnet.analysis", "secrecy_capacity_bound"),
    ("scenario.load", "qsdcnet.cli", "load_scenario"),
    ("scenario.load", "qsdcnet.scenario", "load_scenario"),
    ("scenario.from_dict", "qsdcnet.cli", "scenario_from_dict"),
    ("scenario.from_dict", "qsdcnet.scenario", "scenario_from_dict"),
    ("scenario.digest", "qsdcnet.scenario:Scenario", "digest"),
    ("scenario.message_bits", "qsdcnet.scenario:Scenario", "message_bits"),
    ("netplan.build_plan", "qsdcnet.netplan", "build_plan"),
    ("netplan.verify", "qsdcnet.netplan", "verify_full_connectivity"),
    ("cli.build_report", "qsdcnet.cli", "build_report"),
    ("cli.report_to_json", "qsdcnet.cli", "report_to_json"),
)

# The span the benchmark opens itself around each op.
ROOT_SPAN = "cli.main"

# Per-layer metric -> the spans whose summed self time (per op) it reports.
SELF_TIME_METRICS = {
    "protocol.session.self_s": ("protocol.session",),
    "protocol.encode_block.s": ("protocol.encode_block",),
    "protocol.transmit_decode.s": ("protocol.transmit_decode",),
    "protocol.detection_round.s": ("protocol.detection_round",),
    "protocol.state_tables.s": ("protocol.state_tables",),
    "protocol.to_jsonl.s": ("protocol.to_jsonl",),
    "qstate.s": (
        "qstate.apply_noise",
        "qstate.apply_encoding",
        "qstate.bell_state",
        "qstate.fidelity",
        "qstate.bell_diagonal",
        "qstate.state_init",
    ),
    "analysis.clopper_pearson.s": ("analysis.clopper_pearson",),
    "analysis.qber.s": ("analysis.qber",),
    "analysis.secrecy.s": ("analysis.secrecy",),
    "scenario.from_dict.s": ("scenario.from_dict",),
    "scenario.load.s": ("scenario.load",),
    "scenario.digest.s": ("scenario.digest",),
    "scenario.message_bits.s": ("scenario.message_bits",),
    "netplan.build_plan.s": ("netplan.build_plan",),
    "netplan.verify.s": ("netplan.verify",),
    "cli.build_report.s": ("cli.build_report",),
    "cli.report_to_json.s": ("cli.report_to_json",),
    "cli.main.self_s": (ROOT_SPAN,),
}

# Per-layer metric -> the span whose calls (per op) it counts.
CALL_METRICS = {
    "protocol.encode_block.calls": "protocol.encode_block",
    "protocol.transmit_decode.calls": "protocol.transmit_decode",
    "protocol.detection_round.calls": "protocol.detection_round",
    "qstate.apply_encoding.calls": "qstate.apply_encoding",
    "analysis.clopper_pearson.calls": "analysis.clopper_pearson",
}


def resolve(owner: str):
    """The module or class named ``module`` or ``module:Class``, or None."""
    module_name, _, class_name = owner.partition(":")
    try:
        obj = importlib.import_module(module_name)
    except ImportError:
        return None
    return getattr(obj, class_name, None) if class_name else obj


class Tracer:
    """In-memory span recorder; spans are [name, start, end, parent, op].

    The default clock is process CPU time, the clock the end-to-end op times
    use, so per-layer self times add up to the op times they explain.
    """

    def __init__(self, clock=time.process_time):
        self.clock = clock
        self.spans: list[list] = []
        self.counters: Counter = Counter()
        self.op_id = None
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._installed: list[tuple] = []

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, self.clock(), None, parent, self.op_id])
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self.spans[index][2] = self.clock()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        index = self._open(name)
        try:
            yield
        finally:
            self._close(index)

    def wrap(self, name: str, fn, observe=None):
        """``fn`` recording a span per call; ``observe(result)`` sees each result."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(index)
            if observe is not None:
                observe(result)
            return result

        return traced

    def install(self, targets=TARGETS, observers=None) -> None:
        """Wrap every target that exists; list the missing ones in ``absent``."""
        observers = observers or {}
        absent = []
        for name, owner, attr in targets:
            obj = resolve(owner)
            original = getattr(obj, attr, None) if obj is not None else None
            if original is None:
                absent.append(f"{owner}.{attr}")
                continue
            self._installed.append((obj, attr, original))
            setattr(obj, attr, self.wrap(name, original, observers.get(name)))
        self.absent = absent

    def uninstall(self) -> None:
        for obj, attr, original in reversed(self._installed):
            setattr(obj, attr, original)
        self._installed.clear()


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it that its child spans cover."""
    children = defaultdict(list)
    for index, span in enumerate(spans):
        if span[3] >= 0:
            children[span[3]].append(index)
    result = []
    for index, (_, start, end, _, _) in enumerate(spans):
        covered = 0.0
        reach = start
        for lo, hi in sorted((spans[c][1], spans[c][2]) for c in children[index]):
            lo, hi = max(lo, reach), min(hi, end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        result.append((end - start) - covered)
    return result


def span_totals(spans) -> tuple[dict, Counter]:
    """Summed self time and call count per span name."""
    selfs: dict[str, float] = defaultdict(float)
    calls: Counter = Counter()
    for span, own in zip(spans, self_times(spans)):
        selfs[span[0]] += own
        calls[span[0]] += 1
    return selfs, calls


def absent_spans(absent_targets, targets=TARGETS) -> set[str]:
    """Span names none of whose targets exist."""
    missing = set(absent_targets)
    names = {name for name, _, _ in targets}
    present = {name for name, owner, attr in targets if f"{owner}.{attr}" not in missing}
    return names - present


def layer_metrics(spans, ops: int, absent_names: set[str]) -> tuple[dict, list[str]]:
    """Per-op self times and call counts; metrics whose spans are all absent read 0."""
    selfs, calls = span_totals(spans)
    metrics = {}
    absent_metrics = []
    for metric, names in SELF_TIME_METRICS.items():
        if all(name in absent_names for name in names):
            absent_metrics.append(metric)
        metrics[metric] = sum(selfs.get(name, 0.0) for name in names) / ops
    for metric, name in CALL_METRICS.items():
        if name in absent_names:
            absent_metrics.append(metric)
        metrics[metric] = calls.get(name, 0) / ops
    return metrics, absent_metrics
