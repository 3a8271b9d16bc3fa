"""One workload in one fresh interpreter: set up, time ops, check outputs.

Started by run.py, never imported. Set-up is everything from interpreter
start to ready: ``import qsdcnet.cli``, writing the workload's scenario
file, and one untimed warm-up op. Calibration chunks (see ``calibrate``)
run before the import, after set-up and after every timed op, and each
time is also given in reference seconds (see ``reference_seconds``);
set-up time leaves out the chunk before the import. The child then times ops
until ``--seconds`` have passed, checks each op's outputs (untimed), reruns
the first op's inputs and requires byte-identical outputs, and prints one
JSON object on its last stdout line.

With ``--trace 1`` it alternates untraced and traced ops, each with fresh
inputs, and reports per-layer metrics from the traced ones plus the tracing
overhead (traced over untraced median op time, in reference seconds).
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import random
import resource
import shutil
import statistics
import sys
import time
import traceback
from collections import deque
from pathlib import Path

import tracer as tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
CAL_SHARE = 0.15  # calibration CPU time per CPU second measured
REF_UNIT_S = 0.004  # reference seconds per calibration unit: its median CPU time on a shared 2-core VM
CAL_UNIT_SYMBOLS = 1000
SETUP_GUESS_S = 2.0  # set-up CPU seconds the chunk before the import is sized for


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--work", required=True)
    return parser.parse_args(argv)


class Runner:
    """Runs ops through ``cli.main`` and checks them."""

    def __init__(self, cli, protocol, workload, work: Path):
        self.cli = cli
        self.protocol = protocol
        self.workload = workload
        self.work = work
        self.failures: list[str] = []
        self.attempted = 0
        self.last_wall = 0.0

    def call(self, argv):
        """One ``cli.main(argv)`` call with stdout and stderr captured: (rc, stdout)."""
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = self.cli.main(argv)
        return rc, out.getvalue()

    def timed(self, op, tracer=None):
        """Run ``op``, traced when given a tracer; check it untimed and untraced.

        Returns (CPU seconds, outcome), the outcome None when the op failed.
        The op is timed in process CPU time, which on this single-threaded
        process is the host time the op used, without the time the process
        waited for a core on a shared host; wall time is kept beside it.
        """
        gc.collect()
        out, err = io.StringIO(), io.StringIO()
        self.attempted += 1
        error = None
        if tracer is not None:
            misses_before = table_misses(self.protocol)
            tracer.install(observers=observers(tracer.counters))
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                wall_started = time.perf_counter()
                started = time.process_time()
                try:
                    if tracer is None:
                        rc = self.cli.main(op.argv)
                    else:
                        with tracer.span(tracing.ROOT_SPAN):
                            rc = self.cli.main(op.argv)
                except (Exception, SystemExit):  # argparse exits on a rejected argv
                    rc, error = None, traceback.format_exc()
                seconds = time.process_time() - started
                self.last_wall = time.perf_counter() - wall_started
        finally:
            if tracer is not None:
                tracer.uninstall()
                tracer.counters["protocol.state_tables.misses"] += (
                    table_misses(self.protocol) - misses_before
                )
        if error is not None:
            self.failures.append(f"{op.key}: raised\n{error}")
            return seconds, None
        try:
            return seconds, self.workload.check(op, rc, out.getvalue(), self.call)
        except workloads.CheckFailure as exc:
            self.failures.append(f"{op.key}: {exc}; stderr: {err.getvalue()[-500:]}")
        except Exception:
            self.failures.append(f"{op.key}: check raised\n{traceback.format_exc()}")
        return seconds, None


def calibration_unit(symbols: int = CAL_UNIT_SYMBOLS) -> float:
    """CPU seconds of one fixed unit of pure-Python work.

    The unit does what the program's session loop does per symbol, in
    miniature: build a bit string, slice it into pairs, queue them in a
    deque, fill a dict and serialise records with json. It uses the
    standard library only and never changes, so its time tracks how fast
    the host runs this kind of code at the moment, not the program.
    """
    started = time.process_time()
    rnd = random.Random(1)
    bits = "".join(rnd.choice("01") for _ in range(2 * symbols))
    pending = deque((i, bits[2 * i : 2 * i + 2]) for i in range(symbols))
    delivered = {}
    while pending:
        index, code = pending.popleft()
        delivered[index] = code[::-1]
    "".join(delivered[i] for i in range(symbols))
    json.dumps([{"i": i, "c": c, "t": i * 1e-9} for i, c in delivered.items()])
    return time.process_time() - started


def reference_seconds(cpu_s: float, chunks) -> float:
    """``cpu_s`` CPU seconds in reference seconds, by calibration chunks run beside them.

    A chunk is [units, CPU seconds]. One calibration unit counts as
    REF_UNIT_S, so a time in reference seconds reads the same whether the
    shared host ran fast or slow while it was measured.
    """
    units = sum(chunk[0] for chunk in chunks)
    cpu = sum(chunk[1] for chunk in chunks)
    return cpu_s * REF_UNIT_S * units / cpu


def calibrate(seconds: float) -> list:
    """Run calibration units for about CAL_SHARE of ``seconds``: [units, CPU seconds].

    At least one unit runs. Chunks run before the import and after
    set-up and every op, so each timed interval has one on either side,
    and the host's speed is sampled next to it, however it swings.
    """
    units, cpu = 0, 0.0
    while units == 0 or cpu < CAL_SHARE * seconds:
        cpu += calibration_unit()
        units += 1
    return [units, cpu]


def digest(outputs) -> str:
    hasher = hashlib.sha256()
    for chunk in outputs:
        hasher.update(chunk)
    return hasher.hexdigest()


def table_misses(protocol) -> int:
    """Misses of protocol's density-matrix table caches, where they exist."""
    total = 0
    for name in ("_encoding_cumulative", "_detection_branch_cumulative"):
        info = getattr(getattr(protocol, name, None), "cache_info", None)
        if info is not None:
            total += info().misses
    return total


def observers(counters):
    """Counters read at layer boundaries while tracing."""

    def on_session(transcript):
        summary = getattr(transcript, "summary", {}) or {}
        counters["protocol.transcript_events"] += len(getattr(transcript, "events", ()))
        counters["protocol.transmissions"] += summary.get("transmissions", 0)
        counters["protocol.erased_transmissions"] += summary.get("erased_transmissions", 0)
        counters["protocol.detection_photons"] += summary.get("detection_photons_sent", 0)

    def on_jsonl(text):
        counters["protocol.transcript_bytes"] += len(text.encode())

    return {"protocol.session": on_session, "protocol.to_jsonl": on_jsonl}


def add_counts(total: dict, counts: dict) -> None:
    for key, value in counts.items():
        total[key] = total.get(key, 0) + value


def measure(runner, workload, seconds: float, trace: bool, chunks: list):
    """The timed loop. Returns a dict of raw results.

    A calibration chunk follows every op and is appended to ``chunks``,
    which arrives holding the chunk that followed set-up. Each op's
    reference time comes from the chunks just before and after it.
    """
    op_dir = runner.work / "out" / "op"
    times: list[float] = []
    refs: list[float] = []
    walls: list[float] = []
    op_counts: list = []
    traced_times: list[float] = []
    hasher = hashlib.sha256()
    first = None
    tracer = tracing.Tracer() if trace else None
    trace_counts: dict = {}
    index = 0
    min_ops = 2 if trace else 1
    started = time.monotonic()
    while index < min_ops or time.monotonic() - started < seconds:
        op = workload.make_op(index, op_dir)
        traced_op = trace and index % 2 == 1
        if traced_op:
            tracer.op_id = len(traced_times)
            seconds_taken, outcome = runner.timed(op, tracer)
            chunks.append(calibrate(seconds_taken))
            traced_times.append(reference_seconds(seconds_taken, chunks[-2:]))
            if outcome is not None:
                add_counts(trace_counts, outcome.counts)
        else:
            seconds_taken, outcome = runner.timed(op)
            chunks.append(calibrate(seconds_taken))
            times.append(seconds_taken)
            refs.append(reference_seconds(seconds_taken, chunks[-2:]))
            walls.append(runner.last_wall)
            op_counts.append(outcome.counts if outcome is not None else None)
        if outcome is not None:
            for chunk in outcome.outputs:
                hasher.update(chunk)
            if index == 0:
                first = (op, digest(outcome.outputs))
        index += 1

    if first is not None:
        op, first_digest = first
        rerun = workloads.Op("rerun", list(op.argv), runner.work / "out" / "rerun", op.expect)
        rerun.argv[rerun.argv.index("--out") + 1] = str(rerun.out_dir)
        _, outcome = runner.timed(rerun)
        if outcome is not None and digest(outcome.outputs) != first_digest:
            runner.failures.append("rerun of the first op's inputs gave different bytes")
    totals: dict = {}
    for counts in op_counts:
        if counts is not None:
            add_counts(totals, counts)
    result = {
        "op_times": times,
        "op_refs": refs,
        "wall_times": walls,
        "op_counts": op_counts,
        "counts": totals,
        "outputs_sha256": hasher.hexdigest(),
        "first_op_sha256": first[1] if first else None,
        "ops": index,
    }
    if trace:
        result["trace"] = trace_metrics(
            tracer, traced_times, refs, trace_counts, runner
        )
        write_spans(tracer.spans, runner.work / "spans.jsonl")
    return result


def trace_metrics(tracer, traced_times, untraced_times, outcome_counts, runner):
    """Per-layer metrics, per traced op, and the tracing overhead."""
    ops = max(len(traced_times), 1)
    absent_names = tracing.absent_spans(tracer.absent)
    metrics, absent_metrics = tracing.layer_metrics(tracer.spans, ops, absent_names)
    counters = tracer.counters
    transmissions = counters["protocol.transmissions"]
    erased = counters["protocol.erased_transmissions"]
    for name in (
        "protocol.transcript_events",
        "protocol.transcript_bytes",
        "protocol.transmissions",
        "protocol.erased_transmissions",
        "protocol.detection_photons",
        "protocol.state_tables.misses",
    ):
        metrics[name] = counters[name] / ops
    metrics["protocol.useful_ratio"] = (transmissions - erased) / transmissions if transmissions else 0.0
    metrics["cli.report_bytes"] = outcome_counts.get("report_bytes", 0) / ops
    traced_p50 = statistics.median(traced_times) if traced_times else 0.0
    untraced_p50 = statistics.median(untraced_times)
    metrics["trace.overhead_ratio"] = traced_p50 / untraced_p50 - 1.0
    traced = (counters["protocol.transmissions"], counters["protocol.detection_photons"])
    stated = (outcome_counts.get("transmissions", 0), outcome_counts.get("photons", 0))
    # Only when every op passed: a failed op's counts are missing from the outputs.
    if not runner.failures and "protocol.session" not in absent_names and traced != stated:
        runner.failures.append(
            f"traced (transmissions, photons) {traced} but the outputs state {stated}"
        )
    return {
        "metrics": metrics,
        "absent": tracer.absent,
        "absent_metrics": absent_metrics,
        "traced_ops": len(traced_times),
        "traced_p50_s": traced_p50,
        "untraced_p50_s": untraced_p50,
        "spans": len(tracer.spans),
    }


def write_spans(spans, path: Path) -> None:
    """Spans as JSON lines, times in seconds from the first span."""
    origin = spans[0][1] if spans else 0.0
    with open(path, "w") as handle:
        for name, start, end, parent, op in spans:
            record = {"name": name, "start": start - origin, "end": end - origin, "parent": parent, "op": op}
            handle.write(json.dumps(record) + "\n")


def main(argv=None) -> int:
    args = parse_args(argv)
    work = Path(args.work)
    # Set-up lies between a chunk before the import and one after ready.
    before = calibrate(SETUP_GUESS_S)
    import_started = time.process_time()
    sys.path.insert(0, str(SRC))
    from qsdcnet import cli, protocol, scenario

    import_s = time.process_time() - import_started
    if not Path(cli.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"qsdcnet was imported from {cli.__file__}, not from {SRC}", file=sys.stderr)
        return 3
    shutil.rmtree(work, ignore_errors=True)
    workload = workloads.make(args.workload, args.seed, work, scenario)
    workload.setup()
    runner = Runner(cli, protocol, workload, work)
    warmup = workload.make_op(-1, work / "out" / "warmup")
    runner.timed(warmup)
    setup_cpu_s = time.process_time() - before[1]
    result = {
        "setup_cpu_s": setup_cpu_s,
        "ready_monotonic": time.monotonic(),
        "import_s": import_s,
    }
    chunks = [calibrate(setup_cpu_s)]
    result["setup_reference_s"] = reference_seconds(setup_cpu_s, [before, chunks[0]])
    if not args.setup_only:
        result.update(measure(runner, workload, args.seconds, bool(args.trace), chunks))
    result["calibration"] = chunks
    result["attempted"] = runner.attempted
    result["failures"] = runner.failures
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
