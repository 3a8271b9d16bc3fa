"""qsdcnet benchmark: one workload, end-to-end or traced, from a checkout.

    python3 perfbench/run.py --workload megabit_run --seed 1 --seconds 25 --trace 0

Each run starts fresh single-threaded child interpreters (perfbench/child.py)
one at a time, so import and warm-up costs land in ``setup_s`` and nowhere
else. With ``--trace 0`` it starts SETUP_REPEATS children: all but the last
only set up, the last also times ops; ``setup_s`` is the median over all of
them. End-to-end times are in reference seconds: CPU seconds scaled by a
fixed calibration unit timed beside them (see ``child.reference_seconds``). With
``--trace 1`` one child alternates untraced and traced ops and the
per-layer metrics, in CPU seconds, come from the traced ones.

Human-readable lines go first; the last stdout line is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``. Inputs come only from
``--seed``. Exits non-zero, printing no result, when the checkout has no
qsdcnet sources or a child fails to finish.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

import workloads
from child import REF_UNIT_S

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / "out"
SETUP_REPEATS = 3
DEADLINE_S = 170.0
P90_TAIL = 10  # samples that must lie beyond a percentile before it is reported


def tail_percentile(samples, fraction: float, tail: int = P90_TAIL):
    """Nearest-rank percentile, or None unless at least ``tail`` samples lie beyond it."""
    ordered = sorted(samples)
    if not ordered:
        return None
    rank = max(math.ceil(fraction * len(ordered)), 1)
    if len(ordered) - rank < tail:
        return None
    return ordered[rank - 1]


def machine_record() -> dict:
    """Cores, interpreter and library versions, and what source is measured."""

    def version(package):
        try:
            return metadata.version(package)
        except metadata.PackageNotFoundError:
            return "absent"

    commit = "not a git checkout"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "--short", "HEAD"],
                capture_output=True, text=True, timeout=10,
            ).stdout.strip() or commit
        except (OSError, subprocess.SubprocessError):
            pass
    hasher = hashlib.sha256()
    for path in sorted((SRC / "qsdcnet").glob("*.py")):
        hasher.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "cores": os.cpu_count(),
        "cores_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "commit": commit,
        "src_sha256": hasher.hexdigest()[:16],
    }


def spawn(args, extra, deadline: float) -> dict:
    """Start one child and wait for it; returns its result and its spawn time."""
    env = dict(os.environ)
    env.update(
        PYTHONPATH=str(SRC),
        PYTHONHASHSEED="0",
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
    )
    command = [
        sys.executable, str(BENCH / "child.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--work", str(WORK / args.workload),
        *extra,
    ]
    spawned = time.monotonic()
    try:
        done = subprocess.run(
            command, capture_output=True, text=True, env=env, cwd=ROOT,
            timeout=max(deadline - spawned, 1.0),
        )
    except subprocess.TimeoutExpired as exc:
        raise SystemExit(f"child timed out: {exc}") from exc
    if done.returncode != 0:
        sys.stderr.write(done.stderr[-4000:])
        raise SystemExit(f"child exited with code {done.returncode}")
    lines = done.stdout.strip().splitlines()
    if not lines:
        raise SystemExit("child printed no result")
    result = json.loads(lines[-1])
    result["setup_wall_s"] = result["ready_monotonic"] - spawned
    return result


def end_to_end(main: dict, children: list[dict]) -> tuple[dict, list[str]]:
    """End-to-end metrics from the measuring child, and lines to print beside them.

    Times are CPU seconds of the single-threaded child, turned into
    reference seconds by the calibration chunks run just before and after
    each of them (see ``child.reference_seconds``). The shared host switches
    between a fast and a slow speed within seconds, so each op is scaled by
    the speed measured next to it. Rates are the median over checked ops of
    each op's count over its time, so one slow op moves them as little as
    it moves ``op_p50_s``. Raw CPU and wall times are printed beside the
    metrics, not gated on.
    """
    times = main["op_times"]
    chunks = main["calibration"]
    setups = [child["setup_reference_s"] for child in children]
    op_refs = main["op_refs"]
    checked = [(t, c) for t, c in zip(op_refs, main["op_counts"]) if c is not None]

    def rate(key):  # 0 when no op passed its checks; the run then reads incorrect
        return statistics.median(c[key] / t for t, c in checked) if checked else 0.0

    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "sessions_per_s": (rate("sessions"), "1/s"),
        "op_p50_s": (statistics.median(op_refs), "s"),
        "sim_symbols_per_s": (rate("transmissions"), "1/s"),
        "sim_photons_per_s": (rate("photons"), "1/s"),
        "peak_rss_mb": (main["peak_rss_mb"], "MB"),
    }
    unit_s = sum(c[1] for c in chunks) / sum(c[0] for c in chunks)
    walls = main["wall_times"]
    p90 = tail_percentile(op_refs, 0.9)
    notes = [
        f"calibration: {sum(c[0] for c in chunks)} units, {unit_s:.6f} CPU s each "
        f"(reference {REF_UNIT_S} s; higher means the host ran slower)",
        "setup_s samples (reference s): " + ", ".join(f"{s:.4f}" for s in setups)
        + "; CPU: " + ", ".join(f"{c['setup_cpu_s']:.4f}" for c in children)
        + "; wall spawn-to-ready: " + ", ".join(f"{c['setup_wall_s']:.4f}" for c in children),
        f"op_p50_s over {len(times)} ops; CPU op p50 {statistics.median(times):.6f} s, "
        f"wall op p50 {statistics.median(walls):.6f} s, wall/CPU over all ops {sum(walls) / sum(times):.3f}",
        f"op_p90_s {p90:.6f} s over {len(times)} ops" if p90 is not None
        else f"op_p90_s not reported: {len(times)} ops, needs {10 * P90_TAIL}",
    ]
    return metrics, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="qsdcnet benchmark, one workload per run")
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if not (SRC / "qsdcnet" / "cli.py").is_file():
        print(f"error: no qsdcnet sources under {SRC}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    record = machine_record()
    print("machine: " + " ".join(f"{k}={v}" for k, v in record.items()))
    print(f"workload {args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")

    if args.trace:
        children = [spawn(args, [], deadline)]
    else:
        children = [spawn(args, ["--setup-only"], deadline) for _ in range(SETUP_REPEATS - 1)]
        children.append(spawn(args, [], deadline))
    main_child = children[-1]
    failures = [f for child in children for f in child["failures"]]
    attempted = sum(child["attempted"] for child in children)

    if args.trace:
        trace = main_child["trace"]
        metrics = {name: (value, unit_of(name)) for name, value in trace["metrics"].items()}
        metrics["setup.import_s"] = (main_child["import_s"], "s")
        print(f"absent targets: {trace['absent']}")
        print(f"absent metrics: {trace['absent_metrics']}")
        print(
            f"tracing overhead: {trace['metrics']['trace.overhead_ratio']:+.2%} "
            f"(traced p50 {trace['traced_p50_s']:.6f} s over {trace['traced_ops']} ops, "
            f"untraced p50 {trace['untraced_p50_s']:.6f} s over {len(main_child['op_times'])} ops, "
            f"{trace['spans']} spans written to {WORK / args.workload / 'spans.jsonl'})"
        )
    else:
        metrics, notes = end_to_end(main_child, children)
        for line in notes:
            print(line)
    counts = main_child["counts"]
    print("simulated: " + " ".join(f"{k}={v}" for k, v in sorted(counts.items())))
    print(
        f"outputs_sha256 {main_child['outputs_sha256']} over {main_child['ops']} ops; "
        f"first_op_sha256 {main_child['first_op_sha256']}"
    )
    print(f"failed_fraction {len(failures) / attempted:.6f} ({len(failures)}/{attempted} checked ops)")
    for failure in failures[:5]:
        print(f"FAILED {failure}", file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {
            name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()
        },
    }
    print(json.dumps(result))
    return 0


def unit_of(name: str) -> str:
    """Unit of a per-layer metric, from its name."""
    if name.endswith(("_s", ".s")):
        return "s"
    if name.endswith("bytes"):
        return "B"
    if name.endswith("ratio"):
        return "ratio"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
