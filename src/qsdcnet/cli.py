"""Command-line front-end: plan, run, sweep and fringe subcommands.

Exit codes: 0 success (and, for plan, fully connected), 1 validation
failure, 2 protocol abort, 3 capacity errors. Reports and transcripts are
deterministic functions of (scenario, seed); wall-clock timing goes to
stderr only so output files hash identically across reruns.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
import time

import numpy as np

from . import analysis, netplan, photonics, protocol, qstate
from .errors import CapacityExceeded, QsdcError, ScenarioError
from .scenario import Scenario, load_scenario, scenario_from_dict

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_ABORT = 2
EXIT_CAPACITY = 3

OUT_DIR_ENV = "QSDCNET_OUT_DIR"

_BELL_CHOICES = {label.name.lower(): label for label in qstate.BellLabel}


def _default_out_dir(args_out: str | None) -> str:
    return args_out or os.environ.get(OUT_DIR_ENV) or "."


def run_session(scenario: Scenario) -> protocol.SessionTranscript:
    """Execute the scenario's QSDC session with its derived RNG."""
    return protocol.run_qsdc(
        scenario.message_bits(),
        scenario.devices,
        scenario.eve,
        scenario.policy,
        scenario.config,
        scenario.session_rng(),
    )


def fidelity_table(scenario: Scenario) -> list[dict]:
    """Direct density-matrix fidelity of each Bell state under source noise."""
    rows = []
    for label in qstate.BELL_ORDER:
        state = qstate.apply_noise(
            qstate.bell_state(label), scenario.devices.source.heralding_noise
        )
        rows.append(
            {"bell_state": label.name.lower(), "fidelity": qstate.fidelity(state, label)}
        )
    return rows


def session_metrics(
    scenario: Scenario, transcript: protocol.SessionTranscript
) -> tuple[
    analysis.QberEstimate | None, analysis.SecrecyReport | None, analysis.ThroughputReport
]:
    """Pooled QBER, secrecy bound and throughput of one session."""
    qber = transcript.pooled_qber
    secrecy = (
        analysis.session_secrecy_report(qber, transcript.erasure_fraction)
        if qber
        else None
    )
    throughput = analysis.throughput(
        sfg_rate_hz=scenario.devices.sfg.max_rate_hz,
        modulation_rate_hz=scenario.devices.modulator.rate_hz,
        erasure_fraction=transcript.erasure_fraction,
        overhead_fraction=transcript.overhead_fraction,
    )
    return qber, secrecy, throughput


def build_report(
    scenario: Scenario,
    transcript: protocol.SessionTranscript,
    transcript_path: str | None,
) -> dict:
    """Assemble the machine-readable run report."""
    plan = netplan.build_plan(
        scenario.topology.subnets,
        scenario.topology.users_per_subnet,
        scenario.topology.grid_size,
    )
    connectivity = netplan.verify_full_connectivity(
        plan, scenario.topology.subnets, scenario.topology.users_per_subnet
    )
    qber, secrecy, throughput = session_metrics(scenario, transcript)
    return {
        "scenario_digest": scenario.digest(),
        "scenario": scenario.canonical_dict(),
        "plan": {
            "subnets": plan.subnets,
            "users_per_subnet": plan.users_per_subnet,
            "channel_pairs": len(plan.inter_links) + len(plan.intra_links),
            "itu_channels": plan.total_channels,
            "user_pairs": connectivity.total_user_pairs,
            "fully_connected": connectivity.is_fully_connected,
            "document": json.loads(plan.to_document()),
        },
        "transcript_path": transcript_path,
        "session": transcript.summary,
        "qber": qber.to_dict() if qber else None,
        "secrecy": secrecy.to_dict() if secrecy else None,
        "throughput": throughput.to_dict(),
        "fidelity_table": fidelity_table(scenario),
    }


def report_to_json(report: dict) -> str:
    return json.dumps(report, sort_keys=True, indent=2, allow_nan=False) + "\n"


def fringe_study(
    scenario: Scenario,
    label: qstate.BellLabel,
    phases: int = 64,
    shots_per_phase: int = 20000,
) -> dict:
    """Simulate a fringe scan for one Bell state and fit it.

    Returns the sample table plus fitted visibility, fringe phase, and the
    fidelity estimates under both noise assumptions.
    """
    devices = scenario.devices
    state = qstate.apply_noise(qstate.bell_state(label), devices.source.heralding_noise)
    eta_a = photonics.transmittance(devices.alice_fiber) * devices.detector.efficiency
    eta_b = photonics.transmittance(devices.bob_fiber) * devices.detector.efficiency
    singles_a = devices.source.pair_rate_hz * eta_a + devices.detector.dark_count_rate_hz
    singles_b = devices.source.pair_rate_hz * eta_b + devices.detector.dark_count_rate_hz
    acc_rate = photonics.accidental_rate(
        singles_a, singles_b, devices.detector.coincidence_window_s
    )
    accidental_prob = (
        min(acc_rate / devices.source.pair_rate_hz, 1.0)
        if devices.source.pair_rate_hz > 0
        else 0.0
    )
    rng = np.random.default_rng([scenario.seed, 0xF21])
    grid = np.linspace(0.0, 2.0 * np.pi, phases, endpoint=False)
    rows = photonics.fringe_scan(state, grid, shots_per_phase, accidental_prob, rng)
    samples = [(row["phase_rad"], row["corrected_rate"]) for row in rows]
    fit = qstate.fit_fringe(samples)
    v = qstate.visibility(samples)
    isotropic = analysis.fidelity_from_visibility(v, analysis.NoiseAssumption.ISOTROPIC)
    phase_only = analysis.fidelity_from_visibility(v, analysis.NoiseAssumption.PHASE_ONLY)
    return {
        "bell_state": label.name.lower(),
        "phases": phases,
        "shots_per_phase": shots_per_phase,
        "accidental_prob": accidental_prob,
        "samples": rows,
        "visibility": v,
        "fringe_theta_rad": fit.theta_rad,
        "fidelity_isotropic": isotropic.fidelity,
        "fidelity_phase_only": phase_only.fidelity,
    }


def _write_rows(path: str, rows: list[dict], fieldnames: list[str], fmt: str):
    with open(path, "w", newline="") as handle:
        if fmt == "csv":
            writer = csv.DictWriter(handle, fieldnames=fieldnames)
            writer.writeheader()
            writer.writerows(rows)
        else:
            for row in rows:
                handle.write(json.dumps({k: row[k] for k in fieldnames}) + "\n")


def cmd_plan(args) -> int:
    try:
        plan = netplan.build_plan(args.subnets, args.users_per_subnet, args.grid_size)
    except CapacityExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAPACITY
    except QsdcError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    report = netplan.verify_full_connectivity(plan, args.subnets, args.users_per_subnet)
    print(plan.to_document(), end="")
    print(
        json.dumps(
            {
                "user_pairs": report.total_user_pairs,
                "covered_pairs": report.covered_pairs,
                "fully_connected": report.is_fully_connected,
            },
            indent=2,
        )
    )
    return EXIT_OK if report.is_fully_connected else EXIT_ABORT


def _load(args) -> Scenario:
    scenario = load_scenario(args.scenario)
    if args.seed is not None:
        doc = scenario.to_dict()
        doc["seed"] = args.seed
        scenario = scenario_from_dict(doc)
    return scenario


def cmd_run(args) -> int:
    try:
        scenario = _load(args)
    except ScenarioError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    started = time.monotonic()
    try:
        transcript = run_session(scenario)
    except CapacityExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAPACITY
    out_dir = _default_out_dir(args.out)
    os.makedirs(out_dir, exist_ok=True)
    transcript_path = os.path.join(out_dir, "transcript.jsonl")
    with open(transcript_path, "w") as handle:
        handle.write(transcript.to_jsonl())
    report_json = report_to_json(build_report(scenario, transcript, "transcript.jsonl"))
    report_path = os.path.join(out_dir, "report.json")
    with open(report_path, "w") as handle:
        handle.write(report_json)
    print(report_json, end="")
    print(f"wall-clock: {time.monotonic() - started:.3f} s", file=sys.stderr)
    if transcript.aborted:
        print(f"session aborted: {transcript.abort_reason}", file=sys.stderr)
        return EXIT_ABORT
    return EXIT_OK


_SWEEP_FIELDS = [
    "index",
    "parameter",
    "value",
    "seed",
    "status",
    "qber_e",
    "cs_lower",
    "info_rate_bits_per_s",
    "erasure_fraction",
    "ber",
]


def _set_path(doc: dict, path: str, value):
    keys = path.split(".")
    node = doc
    for key in keys[:-1]:
        if not isinstance(node, dict) or key not in node:
            raise ScenarioError(f"sweep parameter path not found: {path}")
        node = node[key]
    last = keys[-1]
    if not isinstance(node, dict) or last not in node:
        raise ScenarioError(f"sweep parameter path not found: {path}")
    if isinstance(node[last], (dict, list)):
        raise ScenarioError(f"sweep parameter path must address a scalar: {path}")
    node[last] = value


def cmd_sweep(args) -> int:
    try:
        scenario = _load(args)
        values = (
            [float(v) for v in args.values.split(",")] if args.values.strip() else []
        )
    except ScenarioError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except ValueError as exc:
        print(f"error: --values must be a comma-separated list of numbers: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    base_seed = scenario.seed
    rows = []
    for index, value in enumerate(values):
        doc = scenario.to_dict()
        try:
            _set_path(doc, args.param, value)
        except ScenarioError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_VALIDATION
        doc["seed"] = base_seed ^ index
        try:
            variant = scenario_from_dict(doc)
        except ScenarioError as exc:
            print(f"error: {args.param}={value}: {exc}", file=sys.stderr)
            return EXIT_VALIDATION
        transcript = run_session(variant)
        qber, secrecy, throughput = session_metrics(variant, transcript)
        rows.append(
            {
                "index": index,
                "parameter": args.param,
                "value": value,
                "seed": doc["seed"],
                "status": transcript.summary.get("status"),
                "qber_e": qber.e if qber else "",
                "cs_lower": secrecy.cs_lower if secrecy else "",
                "info_rate_bits_per_s": throughput.info_rate_bits_per_s,
                "erasure_fraction": transcript.erasure_fraction,
                "ber": transcript.ber if transcript.ber is not None else "",
            }
        )
    out_dir = _default_out_dir(args.out)
    os.makedirs(out_dir, exist_ok=True)
    sweep_path = os.path.join(out_dir, "sweep.csv")
    _write_rows(sweep_path, rows, _SWEEP_FIELDS, "csv")
    with open(sweep_path) as handle:
        print(handle.read(), end="")
    return EXIT_OK


_FRINGE_FIELDS = ["phase_rad", "raw_counts", "expected_accidentals", "corrected_rate"]


def cmd_fringe(args) -> int:
    try:
        scenario = _load(args)
    except ScenarioError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    label = _BELL_CHOICES[args.bell_state]
    study = fringe_study(
        scenario, label, phases=args.phases, shots_per_phase=args.shots_per_phase
    )
    out_dir = _default_out_dir(args.out)
    os.makedirs(out_dir, exist_ok=True)
    table_path = os.path.join(out_dir, f"fringe_{args.bell_state}.{args.format}")
    _write_rows(table_path, study["samples"], _FRINGE_FIELDS, args.format)
    summary = {key: study[key] for key in (
        "bell_state",
        "phases",
        "shots_per_phase",
        "accidental_prob",
        "visibility",
        "fringe_theta_rad",
        "fidelity_isotropic",
        "fidelity_phase_only",
    )}
    print(json.dumps(summary, indent=2))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qsdcnet",
        description="Deterministic QSDC network simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    plan = sub.add_parser("plan", help="plan and verify the wavelength allocation")
    plan.add_argument("--subnets", type=int, required=True)
    plan.add_argument("--users-per-subnet", type=int, required=True)
    plan.add_argument("--grid-size", type=int, default=netplan.DEFAULT_GRID_SIZE)
    plan.set_defaults(func=cmd_plan)

    run = sub.add_parser("run", help="run one QSDC session from a scenario file")
    run.add_argument("--scenario", required=True)
    run.add_argument("--seed", type=int, default=None, help="override the scenario seed")
    run.add_argument("--out", default=None, help=f"output directory (default ${OUT_DIR_ENV} or .)")
    run.set_defaults(func=cmd_run)

    sweep = sub.add_parser("sweep", help="run the scenario across parameter values")
    sweep.add_argument("--scenario", required=True)
    sweep.add_argument("--seed", type=int, default=None)
    sweep.add_argument("--param", required=True, help="dotted path, e.g. devices.alice_fiber.length_km")
    sweep.add_argument("--values", required=True, help="comma-separated numbers (empty for header-only CSV)")
    sweep.add_argument("--out", default=None)
    sweep.set_defaults(func=cmd_sweep)

    fringe = sub.add_parser("fringe", help="simulate a two-photon interference fringe")
    fringe.add_argument("--scenario", required=True)
    fringe.add_argument("--seed", type=int, default=None)
    fringe.add_argument("--bell-state", choices=sorted(_BELL_CHOICES), default="phi_plus")
    fringe.add_argument("--phases", type=int, default=64)
    fringe.add_argument("--shots-per-phase", type=int, default=20000)
    fringe.add_argument("--out", default=None)
    fringe.add_argument("--format", choices=["jsonl", "csv"], default="csv")
    fringe.set_defaults(func=cmd_fringe)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except QsdcError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


def entry_point():
    sys.exit(main())


if __name__ == "__main__":
    entry_point()
