"""Command-line front-end: plan, run, sweep and fringe subcommands.

Exit codes: 0 success (and, for plan, fully connected), 1 usage error or
validation failure (any QsdcError but CapacityExceeded), 2 protocol abort,
3 capacity errors; ``main`` maps each error to its code. Reports and
transcripts are deterministic functions of (scenario, seed); wall-clock
timing goes to stderr only so output files hash identically across reruns.
Only the commands that simulate import numpy and the modules built on it,
so ``plan`` loads the planner alone.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import operator
import os
import sys
import time
from typing import TYPE_CHECKING

from . import analysis, netplan
from .errors import CapacityExceeded, DomainError, QsdcError, ScenarioError, check_range

if TYPE_CHECKING:
    from . import qstate
    from .scenario import Scenario
    from .transcript import SessionTranscript

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_ABORT = 2
EXIT_CAPACITY = 3

OUT_DIR_ENV = "QSDCNET_OUT_DIR"

# fringe's --phases sizes the phase grid and the table, and the fit needs
# 8 samples; --shots-per-phase must stay far inside Generator.binomial's int64.
MIN_PHASES = 8
MAX_PHASES = 10**5
MAX_SHOTS_PER_PHASE = 10**12

# qstate.BellLabel's names, lower-cased and sorted, without importing numpy.
BELL_STATE_CHOICES = ("phi_minus", "phi_plus", "psi_minus", "psi_plus")


def _out_dir(args) -> str:
    """The output directory, checked before anything is simulated: a path
    that is, or lies under, anything but a directory fails the command with
    nothing written. The directory is made when the outputs are written."""
    out_dir = args.out or os.environ.get(OUT_DIR_ENV) or "."
    path = os.path.abspath(out_dir)
    while not os.path.isdir(path):  # the root is a directory
        if os.path.lexists(path):
            label = "--out" if args.out else f"${OUT_DIR_ENV}"
            raise DomainError(f"{label} {out_dir}: not a directory")
        path = os.path.dirname(path)
    return out_dir


def run_session(scenario: Scenario) -> SessionTranscript:
    """Execute the scenario's QSDC session with its derived RNG."""
    from . import protocol

    return protocol.run_qsdc(
        scenario.message_bits(),
        scenario.devices,
        scenario.eve,
        scenario.protocol,
        scenario.session_rng(),
    )


def fidelity_table(scenario: Scenario) -> list[dict]:
    """Closed-form fidelity of each Bell state under source noise."""
    from . import qstate

    noise = scenario.devices.source.noise
    return [
        {"bell_state": label.name.lower(), "fidelity": qstate.fidelity(label, noise)}
        for label in qstate.BELL_ORDER
    ]


def session_metrics(
    scenario: Scenario, transcript: SessionTranscript
) -> tuple[analysis.QberEstimate | None, dict | None, dict]:
    """Pooled QBER, secrecy bound and throughput of one session, the last two
    as the report writes them. Only a completed session claims a secrecy
    bound; throughput is reported for every session."""
    qber = transcript.pooled_qber
    summary = transcript.summary
    secrecy = (
        analysis.session_secrecy_report(qber, summary["erasure_fraction"])
        if summary["status"] == "completed"  # which passed a detection round, so has a qber
        else None
    )
    throughput = analysis.throughput(
        sfg_rate_hz=scenario.devices.sfg.max_rate_hz,
        modulation_rate_hz=scenario.devices.modulator.rate_hz,
        erasure_fraction=summary["erasure_fraction"],
        overhead_fraction=summary["overhead_fraction"],
    )
    return qber, secrecy, throughput


def build_report(
    scenario: Scenario,
    transcript: SessionTranscript,
    transcript_path: str | None,
    verbatim: dict[int, str] | None = None,
) -> dict:
    """Assemble the machine-readable run report."""
    plan = netplan.build_plan(scenario.topology)
    connectivity = netplan.verify_full_connectivity(plan)
    document = plan.to_dict()
    qber, secrecy, throughput = session_metrics(scenario, transcript)
    return {
        "scenario_digest": scenario.digest(verbatim),
        "scenario": scenario.to_dict(),
        "plan": {
            "subnets": document["subnets"],
            "users_per_subnet": document["users_per_subnet"],
            "channel_pairs": document["channel_pairs"],
            "itu_channels": document["itu_channels"],
            "user_pairs": connectivity["user_pairs"],
            "fully_connected": connectivity["fully_connected"],
            "document": document,
        },
        "transcript_path": transcript_path,
        "session": transcript.summary,
        "qber": qber.to_dict() if qber else None,
        "secrecy": secrecy,
        "throughput": throughput,
        "fidelity_table": fidelity_table(scenario),
    }


def report_pieces(report: dict, verbatim: dict[int, str] | None = None) -> list[str]:
    """The report's JSON text and newline, in ``transcript.spliced_pieces``."""
    from .transcript import spliced_pieces

    return spliced_pieces(report, "\n", verbatim, sort_keys=True, indent=2, allow_nan=False)


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
    import numpy as np

    from . import photonics, qstate

    devices = scenario.devices
    accidental_prob = photonics.accidental_probability(devices)
    rng = scenario.fringe_rng()
    grid = np.linspace(0.0, 2.0 * np.pi, phases, endpoint=False)
    probabilities = qstate.fringe_probability(label, devices.source.noise, grid)
    rows = photonics.fringe_scan(grid, probabilities, shots_per_phase, accidental_prob, rng)
    samples = [(row["phase_rad"], row["corrected_rate"]) for row in rows]
    fit = qstate.fit_fringe(samples)
    v = fit.visibility
    isotropic, phase_only = analysis.fidelity_from_visibility(v)
    return {
        "bell_state": label.name.lower(),
        "phases": phases,
        "shots_per_phase": shots_per_phase,
        "accidental_prob": accidental_prob,
        "samples": rows,
        "visibility": v,
        "fringe_theta_rad": fit.theta_rad,
        "fidelity_isotropic": isotropic,
        "fidelity_phase_only": phase_only,
    }


def _write_rows(path: str, rows: list[dict], fieldnames: list[str], fmt: str) -> str:
    """Write the rows' fields as CSV under a header or as JSON lines; return the text."""
    if fmt == "csv":
        buffer = io.StringIO()
        writer = csv.writer(buffer)
        writer.writerow(fieldnames)
        writer.writerows(map(operator.itemgetter(*fieldnames), rows))
        text = buffer.getvalue()
    else:
        text = "".join(json.dumps({k: row[k] for k in fieldnames}) + "\n" for row in rows)
    with open(path, "w", newline="") as handle:
        handle.write(text)
    return text


def cmd_plan(args) -> int:
    # Topology checks capacity and the ceilings that keep the plan and its check small.
    topology = netplan.Topology(args.subnets, args.users_per_subnet, args.grid_size)
    plan = netplan.build_plan(topology)
    connectivity = netplan.verify_full_connectivity(plan)
    print(plan.to_document(), end="")
    print(json.dumps(connectivity, indent=2))
    return EXIT_OK if connectivity["fully_connected"] else EXIT_ABORT


def _load(args) -> Scenario:
    from .scenario import load_scenario, replace_entries

    scenario = load_scenario(args.scenario)
    if args.seed is not None:
        scenario = replace_entries(scenario, {"seed": args.seed})
    return scenario


def cmd_run(args) -> int:
    scenario = _load(args)
    out_dir = _out_dir(args)
    started = time.monotonic()
    transcript = run_session(scenario)
    os.makedirs(out_dir, exist_ok=True)
    # The transcript, the digest and the report share the delivered bits, their
    # hex and the message hex: each is checked for escapes once.
    verbatim: dict[int, str] = {}
    with open(os.path.join(out_dir, "transcript.jsonl"), "w") as handle:
        handle.writelines(transcript.chunks(verbatim))
    # Written as pieces, never joined: a 1 Mbit report is about 1.5 MB.
    report = report_pieces(
        build_report(scenario, transcript, "transcript.jsonl", verbatim), verbatim
    )
    with open(os.path.join(out_dir, "report.json"), "w") as handle:
        handle.writelines(report)
    sys.stdout.writelines(report)
    print(f"wall-clock: {time.monotonic() - started:.3f} s", file=sys.stderr)
    if transcript.summary["status"] == "aborted":
        print(f"session aborted: {transcript.summary['abort_reason']}", file=sys.stderr)
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


def cmd_sweep(args) -> int:
    if args.param == "seed":
        raise ScenarioError(
            "--param seed: each row's seed is the base seed XOR its index; "
            "set the base seed with --seed"
        )
    from .scenario import replace_entries

    scenario = _load(args)
    try:
        values = [float(v) for v in args.values.split(",")] if args.values.strip() else []
    except ValueError as exc:
        raise DomainError(f"--values must be a comma-separated list of numbers: {exc}") from None
    out_dir = _out_dir(args)
    *sections, leaf = args.param.split(".")
    rows = []
    for index, value in enumerate(values):
        # Only the swept leaf and the seed are read again.
        entry = {leaf: value}
        for key in reversed(sections):
            entry = {key: entry}
        seed = scenario.seed ^ index
        try:
            variant = replace_entries(scenario, {"seed": seed, **entry})
        except ScenarioError as exc:
            raise ScenarioError(f"{args.param}={value}: {exc}") from None
        transcript = run_session(variant)
        qber, secrecy, throughput = session_metrics(variant, transcript)
        summary = transcript.summary
        rows.append(
            {
                "index": index,
                "parameter": args.param,
                "value": value,
                "seed": seed,
                "status": summary["status"],
                "qber_e": qber.e if qber else "",
                "cs_lower": secrecy["cs_lower"] if secrecy else "",
                "info_rate_bits_per_s": throughput["info_rate_bits_per_s"],
                "erasure_fraction": summary["erasure_fraction"],
                "ber": summary["ber"] if summary["ber"] is not None else "",
            }
        )
    os.makedirs(out_dir, exist_ok=True)
    text = _write_rows(os.path.join(out_dir, "sweep.csv"), rows, _SWEEP_FIELDS, "csv")
    # As a text-mode read of the file would give it.
    print(text.replace("\r\n", "\n"), end="")
    return EXIT_OK


_FRINGE_FIELDS = ["phase_rad", "raw_counts", "expected_accidentals", "corrected_rate"]


def cmd_fringe(args) -> int:
    check_range("--phases", args.phases, MIN_PHASES, MAX_PHASES)
    check_range("--shots-per-phase", args.shots_per_phase, 1, MAX_SHOTS_PER_PHASE)
    scenario = _load(args)
    out_dir = _out_dir(args)
    from .qstate import BellLabel

    label = BellLabel[args.bell_state.upper()]
    study = fringe_study(
        scenario, label, phases=args.phases, shots_per_phase=args.shots_per_phase
    )
    os.makedirs(out_dir, exist_ok=True)
    table_path = os.path.join(out_dir, f"fringe_{args.bell_state}.{args.format}")
    _write_rows(table_path, study["samples"], _FRINGE_FIELDS, args.format)
    summary = {key: value for key, value in study.items() if key != "samples"}
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
    fringe.add_argument("--bell-state", choices=BELL_STATE_CHOICES, default="phi_plus")
    fringe.add_argument("--phases", type=int, default=64)
    fringe.add_argument("--shots-per-phase", type=int, default=20000)
    fringe.add_argument("--out", default=None)
    fringe.add_argument("--format", choices=["jsonl", "csv"], default="csv")
    fringe.set_defaults(func=cmd_fringe)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse has printed the help or the usage error
        return EXIT_OK if exc.code == 0 else EXIT_VALIDATION
    try:
        return args.func(args)
    except QsdcError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAPACITY if isinstance(exc, CapacityExceeded) else EXIT_VALIDATION


def entry_point():
    sys.exit(main())


if __name__ == "__main__":
    entry_point()
