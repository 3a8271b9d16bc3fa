"""Command-line front-end of the plan, run, sweep and fringe subcommands: it
parses their arguments, writes what ``qsdcnet.report`` makes and exits.

Exit codes: 0 success (and, for plan, fully connected), 1 usage error,
validation failure (any QsdcError but CapacityExceeded) or a stdout closed
by its reader, 2 protocol abort, 3 capacity errors; ``main`` maps each error
to its code. Reports and transcripts are deterministic functions of
(scenario, seed); wall-clock timing goes to stderr only so output files hash
identically across reruns.
Only the commands that simulate import ``report``, numpy and the modules
built on them, once their inputs are read, so ``plan`` loads the planner alone.
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

from . import netplan
from .errors import CapacityExceeded, DomainError, QsdcError, ScenarioError, check_range

if TYPE_CHECKING:
    from .scenario import Scenario

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


def _write_rows(path: str, rows: list[dict], fieldnames: list[str], fmt: str) -> str:
    """Write the rows' fields as CSV under a header or as JSON lines; return the text."""
    if fmt == "csv":
        buffer = io.StringIO()
        csv.writer(buffer).writerows([fieldnames, *map(operator.itemgetter(*fieldnames), rows)])
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
    from .report import build_report, report_pieces, run_session
    from .transcript import encoded

    transcript = run_session(scenario)
    os.makedirs(out_dir, exist_ok=True)
    # Each Unescaped string the transcript, digest and report share is encoded once.
    with open(os.path.join(out_dir, "transcript.jsonl"), "wb") as handle:
        handle.writelines(encoded(transcript.chunks()))
    # Written as pieces, never joined: a 1 Mbit report is about 1.5 MB.
    report = report_pieces(build_report(scenario, transcript, "transcript.jsonl"))
    with open(os.path.join(out_dir, "report.json"), "wb") as handle:
        handle.writelines(encoded(report))
    sys.stdout.writelines(report)
    print(f"wall-clock: {time.monotonic() - started:.3f} s", file=sys.stderr)
    if transcript.summary["status"] == "aborted":
        print(f"session aborted: {transcript.summary['abort_reason']}", file=sys.stderr)
        return EXIT_ABORT
    return EXIT_OK


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
    # Every value is read before any session runs, so a bad one simulates nothing.
    variants = []
    for index, value in enumerate(values):
        # Only the swept leaf and the seed are read again.
        entry = {leaf: value}
        for key in reversed(sections):
            entry = {key: entry}
        try:
            variants.append(replace_entries(scenario, {"seed": scenario.seed ^ index, **entry}))
        except ScenarioError as exc:
            raise ScenarioError(f"{args.param}={value}: {exc}") from None
    from .report import SWEEP_COLUMNS, run_session, sweep_row

    rows = [
        {"index": index, "parameter": args.param, "value": value, "seed": variant.seed,
         **sweep_row(variant, run_session(variant))}
        for index, (value, variant) in enumerate(zip(values, variants))
    ]
    os.makedirs(out_dir, exist_ok=True)
    text = _write_rows(os.path.join(out_dir, "sweep.csv"), rows, SWEEP_COLUMNS, "csv")
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
    from .report import fringe_study

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


# Each command's help line and function, in the full parser's order.
COMMANDS = {
    "plan": ("plan and verify the wavelength allocation", cmd_plan),
    "run": ("run one QSDC session from a scenario file", cmd_run),
    "sweep": ("run the scenario across parameter values", cmd_sweep),
    "fringe": ("simulate a two-photon interference fringe", cmd_fringe),
}


def add_arguments(parser: argparse.ArgumentParser, name: str) -> None:
    """Give ``parser`` command ``name``'s arguments and Namespace defaults."""
    parser.set_defaults(command=name, func=COMMANDS[name][1])
    add = parser.add_argument
    if name == "plan":
        add("--subnets", type=int, required=True)
        add("--users-per-subnet", type=int, required=True)
        add("--grid-size", type=int, default=netplan.DEFAULT_GRID_SIZE)
        return
    add("--scenario", required=True)
    add("--seed", type=int, help="override the scenario seed" if name == "run" else None)
    if name == "sweep":
        add("--param", required=True, help="dotted path, e.g. devices.alice_fiber.length_km")
        add("--values", required=True, help="comma-separated numbers (empty for header-only CSV)")
    elif name == "fringe":
        add("--bell-state", choices=BELL_STATE_CHOICES, default="phi_plus")
        add("--phases", type=int, default=64)
        add("--shots-per-phase", type=int, default=20000)
    add("--out", help=f"output directory (default ${OUT_DIR_ENV} or .)" if name == "run" else None)
    if name == "fringe":
        add("--format", choices=["jsonl", "csv"], default="csv")


def build_parser() -> argparse.ArgumentParser:
    """The parser of every command, for the top-level help and the errors left to it."""
    parser = argparse.ArgumentParser(prog="qsdcnet", description="Deterministic QSDC network simulator")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (text, _) in COMMANDS.items():
        add_arguments(sub.add_parser(name, help=text), name)
    return parser


def parse_args(argv: list[str]) -> argparse.Namespace:
    """``argv``'s Namespace. A leading command's own parser, the full parser's subparser,
    parses the rest; the full parser parses ``argv`` with no command or with extras."""
    if argv and argv[0] in COMMANDS:
        parser = argparse.ArgumentParser(prog=f"qsdcnet {argv[0]}")
        add_arguments(parser, argv[0])
        args, extras = parser.parse_known_args(argv[1:])
        if not extras:
            return args
    return build_parser().parse_args(argv)


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        args = parse_args(argv)
    except SystemExit as exc:  # argparse has printed the help or the usage error
        return EXIT_OK if exc.code == 0 else EXIT_VALIDATION
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed stdout raises here, not at exit
        return code
    except QsdcError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAPACITY if isinstance(exc, CapacityExceeded) else EXIT_VALIDATION
    except BrokenPipeError:
        # The reader closed stdout, after every file was written. Point fd 1
        # at devnull, so that the interpreter's final flush does not raise too.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_VALIDATION


def entry_point():
    sys.exit(main())


if __name__ == "__main__":
    entry_point()
