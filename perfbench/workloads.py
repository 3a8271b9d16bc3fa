"""Benchmark workloads: inputs made from the workload seed, and output checks.

Each op is one in-process ``qsdcnet.cli.main(argv)`` call. A workload turns
(seed, op key) into the op's argv and scenario file, and checks what the op
wrote. Inputs use the standard library's ``random`` only, so the benchmark's
own imports add nothing to the set-up time it measures.

This module imports nothing from qsdcnet at module level; the scenario
builders are passed in, so the self-tests run without the program.
"""

from __future__ import annotations

import csv
import io
import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path

SWEEP_PARAM = "eve.fraction"
SWEEP_FIELDS = (
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
)


class CheckFailure(Exception):
    """An op's output is wrong."""


@dataclass
class Op:
    """One CLI call: its argv, where it writes, and what the checker expects."""

    key: str
    argv: list[str]
    out_dir: Path
    expect: dict = field(default_factory=dict)


@dataclass
class Outcome:
    """What a checked op produced: simulated counters and the output bytes."""

    counts: dict
    outputs: list[bytes]


def _reject_constant(name: str):
    raise CheckFailure(f"non-standard JSON constant {name}")


def strict_json(text: str):
    """Parse strict JSON: NaN, Infinity and -Infinity are rejected."""
    try:
        return json.loads(text, parse_constant=_reject_constant)
    except json.JSONDecodeError as exc:
        raise CheckFailure(f"invalid JSON: {exc}") from exc


def hex_bits(hex_string: str) -> str:
    """The bitstring a hex message encodes, 4 bits per digit."""
    return format(int(hex_string, 16), f"0{4 * len(hex_string)}b")


def _read(path: Path) -> bytes:
    try:
        return path.read_bytes()
    except OSError as exc:
        raise CheckFailure(f"missing output {path.name}: {exc}") from exc


def op_key(index: int) -> str:
    """Name of op ``index``; -1 is the warm-up op."""
    return "warmup" if index < 0 else f"op{index}"


def _write_json(path: Path, doc: dict) -> None:
    path.write_text(json.dumps(doc, indent=2) + "\n")


def check_run_outputs(
    rc: int, stdout: str, report_bytes: bytes, transcript_bytes: bytes, message_hex: str
) -> dict:
    """Check one ``qsdcnet run`` op on a lossless-check workload.

    The session must complete with ber 0 and deliver exactly the message the
    benchmark generated; the report is strict JSON and is what stdout echoed.
    Returns the simulated counters the report states.
    """
    if rc != 0:
        raise CheckFailure(f"exit code {rc}, expected 0")
    report_text = report_bytes.decode()
    report = strict_json(report_text)
    if stdout != report_text:
        raise CheckFailure("stdout does not echo report.json")
    session = report.get("session") if isinstance(report, dict) else None
    if not isinstance(session, dict):
        raise CheckFailure("report has no session summary")
    if session.get("status") != "completed":
        raise CheckFailure(f"status {session.get('status')!r}, expected 'completed'")
    if session.get("ber") != 0:
        raise CheckFailure(f"ber {session.get('ber')!r}, expected 0")
    if session.get("delivered_bits") != hex_bits(message_hex):
        raise CheckFailure("delivered_bits differ from the generated message")
    lines = transcript_bytes.decode().splitlines()
    if not lines:
        raise CheckFailure("empty transcript")
    for line in lines:
        strict_json(line)
    transmissions = session.get("transmissions")
    erased = session.get("erased_transmissions")
    photons = session.get("detection_photons_sent")
    for name, value in (
        ("transmissions", transmissions),
        ("erased_transmissions", erased),
        ("detection_photons_sent", photons),
    ):
        if not isinstance(value, int) or isinstance(value, bool) or value < 0:
            raise CheckFailure(f"session.{name} is {value!r}, expected a count")
    return {
        "sessions": 1,
        "completed": 1,
        "aborted": 0,
        "transmissions": transmissions,
        "erased_transmissions": erased,
        "photons": photons,
        "transcript_events": len(lines),
        "transcript_bytes": len(transcript_bytes),
        "report_bytes": len(report_bytes),
    }


class RunWorkload:
    """``qsdcnet run`` with a fresh hex message and session seed per op."""

    def __init__(self, name: str, seed: int, work: Path, base_doc, message_bits: int):
        self.name = name
        self.seed = seed
        self.work = work
        self.base_doc = base_doc
        self.message_bits = message_bits

    def setup(self) -> None:
        (self.work / "in").mkdir(parents=True, exist_ok=True)

    def make_op(self, index: int, out_dir: Path) -> Op:
        key = op_key(index)
        rnd = random.Random(f"{self.name}/{self.seed}/{key}")
        session_seed = rnd.getrandbits(63)
        message_hex = rnd.randbytes(self.message_bits // 8).hex()
        doc = self.base_doc(session_seed)
        doc["message"] = {"hex": message_hex}
        # Op 0 keeps its own file for the rerun check; later ops share one.
        path = self.work / "in" / f"{key if index <= 0 else 'op'}.json"
        _write_json(path, doc)
        argv = ["run", "--scenario", str(path), "--out", str(out_dir)]
        return Op(key, argv, out_dir, {"message_hex": message_hex})

    def check(self, op: Op, rc: int, stdout: str, cli_main) -> Outcome:
        report = _read(op.out_dir / "report.json")
        transcript = _read(op.out_dir / "transcript.jsonl")
        counts = check_run_outputs(rc, stdout, report, transcript, op.expect["message_hex"])
        return Outcome(counts, [transcript, report])


class FractionDraws:
    """Eve fractions for sweep ops: stratified over [0, top), never repeated.

    Each op gets one value from each of ``per_op`` equal strata, in shuffled
    order, so every op mixes completing and aborting sessions alike. A value
    already drawn in this process is drawn again, so no value hits a table
    cache that a CLI user's process would not have filled.
    """

    def __init__(self, rnd: random.Random, per_op: int, top: float):
        self.rnd = rnd
        self.per_op = per_op
        self.top = top
        self.seen: set[float] = set()

    def next_op(self) -> list[float]:
        values = []
        for stratum in range(self.per_op):
            while True:
                value = (stratum + self.rnd.random()) * self.top / self.per_op
                if value not in self.seen:
                    break
            self.seen.add(value)
            values.append(value)
        self.rnd.shuffle(values)
        return values


def _parse_number(row: dict, name: str, allow_empty: bool) -> float | None:
    text = row.get(name)
    if text == "" and allow_empty:
        return None
    try:
        value = float(text)
    except (TypeError, ValueError) as exc:
        raise CheckFailure(f"sweep column {name} is {text!r}") from exc
    if not math.isfinite(value):
        raise CheckFailure(f"sweep column {name} is not finite: {text!r}")
    return value


def check_sweep_rows(
    rc: int, stdout: str, csv_bytes: bytes, values: list[float], base_seed: int
) -> list[dict]:
    """Check a ``qsdcnet sweep --param eve.fraction`` op and return its rows."""
    if rc != 0:
        raise CheckFailure(f"exit code {rc}, expected 0")
    text = csv_bytes.decode()
    # The CLI echoes the CSV through a text-mode read, which turns "\r\n" into "\n".
    if stdout != text.replace("\r\n", "\n"):
        raise CheckFailure("stdout does not echo sweep.csv")
    reader = csv.DictReader(io.StringIO(text, newline=""))
    if tuple(reader.fieldnames or ()) [: len(SWEEP_FIELDS)] != SWEEP_FIELDS:
        raise CheckFailure(f"sweep columns {reader.fieldnames}")
    rows = list(reader)
    if len(rows) != len(values):
        raise CheckFailure(f"{len(rows)} sweep rows, expected {len(values)}")
    for index, (row, value) in enumerate(zip(rows, values)):
        if row["index"] != str(index) or row["parameter"] != SWEEP_PARAM:
            raise CheckFailure(f"row {index}: index/parameter {row['index']}/{row['parameter']}")
        if _parse_number(row, "value", False) != value:
            raise CheckFailure(f"row {index}: value {row['value']}, expected {value!r}")
        if row["seed"] != str(base_seed ^ index):
            raise CheckFailure(f"row {index}: seed {row['seed']}, expected {base_seed ^ index}")
        if row["status"] not in ("completed", "aborted"):
            raise CheckFailure(f"row {index}: status {row['status']!r}")
        for name in ("qber_e", "cs_lower", "ber"):
            _parse_number(row, name, True)
        for name in ("info_rate_bits_per_s", "erasure_fraction"):
            _parse_number(row, name, False)
    return rows


def check_row_against_run(row: dict, rc: int, report_bytes: bytes) -> None:
    """A sweep row must say what ``qsdcnet run`` says for the same variant and seed."""
    report = strict_json(report_bytes.decode())
    session = report["session"]
    status = session["status"]
    if rc != (0 if status == "completed" else 2):
        raise CheckFailure(f"check run exit code {rc} for status {status}")
    qber = report.get("qber") or {}
    secrecy = report.get("secrecy") or {}
    expected = {
        "status": status,
        "qber_e": qber.get("e"),
        "cs_lower": secrecy.get("cs_lower"),
        "info_rate_bits_per_s": report["throughput"]["info_rate_bits_per_s"],
        "erasure_fraction": session["erasure_fraction"],
        "ber": session["ber"],
    }
    for name, want in expected.items():
        text = row[name]
        got = text if name == "status" else (None if text == "" else float(text))
        if got != want:
            raise CheckFailure(f"sweep row {row['index']} {name}={text!r}, run says {want!r}")


class SweepWorkload:
    """``qsdcnet sweep --param eve.fraction`` with an intercept-resend Eve.

    The scenario is short (a 256-bit message, 100-photon detection rounds)
    and re-detects only every 1000 blocks, so each session runs exactly one
    detection round and an aborted session sends no pairs. That fixes the
    simulated counts the CSV does not state: detection photons per session,
    and transmissions = message symbols / (1 - erasure_fraction) for a
    completed session (no symbol is ever truncated at this loss).
    """

    per_op = 8
    top_fraction = 0.8
    message_bits = 256
    detection_size = 100

    def __init__(self, name: str, seed: int, work: Path, base_doc):
        self.name = name
        self.seed = seed
        self.work = work
        self.rnd = random.Random(f"{name}/{seed}")
        self.draws = FractionDraws(self.rnd, self.per_op, self.top_fraction)
        self.doc = base_doc(self.rnd.getrandbits(63))
        self.doc["message"] = {"hex": self.rnd.randbytes(self.message_bits // 8).hex()}
        self.doc["protocol"]["detection_size"] = self.detection_size
        self.doc["protocol"]["min_samples"] = 30
        self.doc["protocol"]["redetect_every_blocks"] = 1000
        self.doc["eve"] = {"kind": "intercept_resend", "fraction": 0.0}
        self.scenario = work / "in" / "sweep.json"

    def setup(self) -> None:
        (self.work / "in").mkdir(parents=True, exist_ok=True)
        _write_json(self.scenario, self.doc)

    def make_op(self, index: int, out_dir: Path) -> Op:
        values = self.draws.next_op()
        base_seed = self.rnd.getrandbits(63)
        argv = [
            "sweep",
            "--scenario", str(self.scenario),
            "--seed", str(base_seed),
            "--param", SWEEP_PARAM,
            "--values", ",".join(repr(v) for v in values),
            "--out", str(out_dir),
        ]
        sample = self.rnd.randrange(len(values))
        expect = {"values": values, "base_seed": base_seed, "sample": sample}
        return Op(op_key(index), argv, out_dir, expect)

    def check(self, op: Op, rc: int, stdout: str, cli_main) -> Outcome:
        data = _read(op.out_dir / "sweep.csv")
        rows = check_sweep_rows(rc, stdout, data, op.expect["values"], op.expect["base_seed"])
        symbols = (self.message_bits + 1) // 2
        transmissions = 0
        completed = 0
        for row in rows:
            erasure = float(row["erasure_fraction"])
            if row["status"] == "completed":
                completed += 1
                transmissions += round(symbols / (1.0 - erasure))
            elif erasure != 0.0:
                raise CheckFailure(f"row {row['index']}: aborted after sending pairs")
        sample = op.expect["sample"]
        self._check_sample(op, rows[sample], op.expect["values"][sample], cli_main)
        counts = {
            "sessions": len(rows),
            "completed": completed,
            "aborted": len(rows) - completed,
            "transmissions": transmissions,
            "photons": self.detection_size * len(rows),
        }
        return Outcome(counts, [data])

    def _check_sample(self, op: Op, row: dict, value: float, cli_main) -> None:
        doc = json.loads(json.dumps(self.doc))
        doc["eve"]["fraction"] = value
        variant = self.work / "in" / "variant.json"
        _write_json(variant, doc)
        out_dir = op.out_dir.parent / "variant-run"
        rc, _ = cli_main(["run", "--scenario", str(variant), "--seed", row["seed"], "--out", str(out_dir)])
        check_row_against_run(row, rc, _read(out_dir / "report.json"))


WHY = {
    "megabit_run": "1 Mbit lossless run: 50 full blocks, no erasures; block path and finalize dominate, sets peak memory",
    "lossy40_run": "40 km run, 20 kbit: ~88% of pairs erased and re-queued; detection rounds and transcript writing weigh in",
    "eve_sweep": "eve.fraction sweep, values never repeat: table-cache misses, Clopper-Pearson and per-session overhead dominate",
}
NAMES = tuple(WHY)


def make(name: str, seed: int, work: Path, scenario_module):
    """Build workload ``name`` on the scenario builders of ``scenario_module``."""
    if name == "megabit_run":
        return RunWorkload(
            name, seed, work, lambda s: scenario_module.ideal_scenario_dict(seed=s), 1_000_000
        )
    if name == "lossy40_run":
        return RunWorkload(
            name, seed, work, lambda s: scenario_module.forty_km_scenario_dict(seed=s), 20_000
        )
    if name == "eve_sweep":

        def short_doc(s):
            doc = scenario_module.ideal_scenario_dict(seed=s)
            doc["devices"]["alice_fiber"]["length_km"] = 5.0
            doc["devices"]["detector"]["efficiency"] = 0.9
            doc["devices"]["sfg"]["conversion_efficiency"] = 0.85
            return doc

        return SweepWorkload(name, seed, work, short_doc)
    raise ValueError(f"unknown workload {name!r}")
