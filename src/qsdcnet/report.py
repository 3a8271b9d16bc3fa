"""The run report and the sweep row, from a scenario and its session's
transcript: a sweep row's columns are the ``session_metrics`` the report
writes. Only ``analysis`` and ``netplan``, which need no numpy, load with this
module; the session, ``qstate``, ``photonics`` and ``transcript`` load inside
the functions that use them.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from . import analysis, netplan

if TYPE_CHECKING:
    from . import qstate
    from .scenario import Scenario
    from .transcript import SessionTranscript

SWEEP_COLUMNS = [
    "index", "parameter", "value", "seed",
    "status", "qber_e", "cs_lower", "info_rate_bits_per_s", "erasure_fraction", "ber",
]


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
    scenario: Scenario, transcript: SessionTranscript, transcript_path: str | None
) -> dict:
    """Assemble the machine-readable run report."""
    plan = netplan.build_plan(scenario.topology)
    connectivity = netplan.verify_full_connectivity(plan)
    document = plan.to_dict()
    qber, secrecy, throughput = session_metrics(scenario, transcript)
    return {
        "scenario_digest": scenario.digest(),
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


def report_pieces(report: dict) -> list[str]:
    """The report's JSON text and newline, in ``transcript.spliced_pieces``."""
    from .transcript import spliced_pieces

    return spliced_pieces(report, "\n", sort_keys=True, indent=2, allow_nan=False)


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


def sweep_row(scenario: Scenario, transcript: SessionTranscript) -> dict:
    """The session's sweep columns, as its report writes them; "" where it writes null."""
    qber, secrecy, throughput = session_metrics(scenario, transcript)
    summary = transcript.summary
    return {
        "status": summary["status"],
        "qber_e": qber.e if qber else "",
        "cs_lower": secrecy["cs_lower"] if secrecy else "",
        "info_rate_bits_per_s": throughput["info_rate_bits_per_s"],
        "erasure_fraction": summary["erasure_fraction"],
        "ber": summary["ber"] if summary["ber"] is not None else "",
    }
