"""Acceptance gate: every criterion as one timed test with a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see one line per
criterion. Expected values tagged as derived below are frozen from the
independent oracles coded in this file (brute-force enumeration, explicit
matrix algebra, 50-digit decimal entropy evaluation).
"""

import hashlib
import json
import time
from contextlib import contextmanager
from decimal import Decimal, getcontext
from itertools import combinations

import numpy as np
import pytest

from qsdcnet import analysis, netplan, qstate
from qsdcnet.protocol import (
    Link,
    Session,
    run_qsdc,
    run_security_detection,
)
from qsdcnet.report import build_report, fringe_study, read, report_pieces, run_session
from qsdcnet.scenario import (
    EveKind,
    EveModel,
    NoiseParams,
    ProtocolConfig,
    SfgSpec,
    forty_km_scenario_dict,
    ideal_scenario_dict,
    scenario_from_dict,
)

from conftest import (
    PauliEncoding,
    apply_encoding,
    apply_noise,
    bell_diagonal,
    bell_state,
    codes_from_bits,
    depolarizing_p_for_fidelity,
    detection_payload,
    make_devices,
    sfg_bsm,
)


@contextmanager
def criterion(number: int, name: str, budget_s: float | None = None):
    started = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number:02d} {name}: FAIL ({time.monotonic() - started:.2f} s)")
        raise
    elapsed = time.monotonic() - started
    print(f"ACCEPTANCE {number:02d} {name}: PASS ({elapsed:.2f} s)")
    if budget_s is not None:
        assert elapsed < budget_s, f"criterion {number} exceeded {budget_s} s budget"


def test_criterion_01_network_plan():
    with criterion(1, "network-plan 5x3", budget_s=1.0):
        plan = netplan.build_plan(netplan.Topology(5, 3))
        document = plan.to_dict()
        names = set()
        for link in document["inter_subnet_links"] + document["intra_subnet_links"]:
            names.update((link["signal"], link["idler"]))
        assert len(names) == 30
        assert len(plan.inter_links) + len(plan.intra_links) == 15
        assert len(plan.inter_links) == 10  # ten inter-subnet links

        # Brute-force oracle: every unordered user pair resolves a resource.
        users = [(s, u) for s in range(5) for u in range(3)]
        pairs_checked = 0
        for (s1, u1), (s2, u2) in combinations(users, 2):
            pairs_checked += 1
            if s1 == s2:
                link = plan.intra_links[s1]
                assert u1 in link.tdm_slots and u2 in link.tdm_slots
            else:
                assert (min(s1, s2), max(s1, s2)) in plan.inter_links
        assert pairs_checked == 105
        report = netplan.verify_full_connectivity(plan)
        assert report["fully_connected"] and report["user_pairs"] == 105


def test_criterion_02_channel_naming():
    with criterion(2, "ITU channel naming"):
        assert netplan.itu_name(11, "signal") == "CH27"
        for n in range(1, 16):
            assert netplan.itu_name(n, "signal") == f"CH{16 + n}"
            assert netplan.itu_name(n, "idler") == f"CH{32 + n}"
        all_names = {
            netplan.itu_name(n, side) for n in range(1, 16) for side in ("signal", "idler")
        }
        assert all_names == {f"CH{c}" for c in range(17, 48) if c != 32}


def test_criterion_03_encoding_table():
    with criterion(3, "Pauli encoding table"):
        # Independent matrix oracle: conjugate phi+ by hand-built unitaries.
        sqrt_half = 1 / np.sqrt(2)
        phi_plus = sqrt_half * np.array([1, 0, 0, 1], dtype=complex)
        rho_in = np.outer(phi_plus, phi_plus.conj())
        unitaries = {
            PauliEncoding.I: np.eye(2, dtype=complex),
            PauliEncoding.SIGMA_Z: np.diag([1.0, -1.0]).astype(complex),
            PauliEncoding.SIGMA_X: np.array([[0, 1], [1, 0]], dtype=complex),
            PauliEncoding.MINUS_I_SIGMA_Y: np.array([[0, -1], [1, 0]], dtype=complex),
        }
        expected_labels = {
            PauliEncoding.I: qstate.BellLabel.PHI_PLUS,
            PauliEncoding.SIGMA_Z: qstate.BellLabel.PHI_MINUS,
            PauliEncoding.SIGMA_X: qstate.BellLabel.PSI_PLUS,
            PauliEncoding.MINUS_I_SIGMA_Y: qstate.BellLabel.PSI_MINUS,
        }
        for encoding, unitary in unitaries.items():
            u4 = np.kron(unitary, np.eye(2, dtype=complex))
            oracle = u4 @ rho_in @ u4.conj().T
            produced = apply_encoding(bell_state(qstate.BellLabel.PHI_PLUS), encoding)
            assert np.max(np.abs(produced.rho - oracle)) < 1e-12
            target = bell_state(expected_labels[encoding]).rho
            assert np.max(np.abs(produced.rho - target)) < 1e-12


CALIBRATED_FIDELITIES = {
    qstate.BellLabel.PHI_PLUS: 0.9525,
    qstate.BellLabel.PHI_MINUS: 0.9543,
    qstate.BellLabel.PSI_PLUS: 0.9549,
    qstate.BellLabel.PSI_MINUS: 0.9548,
}


def test_criterion_04_calibrated_fidelity_recovery():
    with criterion(4, "fringe fidelity estimator at calibrated points", budget_s=120.0):
        phases, shots = 64, 20000  # 1.28e6 Monte Carlo samples per Bell state
        assert phases * shots >= 100_000
        for label, target in CALIBRATED_FIDELITIES.items():
            p = depolarizing_p_for_fidelity(target)
            doc = ideal_scenario_dict(seed=400 + label.value.count("1"), message_hex="aa")
            doc["devices"]["source"]["noise"]["depolarizing_p"] = p
            scenario = scenario_from_dict(doc)
            direct = qstate.fidelity(label, scenario.devices.source.noise)
            assert direct == pytest.approx(target, abs=1e-12)
            study = fringe_study(scenario, label, phases=phases, shots_per_phase=shots)
            assert study["fidelity_isotropic"] == pytest.approx(target, abs=0.005)


def test_criterion_05_secrecy_capacity_reference_point():
    with criterion(5, "secrecy capacity at reported error rate"):
        getcontext().prec = 50
        e = Decimal("0.0013")
        ln2 = Decimal(2).ln()
        oracle = float(-(e * e.ln() + (1 - e) * (1 - e).ln()) / ln2)
        assert analysis.binary_entropy(0.0013) == pytest.approx(oracle, abs=1e-5)
        report = analysis.secrecy_capacity_bound(1.0, 0.0, 0.0013)
        assert report["cs_lower"] == pytest.approx(1.0 - oracle, abs=1e-5)
        # Near-unit secrecy capacity at the reported operating point.
        assert report["cs_lower"] > 0.985


def test_criterion_06_eavesdropper_detection():
    with criterion(6, "intercept-resend detection", budget_s=30.0):
        devices = make_devices()
        config = ProtocolConfig(detection_size=12000)  # default threshold 0.1

        session = Session(np.random.default_rng(601))
        session.transition("security_detection")
        passed = run_security_detection(
            session, Link(devices, EveModel(EveKind.INTERCEPT_RESEND, 1.0)), config
        )
        full = detection_payload(session)
        assert full["photons_detected"] >= 10_000
        assert full["qber"].e == pytest.approx(0.25, abs=0.01)
        assert not passed and session.phase == "aborted"

        session = Session(np.random.default_rng(602))
        session.transition("security_detection")
        passed = run_security_detection(
            session, Link(devices, EveModel(EveKind.INTERCEPT_RESEND, 0.2)), config
        )
        partial = detection_payload(session)
        assert partial["photons_detected"] >= 10_000
        assert partial["qber"].e == pytest.approx(0.05, abs=0.01)
        assert passed  # 5% sits below the default 10% threshold


def test_criterion_07_end_to_end_correctness():
    with criterion(7, "noiseless delivery, exhaustive + megabit", budget_s=120.0):
        devices = make_devices()
        config = ProtocolConfig(
            qber_threshold=0.25, min_samples=2, block_size=8, detection_size=4,
            redetect_every_blocks=10,
        )
        checked = 0
        for length in range(1, 17):
            for value in range(2**length):
                message = format(value, f"0{length}b")
                transcript = run_qsdc(
                    codes_from_bits(message), devices, EveModel(EveKind.NONE, 0.0), config,
                    np.random.default_rng((length << 20) | value),
                )
                assert transcript.summary["ber"] == 0.0
                assert transcript.summary["delivered_bits"] == message
                checked += 1
        assert checked == 2**17 - 2

        doc = ideal_scenario_dict(seed=700)
        doc["message"] = {"random_bits": 1_000_000}
        scenario = scenario_from_dict(doc)
        transcript = run_session(scenario)
        assert transcript.summary["status"] == "completed"
        assert transcript.summary["ber"] == 0.0
        assert transcript.summary["delivered_bits"] == scenario.message_bits().text()


def test_criterion_08_throughput_at_forty_km():
    with criterion(8, "40 km throughput"):
        scenario = scenario_from_dict(forty_km_scenario_dict(seed=800))
        assert (
            scenario.devices.alice_fiber.length_km + scenario.devices.bob_fiber.length_km
            == 40.0
        )
        assert scenario.devices.sfg.max_rate_hz == 1e5
        transcript = run_session(scenario)
        report = build_report(scenario, *read(transcript.events), None)
        assert transcript.summary["status"] == "completed"
        assert report["throughput"]["info_rate_bits_per_s"] >= 1000.0

        # Modulation accelerated to match the SFG photon rate: 1e5 bits/s.
        matched = analysis.throughput(1e5, 5e4, 0.0, 0.0)
        assert matched["info_rate_bits_per_s"] == 1e5


def _run_files(doc):
    scenario = scenario_from_dict(doc)
    transcript = run_session(scenario)
    report = build_report(scenario, *read(transcript.events), "transcript.jsonl")
    return (
        hashlib.sha256("".join(transcript.chunks()).encode()).hexdigest(),
        hashlib.sha256("".join(report_pieces(report)).encode()).hexdigest(),
    )


def test_criterion_09_determinism_across_scenarios():
    with criterion(9, "byte-identical reruns over 5 scenarios"):
        noisy = ideal_scenario_dict(seed=903, message_hex="beef" * 4)
        noisy["devices"]["source"]["noise"]["depolarizing_p"] = 0.06
        eve_doc = ideal_scenario_dict(seed=904, message_hex="0123")
        eve_doc["eve"] = {"kind": "intercept_resend", "fraction": 1.0}
        tap_doc = ideal_scenario_dict(seed=905, message_hex="7777")
        tap_doc["eve"] = {"kind": "tap", "fraction": 0.3}
        scenarios = [
            ideal_scenario_dict(seed=901, message_hex="deadbeef" * 4),
            forty_km_scenario_dict(seed=902, random_bits=6000),
            noisy,
            eve_doc,
            tap_doc,
        ]
        for doc in scenarios:
            assert _run_files(doc) == _run_files(doc)


def test_criterion_10_sfg_bsm_statistics():
    with criterion(10, "SFG-BSM Werner statistics"):
        trials = 100_000
        for seed, (label, p) in enumerate(
            [(qstate.BellLabel.PHI_MINUS, 0.06), (qstate.BellLabel.PSI_PLUS, 0.3)]
        ):
            state = apply_noise(bell_state(label), NoiseParams(depolarizing_p=p))
            oracle = bell_diagonal(state)  # exact Bell-basis probabilities
            rng = np.random.default_rng(1000 + seed)
            counts = {lbl: 0 for lbl in qstate.BELL_ORDER}
            for _ in range(trials):
                counts[sfg_bsm(state, SfgSpec(1.0), rng)] += 1
            for lbl in qstate.BELL_ORDER:
                expected = oracle[lbl]
                se = np.sqrt(expected * (1 - expected) / trials)
                assert abs(counts[lbl] / trials - expected) <= 3 * se
