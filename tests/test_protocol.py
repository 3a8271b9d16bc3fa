import json
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qsdcnet.errors import DomainError, InvariantViolation
from qsdcnet.photonics import SfgSpec
from qsdcnet.protocol import (
    EveModel,
    ProtocolConfig,
    QberThresholdPolicy,
    Session,
    SessionPhase,
    bits_to_hex,
    delay_control,
    hex_to_bits,
    run_qsdc,
    run_security_detection,
    transmit_and_decode_block,
)
from qsdcnet.qstate import (
    BELL_ORDER,
    BellLabel,
    NoiseParams,
    apply_noise,
    bell_state,
)

from conftest import make_devices, qber_from_transcript, sfg_bsm


def detection_session(seed=0):
    session = Session(np.random.default_rng(seed))
    session.transition(SessionPhase.SECURITY_DETECTION)
    return session


def intercept_resend_qber_oracle(fraction):
    """Enumerate (eve basis, bob basis): matched bases agree, crossed bases
    randomize, so each intercepted photon errs with probability 1/4."""
    per_intercept = np.mean(
        [0.0 if eve == bob else 0.5 for eve, bob in product("ZX", repeat=2)]
    )
    return fraction * per_intercept


class TestStateMachine:
    def test_legal_path(self):
        session = Session(np.random.default_rng(0))
        assert session.phase is SessionPhase.IDLE
        session.transition(SessionPhase.SECURITY_DETECTION)
        session.transition(SessionPhase.BLOCK_TRANSMISSION)
        session.transition(SessionPhase.SECURITY_DETECTION)
        session.transition(SessionPhase.BLOCK_TRANSMISSION)
        session.transition(SessionPhase.COMPLETED)

    def test_cannot_skip_detection(self):
        session = Session(np.random.default_rng(0))
        with pytest.raises(InvariantViolation):
            session.transition(SessionPhase.BLOCK_TRANSMISSION)

    def test_terminal_states_are_final(self):
        session = detection_session()
        session.transition(SessionPhase.ABORTED, reason="test")
        for phase in SessionPhase:
            with pytest.raises(InvariantViolation):
                session.transition(phase)

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.sampled_from(list(SessionPhase)), max_size=12))
    def test_block_transmission_always_follows_detection(self, attempts):
        session = Session(np.random.default_rng(0))
        detected = False
        for phase in attempts:
            try:
                session.transition(phase)
            except InvariantViolation:
                continue
            if phase is SessionPhase.SECURITY_DETECTION:
                detected = True
            if phase is SessionPhase.BLOCK_TRANSMISSION:
                assert detected, "entered block transmission without detection"


class TestSecurityDetection:
    def test_ideal_channel_no_eve_passes_clean(self):
        session = detection_session(1)
        result = run_security_detection(
            session,
            make_devices(),
            EveModel.none(),
            QberThresholdPolicy(0.1, 500),
            num_photons=2000,
        )
        assert result.passed
        assert result.qber.e == 0.0
        assert session.phase is SessionPhase.BLOCK_TRANSMISSION

    def test_full_intercept_resend_hits_quarter_and_aborts(self):
        session = detection_session(2)
        result = run_security_detection(
            session,
            make_devices(),
            EveModel.intercept_resend(1.0),
            QberThresholdPolicy(0.1, 500),
            num_photons=20000,
        )
        assert result.photons_detected >= 10_000
        assert result.qber.e == pytest.approx(intercept_resend_qber_oracle(1.0), abs=0.01)
        assert not result.passed and result.reason == "qber_threshold_exceeded"
        assert session.phase is SessionPhase.ABORTED

    def test_partial_intercept_scales_linearly(self):
        session = detection_session(3)
        result = run_security_detection(
            session,
            make_devices(),
            EveModel.intercept_resend(0.2),
            QberThresholdPolicy(0.49, 500),
            num_photons=20000,
        )
        assert result.qber.e == pytest.approx(intercept_resend_qber_oracle(0.2), abs=0.01)

    @pytest.mark.parametrize("fraction", [0.1, 0.4, 0.7])
    def test_qber_converges_to_f_over_four(self, fraction):
        session = detection_session(int(fraction * 100))
        result = run_security_detection(
            session,
            make_devices(),
            EveModel.intercept_resend(fraction),
            QberThresholdPolicy(0.49, 500),
            num_photons=40000,
        )
        expected = intercept_resend_qber_oracle(fraction)
        se = np.sqrt(expected * (1 - expected) / result.photons_detected)
        assert abs(result.qber.e - expected) <= 4 * se

    def test_tap_triggers_photon_count_abort(self):
        session = detection_session(4)
        result = run_security_detection(
            session,
            make_devices(),
            EveModel.tap(0.8),
            QberThresholdPolicy(0.1, 500),
            num_photons=20000,
        )
        assert not result.passed and result.reason == "photon_count_drop"
        assert result.qber.e == 0.0  # tapping plants no errors, only loss
        assert session.phase is SessionPhase.ABORTED

    def test_weak_tap_passes_budget(self):
        session = detection_session(5)
        result = run_security_detection(
            session,
            make_devices(),
            EveModel.tap(0.2),
            QberThresholdPolicy(0.1, 500),
            num_photons=20000,
            decrease_factor=0.5,
        )
        assert result.passed

    def test_too_few_survivors_aborts(self):
        session = detection_session(6)
        result = run_security_detection(
            session,
            make_devices(fiber_km=40.0),
            EveModel.none(),
            QberThresholdPolicy(0.1, 500),
            num_photons=600,
        )
        assert not result.passed and result.reason == "insufficient_detection_samples"

    def test_source_noise_shows_up_as_qber(self):
        # Werner(p) gives matched-basis disagreement p/2 in either basis.
        p = 0.1
        session = detection_session(7)
        result = run_security_detection(
            session,
            make_devices(noise=NoiseParams(depolarizing_p=p)),
            EveModel.none(),
            QberThresholdPolicy(0.2, 500),
            num_photons=40000,
        )
        assert result.qber.e == pytest.approx(p / 2, abs=0.006)

    def test_requires_detection_phase(self):
        session = Session(np.random.default_rng(0))
        with pytest.raises(InvariantViolation):
            run_security_detection(
                session,
                make_devices(),
                EveModel.none(),
                QberThresholdPolicy(0.1, 1),
                num_photons=10,
            )


class TestEncodeBlock:
    def test_length_mismatch_rejected(self):
        # run_qsdc packs the message into 2-bit codes. Any bit count packs (an
        # odd one is padded, see test_odd_length_message_round_trips); a
        # character other than 0 and 1 does not.
        for message in ("0a", "2", "01 10", "0b01", "\u0661"):
            with pytest.raises(DomainError):
                run_qsdc(message, make_devices(), EveModel.none(), FAST_POLICY,
                         FAST_CONFIG, np.random.default_rng(0))


class TestTransmitAndDecode:
    def test_noiseless_round_trip(self):
        rng = np.random.default_rng(11)
        codes = np.array([0, 3, 2, 1, 3, 1, 0, 2], dtype=np.uint8)  # 0011100111010010
        delivered, decoded = transmit_and_decode_block(
            codes, make_devices(), EveModel.none(), rng
        )
        assert delivered.all()
        np.testing.assert_array_equal(decoded, codes)

    def test_zero_conversion_all_erasures(self):
        rng = np.random.default_rng(12)
        codes = np.full(50, 1, dtype=np.uint8)
        delivered, _ = transmit_and_decode_block(
            codes, make_devices(conversion=0.0), EveModel.none(), rng
        )
        assert not delivered.any()

    def test_werner_noise_symbol_error_rate(self):
        # Oracle: symbol error = 1 - Bell-diagonal peak = 3p/4 for Werner noise.
        p = 0.06
        oracle = 3 * p / 4
        rng = np.random.default_rng(13)
        n = 100_000
        codes = rng.integers(0, 4, n).astype(np.uint8)
        delivered, decoded = transmit_and_decode_block(
            codes, make_devices(noise=NoiseParams(depolarizing_p=p)), EveModel.none(), rng
        )
        assert delivered.all()
        errors = np.count_nonzero(decoded != codes)
        se = np.sqrt(oracle * (1 - oracle) / n)
        assert abs(errors / n - oracle) <= 3 * se

    def test_block_statistics_match_scalar_sfg_bsm(self):
        # The vectorized block path and per-pair sfg_bsm sample the same law.
        noise = NoiseParams(depolarizing_p=0.2)
        devices = make_devices(noise=noise)
        n = 40_000
        codes = np.full(n, 1, dtype=np.uint8)  # every pair encodes sigma_z
        delivered, decoded = transmit_and_decode_block(
            codes, devices, EveModel.none(), np.random.default_rng(14)
        )
        assert delivered.all()
        block_freq = {
            label: np.count_nonzero(decoded == code) / n
            for code, label in enumerate(BELL_ORDER)
        }
        state = apply_noise(bell_state(BellLabel.PHI_MINUS), noise)
        rng = np.random.default_rng(15)
        scalar_counts = {label: 0 for label in BellLabel}
        trials = 40_000
        for _ in range(trials):
            scalar_counts[sfg_bsm(state, SfgSpec(1.0), rng)] += 1
        for label in BellLabel:
            expected = scalar_counts[label] / trials
            se = np.sqrt(max(expected * (1 - expected), 1e-9) / trials)
            assert abs(block_freq[label] - expected) <= 5 * se

    def test_loss_probability_matches_transmittance(self):
        rng = np.random.default_rng(16)
        n = 50_000
        devices = make_devices(fiber_km=10.0, attenuation=1.0)  # eta = 0.1 per arm
        codes = np.zeros(n, dtype=np.uint8)
        delivered, _ = transmit_and_decode_block(codes, devices, EveModel.none(), rng)
        erased = np.count_nonzero(~delivered) / n
        expected = 1 - 0.1 * 0.1
        se = np.sqrt(expected * (1 - expected) / n)
        assert abs(erased - expected) <= 3 * se


class TestDelayControl:
    def test_zero_length(self):
        assert delay_control(0, 1e-6) == 0.0

    def test_product(self):
        assert delay_control(100, 1e-6) == pytest.approx(1e-4, abs=1e-15)

    def test_monotone_in_length(self):
        delays = [delay_control(n, 2e-6) for n in range(0, 200, 10)]
        assert delays == sorted(delays)

    def test_negative_rejected(self):
        with pytest.raises(DomainError):
            delay_control(-1, 1e-6)


FAST_CONFIG = ProtocolConfig(
    block_size=64,
    detection_size=32,
    redetect_every_blocks=10,
    max_retransmissions=50,
)
FAST_POLICY = QberThresholdPolicy(threshold=0.1, min_samples=8)


class TestRunQsdc:
    def test_kilobit_message_ideal_channel(self):
        rng = np.random.default_rng(20)
        message = "".join(rng.choice(list("01"), 1000))
        transcript = run_qsdc(
            message, make_devices(), EveModel.none(), FAST_POLICY, FAST_CONFIG,
            np.random.default_rng(21),
        )
        assert transcript.completed
        assert transcript.ber == 0.0
        assert transcript.delivered_bits == message

    def test_odd_length_message_round_trips(self):
        transcript = run_qsdc(
            "10101", make_devices(), EveModel.none(), FAST_POLICY, FAST_CONFIG,
            np.random.default_rng(22),
        )
        assert transcript.delivered_bits == "10101"

    def test_full_intercept_aborts_without_exposing_message(self):
        message = "1011001110001111" * 64
        policy = QberThresholdPolicy(threshold=0.1, min_samples=500)
        config = ProtocolConfig(block_size=512, detection_size=12000)
        transcript = run_qsdc(
            message, make_devices(), EveModel.intercept_resend(1.0), policy, config,
            np.random.default_rng(23),
        )
        assert transcript.aborted
        assert transcript.abort_reason == "qber_threshold_exceeded"
        assert transcript.delivered_bits is None
        kinds = {event.event_kind for event in transcript.events}
        assert "block_sent" not in kinds and "session_complete" not in kinds
        assert message not in transcript.to_jsonl()
        assert bits_to_hex(message) not in transcript.to_jsonl()

    def test_erasures_are_retransmitted_to_completion(self):
        message = "0110" * 100
        transcript = run_qsdc(
            message, make_devices(conversion=0.5), EveModel.none(), FAST_POLICY,
            FAST_CONFIG, np.random.default_rng(24),
        )
        assert transcript.completed
        assert transcript.delivered_bits == message
        assert transcript.summary["erased_transmissions"] > 0
        assert transcript.erasure_fraction == pytest.approx(0.5, abs=0.05)

    def test_retransmission_cap_reports_truncation(self):
        config = ProtocolConfig(
            block_size=16, detection_size=8, redetect_every_blocks=1000,
            max_retransmissions=3,
        )
        transcript = run_qsdc(
            "11" * 8, make_devices(conversion=0.0), EveModel.none(), FAST_POLICY,
            config, np.random.default_rng(25),
        )
        assert transcript.completed
        assert len(transcript.summary["truncated_symbols"]) == 8
        assert transcript.ber is None  # nothing delivered to compare

    def test_periodic_redetection_runs(self):
        config = ProtocolConfig(
            block_size=8, detection_size=16, redetect_every_blocks=2,
            max_retransmissions=10,
        )
        transcript = run_qsdc(
            "01" * 40, make_devices(), EveModel.none(), FAST_POLICY, config,
            np.random.default_rng(26),
        )
        detections = sum(1 for e in transcript.events if e.event_kind == "detection_result")
        assert transcript.completed
        assert detections == 3  # initial + after blocks 2 and 4

    def test_transcript_is_pure_function_of_seed(self):
        def run(seed):
            return run_qsdc(
                "0011" * 60, make_devices(conversion=0.8), EveModel.none(),
                FAST_POLICY, FAST_CONFIG, np.random.default_rng(seed),
            ).to_jsonl()

        assert run(99) == run(99)
        assert run(99) != run(100)

    def test_transcript_schema(self):
        transcript = run_qsdc(
            "0101", make_devices(), EveModel.none(), FAST_POLICY, FAST_CONFIG,
            np.random.default_rng(27),
        )
        for line in transcript.to_jsonl().splitlines():
            record = json.loads(line)
            assert list(record) == ["timestamp_s", "event_kind", "payload"]
            assert isinstance(record["timestamp_s"], float)
            assert isinstance(record["payload"], dict)

    def test_exhaustive_short_messages(self):
        devices = make_devices()
        config = ProtocolConfig(block_size=8, detection_size=4, redetect_every_blocks=10)
        policy = QberThresholdPolicy(threshold=0.25, min_samples=2)
        for length in range(1, 9):
            for value in range(2**length):
                message = format(value, f"0{length}b")
                transcript = run_qsdc(
                    message, devices, EveModel.none(), policy, config,
                    np.random.default_rng(value),
                )
                assert transcript.delivered_bits == message
                assert transcript.ber == 0.0

    def test_empty_message_rejected(self):
        with pytest.raises(DomainError):
            run_qsdc("", make_devices(), EveModel.none(), FAST_POLICY, FAST_CONFIG,
                     np.random.default_rng(0))


class TestBitstringHelpers:
    def test_round_trip(self):
        assert hex_to_bits(bits_to_hex("10110"), 5) == "10110"
        assert bits_to_hex("1101") == "d"
        assert hex_to_bits("deadbeef") == "11011110101011011011111011101111"

    def test_bit_length_overflow_rejected(self):
        with pytest.raises(DomainError):
            hex_to_bits("ff", 9)

    def test_malformed_strings_rejected(self):
        # int(s, 16) on the whole string would accept the first four.
        for hex_string in ("0x1f", "1_f", " 1f", "1f ", "1g", "ff-"):
            with pytest.raises(ValueError):
                hex_to_bits(hex_string)
        for bits in ("0102", "1a", "01 "):
            with pytest.raises(ValueError):
                bits_to_hex(bits)


class TestTranscriptFormatting:
    """Detection records are kept as arrays and formatted by hand; these
    properties hold them to json.dumps and to the scalar QBER oracle."""

    @settings(max_examples=40, deadline=None)
    @given(
        rate_hz=st.floats(min_value=1e3, max_value=1e10, allow_nan=False),
        detection_size=st.integers(min_value=1, max_value=300),
        eve_kind=st.sampled_from(["none", "intercept_resend", "tap"]),
        eve_fraction=st.floats(min_value=0.0, max_value=1.0),
        fiber_km=st.floats(min_value=0.0, max_value=15.0),
        message_bits=st.integers(min_value=1, max_value=200),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_detection_lines_match_json_and_scalar_qber(
        self, rate_hz, detection_size, eve_kind, eve_fraction, fiber_km, message_bits, seed
    ):
        eve = {
            "none": EveModel.none(),
            "intercept_resend": EveModel.intercept_resend(eve_fraction),
            "tap": EveModel.tap(eve_fraction),
        }[eve_kind]
        rng = np.random.default_rng(seed)
        message = "".join(map(str, rng.integers(0, 2, message_bits)))
        transcript = run_qsdc(
            message,
            make_devices(fiber_km=fiber_km, conversion=0.7, mod_rate_hz=rate_hz),
            eve,
            QberThresholdPolicy(threshold=0.3, min_samples=1),
            ProtocolConfig(block_size=16, detection_size=detection_size, redetect_every_blocks=2),
            rng,
        )
        round_records = None
        rounds = 0
        for line in transcript.to_jsonl().splitlines():
            event = json.loads(line)
            assert json.dumps(event) == line
            kind, payload = event["event_kind"], event["payload"]
            if kind == "detection_start":
                round_records = []
            elif kind == "detection_record":
                round_records.append(payload)
            elif kind == "detection_result":
                assert payload["photons_detected"] == len(round_records)
                expected = qber_from_transcript(round_records).to_dict() if round_records else None
                assert payload["qber"] == expected
                rounds += 1
        assert rounds == sum(e.event_kind == "detection_result" for e in transcript.events)
        assert rounds >= 1
