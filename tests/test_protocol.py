import copy
import hashlib
import json
from itertools import product

import numpy as np
import orjson
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qsdcnet import cli, protocol, scenario
from qsdcnet.analysis import QberEstimate
from qsdcnet.errors import DomainError
from qsdcnet.protocol import (
    Link,
    MessageCodes,
    Session,
    run_qsdc,
    run_security_detection,
    _detection_branch_cumulative,
    _encoding_cumulative,
    _columns,
    _sample,
)
from qsdcnet.qstate import BELL_ORDER, BellLabel

from test_golden import RUN_SCENARIOS

from conftest import (
    apply_noise,
    bell_state,
    bit_values_oracle,
    bits_to_hex_oracle,
    codes_from_bits,
    detection_branch_cumulative_oracle,
    detection_payload,
    encoding_cumulative_oracle,
    hex_to_bits_oracle,
    make_devices,
    pack_codes_oracle,
    qber_from_transcript,
    run_qsdc_oracle,
    sample_oracle,
    security_detection_oracle,
    sfg_bsm,
    transmit_and_decode_block,
)
from qsdcnet.report import build_report, report_pieces, run_session
from qsdcnet.scenario import (
    _MESSAGE_STREAM,
    MAX_DETECTION_SIZE,
    EveKind,
    EveModel,
    MessageSpec,
    NoiseParams,
    ProtocolConfig,
    SfgSpec,
    Unescaped,
    forty_km_scenario_dict,
    hex_bytes,
    ideal_scenario_dict,
    scenario_from_dict,
)
from qsdcnet.transcript import (
    DetectionBatch,
    _EVENT_BOUNDARY,
    _SPLICE_MARK,
    _SPLICE_TOKEN,
    encoded,
    events_jsonl,
    spliced_pieces,
)


def event_kinds(transcript) -> list[str]:
    """The kind of each logged event, detection batches left out."""
    return [event["event_kind"] for event in transcript.events if isinstance(event, dict)]


def detection_session(seed=0):
    session = Session(np.random.default_rng(seed))
    session.transition("security_detection")
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
        assert session.phase == "idle"
        path = ["security_detection", "block_transmission", "security_detection", "aborted"]
        for phase in path:
            session.transition(phase, reason="test" if phase == "aborted" else None)
            assert session.phase == phase
        assert session.abort_reason == "test"
        lines = [event["payload"] for event in session.transcript.events]
        assert [line["from_phase"] for line in lines] == ["idle", *path[:-1]]
        assert [line["to_phase"] for line in lines] == path
        assert [line["reason"] for line in lines] == [None, None, None, "test"]


class TestSecurityDetection:
    def test_ideal_channel_no_eve_passes_clean(self):
        session = detection_session(1)
        passed = run_security_detection(
            session,
            Link(make_devices(), EveModel(EveKind.NONE, 0.0)),
            ProtocolConfig(qber_threshold=0.1, min_samples=500, detection_size=2000),
        )
        result = detection_payload(session)
        assert passed
        assert result["qber"].e == 0.0
        assert session.phase == "block_transmission"

    def test_full_intercept_resend_hits_quarter_and_aborts(self):
        session = detection_session(2)
        passed = run_security_detection(
            session,
            Link(make_devices(), EveModel(EveKind.INTERCEPT_RESEND, 1.0)),
            ProtocolConfig(qber_threshold=0.1, min_samples=500, detection_size=20000),
        )
        result = detection_payload(session)
        assert result["photons_detected"] >= 10_000
        assert result["qber"].e == pytest.approx(intercept_resend_qber_oracle(1.0), abs=0.01)
        assert not passed and result["reason"] == "qber_threshold_exceeded"
        assert session.phase == "aborted"

    def test_partial_intercept_scales_linearly(self):
        session = detection_session(3)
        run_security_detection(
            session,
            Link(make_devices(), EveModel(EveKind.INTERCEPT_RESEND, 0.2)),
            ProtocolConfig(qber_threshold=0.49, min_samples=500, detection_size=20000),
        )
        result = detection_payload(session)
        assert result["qber"].e == pytest.approx(intercept_resend_qber_oracle(0.2), abs=0.01)

    @pytest.mark.parametrize("fraction", [0.1, 0.4, 0.7])
    def test_qber_converges_to_f_over_four(self, fraction):
        session = detection_session(int(fraction * 100))
        run_security_detection(
            session,
            Link(make_devices(), EveModel(EveKind.INTERCEPT_RESEND, fraction)),
            ProtocolConfig(qber_threshold=0.49, min_samples=500, detection_size=40000),
        )
        result = detection_payload(session)
        expected = intercept_resend_qber_oracle(fraction)
        se = np.sqrt(expected * (1 - expected) / result["photons_detected"])
        assert abs(result["qber"].e - expected) <= 4 * se

    def test_tap_triggers_photon_count_abort(self):
        session = detection_session(4)
        passed = run_security_detection(
            session,
            Link(make_devices(), EveModel(EveKind.TAP, 0.8)),
            ProtocolConfig(qber_threshold=0.1, min_samples=500, detection_size=20000),
        )
        result = detection_payload(session)
        assert not passed and result["reason"] == "photon_count_drop"
        assert result["qber"].e == 0.0  # tapping plants no errors, only loss
        assert session.phase == "aborted"

    def test_weak_tap_passes_budget(self):
        session = detection_session(5)
        passed = run_security_detection(
            session,
            Link(make_devices(), EveModel(EveKind.TAP, 0.2)),
            ProtocolConfig(
                qber_threshold=0.1, min_samples=500, detection_size=20000,
                photon_decrease_factor=0.5,
            ),
        )
        assert passed

    def test_too_few_survivors_aborts(self):
        session = detection_session(6)
        passed = run_security_detection(
            session,
            Link(make_devices(fiber_km=40.0), EveModel(EveKind.NONE, 0.0)),
            ProtocolConfig(qber_threshold=0.1, min_samples=500, detection_size=600),
        )
        result = detection_payload(session)
        assert not passed and result["reason"] == "insufficient_detection_samples"

    def test_source_noise_shows_up_as_qber(self):
        # Werner(p) gives matched-basis disagreement p/2 in either basis.
        p = 0.1
        session = detection_session(7)
        run_security_detection(
            session,
            Link(make_devices(noise=NoiseParams(depolarizing_p=p)), EveModel(EveKind.NONE, 0.0)),
            ProtocolConfig(qber_threshold=0.2, min_samples=500, detection_size=40000),
        )
        result = detection_payload(session)
        assert result["qber"].e == pytest.approx(p / 2, abs=0.006)


class TestEncodeBlock:
    def test_length_mismatch_rejected(self):
        # A message is packed into 2-bit codes before run_qsdc. Any bit count
        # packs (an odd one is padded, see test_odd_length_message_round_trips);
        # a character other than 0 and 1 does not.
        for message in ("0a", "2", "01 10", "0b01", "\u0661", "0\ud800"):
            with pytest.raises(DomainError):
                run_qsdc(codes_from_bits(message), make_devices(), EveModel(EveKind.NONE, 0.0),
                         FAST_CONFIG, np.random.default_rng(0))


class TestTransmitAndDecode:
    def test_noiseless_round_trip(self):
        rng = np.random.default_rng(11)
        codes = np.array([0, 3, 2, 1, 3, 1, 0, 2], dtype=np.uint8)  # 0011100111010010
        delivered, decoded = transmit_and_decode_block(
            codes, Link(make_devices(), EveModel(EveKind.NONE, 0.0)), rng
        )
        assert delivered.all()
        np.testing.assert_array_equal(decoded, codes)

    def test_zero_conversion_all_erasures(self):
        rng = np.random.default_rng(12)
        codes = np.full(50, 1, dtype=np.uint8)
        delivered, _ = transmit_and_decode_block(
            codes, Link(make_devices(conversion=0.0), EveModel(EveKind.NONE, 0.0)), rng
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
            codes,
            Link(make_devices(noise=NoiseParams(depolarizing_p=p)), EveModel(EveKind.NONE, 0.0)),
            rng,
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
            codes, Link(devices, EveModel(EveKind.NONE, 0.0)), np.random.default_rng(14)
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
        link = Link(devices, EveModel(EveKind.NONE, 0.0))
        delivered, _ = transmit_and_decode_block(codes, link, rng)
        erased = np.count_nonzero(~delivered) / n
        expected = 1 - 0.1 * 0.1
        se = np.sqrt(expected * (1 - expected) / n)
        assert abs(erased - expected) <= 3 * se

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**64 - 1),
        stream=st.integers(0, 2**16),
        first=st.integers(0, 3000),
        second=st.integers(0, 3000),
    )
    def test_one_draw_call_is_two_calls(self, seed, stream, first, second):
        # A block draws random(2 * n) once, where the golden digests were
        # recorded with random(n) twice. For PCG64 those are the same stream,
        # and the generator ends in the same state.
        split, joined = (np.random.default_rng([seed, stream]) for _ in range(2))
        parts = np.concatenate((split.random(first), split.random(second)))
        np.testing.assert_array_equal(joined.random(first + second), parts)
        assert joined.bit_generator.state == split.bit_generator.state
        # The first half decides delivery, the second half the decoded state.
        devices = make_devices(conversion=0.5, noise=NoiseParams(0.3))
        link = Link(devices, EveModel(EveKind.NONE, 0.0))
        codes = np.random.default_rng(seed).integers(0, 4, first).astype(np.uint8)
        delivered, decoded = transmit_and_decode_block(
            codes, link, np.random.default_rng([seed, stream])
        )
        two_calls = np.random.default_rng([seed, stream])
        np.testing.assert_array_equal(delivered, two_calls.random(first) < link.p_deliver)
        np.testing.assert_array_equal(
            decoded, _sample(link.encoding_columns, codes, two_calls.random(first))
        )


class TestDelayControl:
    """The idler storage delay a detection round logs: photons times slot."""

    @staticmethod
    def alice_delay_s(num_photons, tdm_slot_s):
        session = detection_session()
        run_security_detection(
            session, Link(make_devices(), EveModel(EveKind.NONE, 0.0)),
            ProtocolConfig(min_samples=1, detection_size=num_photons, tdm_slot_s=tdm_slot_s),
        )
        (payload,) = [
            e["payload"] for e in session.transcript.events
            if isinstance(e, dict) and e["event_kind"] == "detection_result"
        ]
        return payload["alice_delay_s"]

    def test_zero_slot(self):
        assert self.alice_delay_s(10, 0.0) == 0.0

    def test_product(self):
        assert self.alice_delay_s(100, 1e-6) == pytest.approx(1e-4, abs=1e-15)

    def test_monotone_in_length(self):
        delays = [self.alice_delay_s(n, 2e-6) for n in range(1, 200, 10)]
        assert delays == sorted(delays)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("detection_size", 0),
            ("tdm_slot_s", -1e-6),
            ("photon_decrease_factor", -0.1),
            ("photon_decrease_factor", 1.1),
            ("qber_threshold", 0.0),
            ("qber_threshold", 0.5),
            ("min_samples", 0),
        ],
    )
    def test_out_of_range_rejected(self, field, value):
        # The config a round reads is checked when it is built, before any
        # session runs; the message starts with the field's name.
        with pytest.raises(DomainError, match=f"^{field} must be"):
            ProtocolConfig(**{field: value})


FAST_CONFIG = ProtocolConfig(
    qber_threshold=0.1,
    min_samples=8,
    block_size=64,
    detection_size=32,
    redetect_every_blocks=10,
    max_retransmissions=50,
)


class TestRunQsdc:
    def test_kilobit_message_ideal_channel(self):
        rng = np.random.default_rng(20)
        message = "".join(rng.choice(list("01"), 1000))
        transcript = run_qsdc(
            codes_from_bits(message), make_devices(), EveModel(EveKind.NONE, 0.0), FAST_CONFIG,
            np.random.default_rng(21),
        )
        assert transcript.summary["status"] == "completed"
        assert transcript.summary["ber"] == 0.0
        assert transcript.summary["delivered_bits"] == message

    def test_odd_length_message_round_trips(self):
        transcript = run_qsdc(
            codes_from_bits("10101"), make_devices(), EveModel(EveKind.NONE, 0.0), FAST_CONFIG,
            np.random.default_rng(22),
        )
        assert transcript.summary["delivered_bits"] == "10101"

    def test_full_intercept_aborts_without_exposing_message(self):
        message = "1011001110001111" * 64
        config = ProtocolConfig(
            qber_threshold=0.1, min_samples=500, block_size=512, detection_size=12000
        )
        transcript = run_qsdc(
            codes_from_bits(message), make_devices(), EveModel(EveKind.INTERCEPT_RESEND, 1.0),
            config,
            np.random.default_rng(23),
        )
        assert transcript.summary["status"] == "aborted"
        assert transcript.summary["abort_reason"] == "qber_threshold_exceeded"
        assert transcript.summary["delivered_bits"] is None
        kinds = set(event_kinds(transcript))
        assert "block_sent" not in kinds and "session_complete" not in kinds
        assert message not in "".join(transcript.chunks())
        assert bits_to_hex_oracle(message) not in "".join(transcript.chunks())

    def test_erasures_are_retransmitted_to_completion(self):
        message = "0110" * 100
        transcript = run_qsdc(
            codes_from_bits(message), make_devices(conversion=0.5), EveModel(EveKind.NONE, 0.0),
            FAST_CONFIG,
            np.random.default_rng(24),
        )
        assert transcript.summary["status"] == "completed"
        assert transcript.summary["delivered_bits"] == message
        assert transcript.summary["erased_transmissions"] > 0
        assert transcript.summary["erasure_fraction"] == pytest.approx(0.5, abs=0.05)

    def test_retransmission_cap_reports_truncation(self):
        config = ProtocolConfig(
            min_samples=8, block_size=16, detection_size=8, redetect_every_blocks=1000,
            max_retransmissions=3,
        )
        transcript = run_qsdc(
            codes_from_bits("11" * 8), make_devices(conversion=0.0), EveModel(EveKind.NONE, 0.0),
            config,
            np.random.default_rng(25),
        )
        assert transcript.summary["status"] == "aborted"
        assert transcript.summary["abort_reason"] == "retransmission_cap"
        assert transcript.summary["truncated_symbols"] == list(range(8))
        assert transcript.summary["delivered_bits"] is None
        assert transcript.summary["delivered_bits_hex"] is None
        assert transcript.summary["ber"] is None
        # Every symbol is erased on each of its 4 attempts: the abort follows
        # the fourth block's block_sent.
        kinds = event_kinds(transcript)
        assert kinds.count("block_sent") == 4
        assert kinds[-3:] == ["block_sent", "phase_transition", "session_abort"]
        assert transcript.summary["blocks_sent"] == 4

    def test_periodic_redetection_runs(self):
        config = ProtocolConfig(
            min_samples=8, block_size=8, detection_size=16, redetect_every_blocks=2,
            max_retransmissions=10,
        )
        transcript = run_qsdc(
            codes_from_bits("01" * 40), make_devices(), EveModel(EveKind.NONE, 0.0), config,
            np.random.default_rng(26),
        )
        detections = event_kinds(transcript).count("detection_result")
        assert transcript.summary["status"] == "completed"
        assert detections == 3  # initial + after blocks 2 and 4

    def test_transcript_is_pure_function_of_seed(self):
        def run(seed):
            transcript = run_qsdc(
                codes_from_bits("0011" * 60), make_devices(conversion=0.8),
                EveModel(EveKind.NONE, 0.0), FAST_CONFIG, np.random.default_rng(seed),
            )
            return "".join(transcript.chunks())

        assert run(99) == run(99)
        assert run(99) != run(100)

    def test_transcript_schema(self):
        transcript = run_qsdc(
            codes_from_bits("0101"), make_devices(), EveModel(EveKind.NONE, 0.0), FAST_CONFIG,
            np.random.default_rng(27),
        )
        for line in "".join(transcript.chunks()).splitlines():
            record = json.loads(line)
            assert list(record) == ["timestamp_s", "event_kind", "payload"]
            assert isinstance(record["timestamp_s"], float)
            assert isinstance(record["payload"], dict)

    def test_exhaustive_short_messages(self):
        devices = make_devices()
        config = ProtocolConfig(
            qber_threshold=0.25, min_samples=2, block_size=8, detection_size=4,
            redetect_every_blocks=10,
        )
        for length in range(1, 9):
            for value in range(2**length):
                message = format(value, f"0{length}b")
                transcript = run_qsdc(
                    codes_from_bits(message), devices, EveModel(EveKind.NONE, 0.0), config,
                    np.random.default_rng(value),
                )
                assert transcript.summary["delivered_bits"] == message
                assert transcript.summary["ber"] == 0.0

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**64 - 1),
        stream=st.integers(0, 2**16),
        skipped=st.integers(0, 30000),
        drawn=st.integers(0, 3000),
        bits=st.integers(0, 9),
    )
    @example(seed=0, stream=0, skipped=10000, drawn=10000, bits=3)
    def test_advance_is_an_unread_draw_call(self, seed, stream, skipped, drawn, bits):
        # A block whose delivery is certain advances the generator past its
        # delivery draws: for PCG64, advance(n) then random(m) gives the values
        # and the state of random(n + m), also after an odd draw_bits call has
        # left a spare half, which the session keeps and advance does not touch.
        drawing, jumping = (Session(np.random.default_rng([seed, stream])) for _ in range(2))
        np.testing.assert_array_equal(drawing.draw_bits(bits), jumping.draw_bits(bits))
        expected = drawing.rng.random(skipped + drawn)[skipped:]
        jumping.rng.bit_generator.advance(skipped)
        np.testing.assert_array_equal(jumping.rng.random(drawn), expected)
        assert jumping.rng.bit_generator.state == drawing.rng.bit_generator.state
        np.testing.assert_array_equal(drawing.draw_bits(3), jumping.draw_bits(3))

    def test_empty_message_rejected(self):
        with pytest.raises(DomainError):
            run_qsdc(codes_from_bits(""), make_devices(), EveModel(EveKind.NONE, 0.0), FAST_CONFIG,
                     np.random.default_rng(0))


def assert_matches_loop_oracle(message, devices, eve, config, seed) -> dict:
    """run_qsdc and ``conftest.run_qsdc_oracle`` write the same transcript
    and summary for these arguments; returns the summary."""
    got = run_qsdc(codes_from_bits(message), devices, eve, config, np.random.default_rng(seed))
    expected = run_qsdc_oracle(message, devices, eve, config, np.random.default_rng(seed))
    assert "".join(got.chunks()) == "".join(expected.chunks())
    assert got.summary == expected.summary
    return got.summary


loop_oracle_cases = dict(
    block_size=st.integers(min_value=1, max_value=64),
    detection_size=st.integers(min_value=1, max_value=64),
    fiber_km=st.floats(min_value=0.0, max_value=40.0),
    conversion=st.sampled_from([0.5, 0.9, 1.0]),
    depolarizing_p=st.floats(min_value=0.0, max_value=0.3),
    redetect_every_blocks=st.integers(min_value=1, max_value=3),
    eve_kind=st.sampled_from(list(EveKind)),
    eve_fraction=st.floats(min_value=0.0, max_value=1.0),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)


class TestSessionLoopOracle:
    """run_qsdc's block-sized queue and resend windows against
    ``conftest.run_qsdc_oracle``, which queues, gathers and scatters through
    a whole-message index array and decodes every block as it is sent."""

    @staticmethod
    def check(
        message, block_size, detection_size, fiber_km, conversion, depolarizing_p,
        max_retransmissions, redetect_every_blocks, eve_kind, eve_fraction, seed,
    ):
        assert_matches_loop_oracle(
            message,
            make_devices(
                fiber_km=fiber_km, conversion=conversion,
                noise=NoiseParams(depolarizing_p=depolarizing_p),
            ),
            EveModel(eve_kind, eve_fraction),
            ProtocolConfig(
                qber_threshold=0.45, min_samples=1,
                block_size=block_size, detection_size=detection_size,
                redetect_every_blocks=redetect_every_blocks,
                max_retransmissions=max_retransmissions,
            ),
            seed,
        )

    @settings(max_examples=300, deadline=None)
    @given(
        message=st.text("01", min_size=1, max_size=300),
        max_retransmissions=st.integers(min_value=0, max_value=3),
        **loop_oracle_cases,
    )
    def test_matches_whole_message_queue(self, **arguments):
        self.check(**arguments)

    @settings(max_examples=300, deadline=None)
    @given(
        message=st.text("01", min_size=1, max_size=600),
        max_retransmissions=st.integers(min_value=0, max_value=200),
        **loop_oracle_cases,
    )
    def test_matches_with_long_resend_windows(self, **arguments):
        # Caps up to the default 200: windows run to many resends, and most
        # sessions end in one, completed or aborted.
        self.check(**arguments)


def traced_windows(monkeypatch) -> list[tuple]:
    """Make run_qsdc record its windows and detection rounds, in order:
    ("open", window, first-block symbols, whether a slice), ("resend",
    window), ("detection",) and ("close", window, symbols still queued)."""
    trace = []

    class Traced(protocol._Window):
        def __init__(self, symbols, sent, draws):
            super().__init__(symbols, sent, draws)
            sliced = isinstance(symbols, slice)
            listed = list(range(symbols.start, symbols.stop)) if sliced else symbols.tolist()
            trace.append(("open", self, listed, sliced))

        def resend(self, positions, draws):
            trace.append(("resend", self))
            super().resend(positions, draws)

        def close(self, queued, erased, *arguments):
            trace.append(("close", self, erased.tolist()))
            return super().close(queued, erased, *arguments)

    def detection(*arguments):
        trace.append(("detection",))
        return run_security_detection(*arguments)

    monkeypatch.setattr(protocol, "_Window", Traced)
    monkeypatch.setattr(protocol, "run_security_detection", detection)
    return trace


def windows(trace) -> list[list[tuple]]:
    """Each window's entries, from its open to its close, with the
    detection rounds between them, in order of opening."""
    spans = []
    for entry in trace:
        if entry[0] == "open":
            spans.append([])
        if spans:
            spans[-1].append(entry)
    return spans


class TestResendWindows:
    """Explicit sessions whose windows take each path of the window code,
    each checked against ``conftest.run_qsdc_oracle`` byte for byte."""

    # Half the pairs erased, and a fifth of the delivered ones decoded wrong.
    LOSSY = make_devices(conversion=0.5, noise=NoiseParams(depolarizing_p=0.3))

    @staticmethod
    def config(**fields) -> ProtocolConfig:
        return ProtocolConfig(**{
            "qber_threshold": 0.45, "min_samples": 1, "detection_size": 16,
            "redetect_every_blocks": 10, "max_retransmissions": 50, **fields,
        })

    def test_a_window_spans_a_detection_round(self, monkeypatch):
        trace = traced_windows(monkeypatch)
        config = self.config(block_size=16, redetect_every_blocks=2)
        summary = assert_matches_loop_oracle(
            "0110" * 8, self.LOSSY, EveModel(EveKind.NONE, 0.0), config, seed=1
        )
        assert summary["status"] == "completed"
        (span,) = windows(trace)  # one block of 16 symbols, then resends
        kinds = [entry[0] for entry in span]
        assert kinds[0] == "open" and kinds[-1] == "close"
        assert kinds.count("detection") >= 2 and kinds.count("resend") >= 3
        assert kinds.index("detection") < len(kinds) - 1 - kinds[::-1].index("resend")

    def test_a_cap_abort_inside_a_window(self, monkeypatch):
        trace = traced_windows(monkeypatch)
        config = self.config(block_size=32, max_retransmissions=2)
        summary = assert_matches_loop_oracle(
            "1001" * 16, self.LOSSY, EveModel(EveKind.NONE, 0.0), config, seed=2
        )
        assert summary["abort_reason"] == "retransmission_cap"
        assert summary["truncated_symbols"]
        (span,) = windows(trace)
        assert [entry[0] for entry in span][-3:] == ["resend", "resend", "close"]
        assert span[-1][2]  # symbols still queued when the window closed

    def test_a_detection_abort_inside_a_window(self, monkeypatch):
        trace = traced_windows(monkeypatch)
        # About ten survivors a round against min_samples 10: rounds fail at random.
        devices = make_devices(fiber_km=5.0, conversion=0.5, noise=NoiseParams(depolarizing_p=0.3))
        config = self.config(min_samples=10, block_size=32, redetect_every_blocks=1)
        summary = assert_matches_loop_oracle(
            "1100" * 16, devices, EveModel(EveKind.NONE, 0.0), config, seed=2
        )
        assert summary["abort_reason"] == "insufficient_detection_samples"
        (span,) = windows(trace)
        assert [entry[0] for entry in span][-3:] == ["resend", "detection", "close"]
        assert span[-1][2]

    def test_a_slice_block_opens_a_window(self, monkeypatch):
        # The last of two full blocks erases, the first does not: the window
        # opened by that slice block resends its erasures.
        trace = traced_windows(monkeypatch)
        config = self.config(block_size=4)
        summary = assert_matches_loop_oracle(
            "0111" * 4, self.LOSSY, EveModel(EveKind.NONE, 0.0), config, seed=11
        )
        assert summary["status"] == "completed"
        first, last = windows(trace)
        assert first[0][2:] == ([0, 1, 2, 3], True) and first[-1] == ("close", first[0][1], [])
        assert last[0][2:] == ([4, 5, 6, 7], True)
        assert "resend" in [entry[0] for entry in last]

    @pytest.mark.parametrize(
        "message, seed, before",
        [("101101", 0, 0), ("10110100", 0, 1)],
        ids=["with_a_fresh_symbol", "with_older_erasures"],
    )
    def test_the_last_erasures_with_other_symbols_open_a_window(
        self, monkeypatch, message, seed, before
    ):
        # Blocks of two: the block after the last fresh one takes the erasures
        # of the window before it and other symbols, the third symbol or the
        # first block's erasures, so it opens a window of its own.
        trace = traced_windows(monkeypatch)
        config = self.config(block_size=2)
        summary = assert_matches_loop_oracle(
            message, self.LOSSY, EveModel(EveKind.NONE, 0.0), config, seed
        )
        assert summary["status"] == "completed"
        spans = windows(trace)
        assert all(entry[0] != "resend" for span in spans[: before + 1] for entry in span)
        still_queued, opened = spans[before][-1][2], spans[before + 1][0][2]
        assert still_queued and set(still_queued) < set(opened)


def encoding_samples(monkeypatch) -> list[int]:
    """Make protocol._sample record the draw count of each call on an
    encoding table, which has 4 rows (the detection table has 6). The loop
    oracle samples each block it sends through it too."""
    calls = []
    sample = protocol._sample

    def recorded(columns, rows, draws):
        if columns[0].size == 4:
            calls.append(draws.size)
        return sample(columns, rows, draws)

    monkeypatch.setattr(protocol, "_sample", recorded)
    return calls


class TestCertainOutcomes:
    """Blocks skip the delivery draws of a link with p_deliver 1.0 and the
    decode draws of a one-hot encoding table; each session here matches
    ``conftest.run_qsdc_oracle``, which always draws random(2 * n) and
    samples every block through ``_sample``."""

    @pytest.mark.parametrize("seed", [0, 1, 7, 2**32 - 1])
    @pytest.mark.parametrize(
        "message, block_size",
        [("0110" * 32, 16), ("1" * 101, 16), ("10" * 50 + "1", 64)],
        ids=["full_blocks", "odd_short_last", "one_short_block"],
    )
    def test_lossless_noiseless_sessions(self, monkeypatch, seed, message, block_size):
        calls = encoding_samples(monkeypatch)
        devices, eve = make_devices(), EveModel(EveKind.NONE, 0.0)
        link = Link(devices, eve)
        assert link.certain_delivery and link.certain_code == 0
        config = ProtocolConfig(
            qber_threshold=0.1, min_samples=8, block_size=block_size,
            detection_size=32, redetect_every_blocks=2,
        )
        summary = assert_matches_loop_oracle(message, devices, eve, config, seed)
        assert summary["status"] == "completed" and summary["ber"] == 0.0
        assert summary["delivered_bits"] == message and summary["erased_transmissions"] == 0
        assert len(calls) == summary["blocks_sent"]  # the oracle's alone

    def test_a_phi_minus_source(self, monkeypatch):
        # A phase offset of pi makes the source phi-: every symbol decodes as
        # its code ^ 1. Detection sees phi- as errors in X, so one photon a
        # round passes only when Bob measures it in Z.
        calls = encoding_samples(monkeypatch)
        devices = make_devices(noise=NoiseParams(phase_offset_rad=np.pi))
        eve = EveModel(EveKind.NONE, 0.0)
        assert Link(devices, eve).certain_code == 1
        config = ProtocolConfig(
            qber_threshold=0.45, min_samples=1, block_size=8,
            detection_size=1, redetect_every_blocks=100,
        )
        message = "0011011110" * 5 + "1"
        completed = 0
        for seed in range(8):
            calls.clear()
            summary = assert_matches_loop_oracle(message, devices, eve, config, seed)
            assert len(calls) == summary["blocks_sent"]
            if summary["status"] == "completed":
                completed += 1
                assert summary["symbol_errors"] == 26
                assert summary["delivered_bits"] == "".join(
                    bit if i % 2 == 0 else "10"[int(bit)] for i, bit in enumerate(message)
                )
        assert completed >= 2

    def test_a_tap_keeps_a_certain_decode(self, monkeypatch):
        # A tap erases pairs but never alters them: delivery is drawn, the
        # decode of each resend window is certain.
        calls = encoding_samples(monkeypatch)
        devices, eve = make_devices(), EveModel(EveKind.TAP, 0.3)
        link = Link(devices, eve)
        assert not link.certain_delivery and link.certain_code == 0
        for seed in range(4):
            calls.clear()
            summary = assert_matches_loop_oracle("01101" * 40, devices, eve, FAST_CONFIG, seed)
            assert summary["status"] == "completed" and summary["erased_transmissions"]
            assert summary["ber"] == 0.0
            assert len(calls) == summary["blocks_sent"]

    @pytest.mark.parametrize("depolarizing_p", [0.0, 0.05])
    def test_intercept_resend_takes_the_general_path(self, monkeypatch, depolarizing_p):
        # Intercept-resend at a fraction above 0 mixes the table's rows, so
        # each window samples its decodes.
        calls = encoding_samples(monkeypatch)
        devices = make_devices(noise=NoiseParams(depolarizing_p=depolarizing_p))
        eve = EveModel(EveKind.INTERCEPT_RESEND, 0.3)
        link = Link(devices, eve)
        assert link.certain_delivery and link.certain_code is None
        config = ProtocolConfig(
            qber_threshold=0.45, min_samples=1, block_size=16, detection_size=16,
        )
        for seed in range(4):
            calls.clear()
            summary = assert_matches_loop_oracle("0110" * 20, devices, eve, config, seed)
            assert summary["status"] == "completed" and summary["symbol_errors"]
            assert len(calls) == 2 * summary["blocks_sent"]  # each block its own window

    @pytest.mark.parametrize(
        "noise, eve",
        [
            (NoiseParams(depolarizing_p=0.01), EveModel(EveKind.NONE, 0.0)),
            (NoiseParams(dephasing_q=0.1), EveModel(EveKind.NONE, 0.0)),
            (NoiseParams(phase_offset_rad=0.3), EveModel(EveKind.NONE, 0.0)),
            (NoiseParams(), EveModel(EveKind.INTERCEPT_RESEND, 1.0)),
        ],
    )
    def test_no_certain_code_for_mixed_rows(self, noise, eve):
        link = Link(make_devices(noise=noise), eve)
        assert link.certain_code is None
        table = _encoding_cumulative(noise, eve)
        assert not np.isin(table, (0.0, 1.0)).all()

    @staticmethod
    def edge_draws(table: np.ndarray) -> np.ndarray:
        """Exact 0.0, the smallest double above it, each entry of the table
        below 1.0, draws between and the largest draw below 1.0."""
        entries = np.unique(table[table < 1.0])
        return np.concatenate(([0.0, 5e-324], entries, [0.25, 0.5, 0.75, 1.0 - 2**-53]))

    @pytest.mark.parametrize("phase_offset_rad, code", [(0.0, 0), (np.pi, 1)])
    def test_close_matches_sample_on_exact_zero_draws(self, phase_offset_rad, code):
        # Hand-built decode draws, exact 0.0 and the table's own entries
        # among them: under the <= rule no outcome of weight 0 is drawn, so
        # each decodes as sent ^ code, as the window does with no draw.
        noise = NoiseParams(phase_offset_rad=phase_offset_rad)
        eve = EveModel(EveKind.NONE, 0.0)
        link = Link(make_devices(noise=noise), eve)
        assert link.certain_code == code
        table = _encoding_cumulative(noise, eve)
        edges = self.edge_draws(table)
        draws = np.tile(edges, 4)
        sent = np.repeat(np.arange(4, dtype=np.uint8), edges.size)
        expected = _sample(_columns(table), sent, draws)
        np.testing.assert_array_equal(expected, sent ^ code)
        received = np.full(sent.size, 9, dtype=np.uint8)
        attempts = np.zeros(sent.size, dtype=np.uint8)
        window = protocol._Window(slice(0, sent.size), sent, None)
        window.payloads.append({})
        none = np.empty(0, dtype=np.intp)
        errors = window.close(none, none, link, received, attempts)
        np.testing.assert_array_equal(received, expected)
        assert received.dtype == np.uint8
        assert errors == window.payloads[0]["symbol_errors"] == (sent.size if code else 0)

    @staticmethod
    def close_fresh_block(link, sent, symbols):
        """One fresh block's window, every pair delivered, closed: (received,
        its errors, the block's symbol_errors)."""
        received = np.full(sent.size + 7, 9, dtype=np.uint8)
        attempts = np.zeros(received.size, dtype=np.uint8)
        window = protocol._Window(symbols, sent, None)  # a certain decode draws nothing
        window.payloads.append({})
        none = np.empty(0, dtype=np.intp)
        errors = window.close(none, none, link, received, attempts)
        assert not attempts.any()
        return received[symbols], errors, window.payloads[0]["symbol_errors"]

    SYMBOLS = [slice(7, 10_007), np.arange(10_006, 6, -1)]

    @pytest.mark.parametrize("symbols", SYMBOLS, ids=["slice", "index_array"])
    @pytest.mark.parametrize("phase_offset_rad", [0.0, np.pi])
    def test_a_delivered_block_with_an_exact_zero_draw(self, symbols, phase_offset_rad):
        # Draws of exactly 0.0, of the table's entries and next to 1.0 decode
        # as sent ^ code, whatever was sent, like every other draw.
        noise = NoiseParams(phase_offset_rad=phase_offset_rad)
        eve = EveModel(EveKind.NONE, 0.0)
        link = Link(make_devices(noise=noise), eve)
        code = link.certain_code
        table = _encoding_cumulative(noise, eve)
        rng = np.random.default_rng(31)
        sent = rng.integers(0, 4, 10_000, dtype=np.uint8)
        draws = rng.random(sent.size)
        edges = self.edge_draws(table)
        draws[4321 : 4321 + 4 * edges.size] = np.tile(edges, 4)
        expected = _sample(_columns(table), sent, draws)
        np.testing.assert_array_equal(expected, sent ^ code)
        received, errors, block_errors = self.close_fresh_block(link, sent, symbols)
        np.testing.assert_array_equal(received, expected)
        assert errors == block_errors == (sent.size if code else 0)

    @pytest.mark.parametrize("symbols", SYMBOLS, ids=["slice", "index_array"])
    def test_a_phi_minus_block_is_wrong_in_every_symbol(self, symbols):
        noise = NoiseParams(phase_offset_rad=np.pi)
        eve = EveModel(EveKind.NONE, 0.0)
        link = Link(make_devices(noise=noise), eve)
        assert link.certain_code == 1
        rng = np.random.default_rng(32)
        sent = rng.integers(0, 4, 10_000, dtype=np.uint8)
        expected = _sample(_columns(_encoding_cumulative(noise, eve)), sent, rng.random(sent.size))
        np.testing.assert_array_equal(expected, sent ^ 1)
        received, errors, block_errors = self.close_fresh_block(link, sent, symbols)
        np.testing.assert_array_equal(received, expected)
        assert received.dtype == np.uint8 and errors == block_errors == sent.size

    @pytest.mark.parametrize("name", sorted(RUN_SCENARIOS))
    def test_ber_is_the_bit_error_rate(self, name):
        scenario = scenario_from_dict(RUN_SCENARIOS[name])
        summary = run_session(scenario).summary
        if summary["status"] != "completed":
            assert summary["ber"] is None
            return
        sent = np.frombuffer(scenario.message_bits().text().encode(), dtype=np.uint8)
        got = np.frombuffer(summary["delivered_bits"].encode(), dtype=np.uint8)
        assert summary["ber"] == np.count_nonzero(sent != got) / sent.size


def certain_path_cases() -> dict[str, dict]:
    """Scenarios whose blocks take the certain paths: the ideal one, lossless
    with a certain decode; a tap and the 40 km reference, lossy with a
    certain decode; and a phi- source, every symbol decoded wrong."""
    ideal = ideal_scenario_dict(seed=11, message_hex="0123456789abcdef" * 40)
    ideal["protocol"].update(block_size=96, redetect_every_blocks=3)
    tap = copy.deepcopy(ideal)
    tap["eve"] = {"kind": "tap", "fraction": 0.3}
    phi_minus = copy.deepcopy(ideal)
    phi_minus["devices"]["source"]["noise"] = {"phase_offset_rad": np.pi}
    # Detection sees phi- as errors in X: one photon a round passes in Z.
    phi_minus["protocol"].update(
        detection_size=1, min_samples=1, qber_threshold=0.45, redetect_every_blocks=100
    )
    forty_km = forty_km_scenario_dict(seed=12, random_bits=2000)
    return {"ideal": ideal, "tap": tap, "phi_minus": phi_minus, "forty_km": forty_km}


class CountingGenerator:
    """A session generator that counts the doubles ``random`` draws."""

    def __init__(self, rng: np.random.Generator):
        self.rng, self.bit_generator, self.doubles = rng, rng.bit_generator, 0

    def random(self, size: int) -> np.ndarray:
        self.doubles += size
        return self.rng.random(size)


class TestFastPathIsGeneralPath:
    """A link's certain delivery and certain decode skip draws and compares,
    not outcomes: forced onto the general path, which draws random(2 * n)
    for every block and samples every decode, a session writes the same
    bytes and leaves its generator in the same state."""

    @staticmethod
    def outputs(doc: dict):
        """The session's transcript and report text and its generator's final state."""
        scenario = scenario_from_dict(doc)
        rng = scenario.session_rng()
        transcript = run_qsdc(
            scenario.message_bits(), scenario.devices, scenario.eve, scenario.protocol, rng
        )
        report = build_report(scenario, transcript, "transcript.jsonl")
        return "".join(transcript.chunks()), "".join(report_pieces(report)), rng.bit_generator.state

    @pytest.mark.parametrize("name", sorted(certain_path_cases()))
    def test_forced_onto_the_general_path(self, monkeypatch, name):
        doc = certain_path_cases()[name]
        scenario = scenario_from_dict(doc)
        link = Link(scenario.devices, scenario.eve)
        assert link.certain_code is not None
        assert link.certain_delivery is (name in ("ideal", "phi_minus"))
        fast = self.outputs(doc)
        last = json.loads(fast[0].rsplit("\n", 2)[-2])
        assert last["event_kind"] == "session_complete"
        summary = last["payload"]
        assert summary["blocks_sent"] > 1 and summary["symbol_errors"] == (
            summary["transmissions"] - summary["erased_transmissions"] if name == "phi_minus" else 0
        )
        init = Link.__init__

        def general(self, devices, eve):
            init(self, devices, eve)
            self.certain_code, self.certain_delivery = None, False

        monkeypatch.setattr(Link, "__init__", general)
        assert self.outputs(doc) == fast

    def test_a_lossless_ideal_session_draws_only_for_detection(self):
        doc = certain_path_cases()["ideal"]
        scenario = scenario_from_dict(doc)
        rng = CountingGenerator(scenario.session_rng())
        transcript = run_qsdc(
            scenario.message_bits(), scenario.devices, scenario.eve, scenario.protocol, rng
        )
        assert transcript.summary["status"] == "completed"
        assert transcript.summary["transmissions"] == scenario.message_bits().codes.size
        rounds = [
            event["payload"] for event in transcript.events
            if isinstance(event, dict) and event["event_kind"] == "detection_result"
        ]
        assert len(rounds) > 1
        # Each round draws its photons' survival and its survivors' outcomes.
        assert rng.doubles == sum(r["photons_sent"] + r["photons_detected"] for r in rounds)
        assert "".join(transcript.chunks()) == self.outputs(doc)[0]


class TestBitstringHelpers:
    def test_round_trip(self):
        assert codes_from_bits("10110").hex() == "b0"
        assert codes_from_bits("1101").hex() == "d"
        assert MessageCodes.from_bytes(bytes.fromhex("b0"), 5).text() == "10110"
        deadbeef = MessageSpec(hex="deadbeef").resolve(seed=0)
        assert deadbeef.text() == "11011110101011011011111011101111"
        assert deadbeef.hex() == "deadbeef"

    def test_bit_length_overflow_rejected(self):
        with pytest.raises(DomainError):
            MessageSpec(hex="ff", bit_length=9)

    def test_malformed_strings_rejected(self):
        # int(s, 16) on the whole string would accept the first four and the
        # full-width digits; bytes.fromhex would skip the whitespace in the
        # even-length ones.
        for hex_string in (
            "0x1f", "1_f", " 1f", "1f ", "1g", "ff-", "\uff11\uff46",
            "de ad", "de\tad", "de\nad", "de ad be", "dead\r\n",
        ):
            with pytest.raises(DomainError):
                MessageSpec(hex=hex_string)
        for bits in ("0102", "1a", "01 ", "01\n", "\uff10\uff11"):
            with pytest.raises(DomainError):
                codes_from_bits(bits)

    @settings(max_examples=200, deadline=None)
    @given(bits=st.text(alphabet="01", max_size=200))
    def test_match_int_oracles(self, bits):
        message = codes_from_bits(bits)
        assert message.bit_count == len(bits)
        assert message.text() == bits
        assert message.hex() == bits_to_hex_oracle(bits)

    @settings(max_examples=200, deadline=None)
    @given(raw=st.binary(min_size=1, max_size=40))
    def test_from_bytes_matches_from_bits(self, raw):
        bits = "".join(f"{byte:08b}" for byte in raw)
        for bit_count in range(1, 8 * len(raw) + 1):
            got = MessageCodes.from_bytes(raw, bit_count)
            want = codes_from_bits(bits[:bit_count])
            assert got.bit_count == want.bit_count
            assert got.codes.dtype == want.codes.dtype
            assert got.codes.tolist() == want.codes.tolist()


class TestBitsAndHex:
    """hex packs four codes to a byte by one uint32 multiply, and text
    unpacks those bytes. Lengths cover odd bit counts and code counts that
    four does not divide; neither string reads the pad bit."""

    @staticmethod
    def check(bits: str, pad_bit: int) -> None:
        codes = pack_codes_oracle(bit_values_oracle(bits))
        if len(bits) % 2:
            codes[-1] |= pad_bit
        message = MessageCodes(codes, len(bits))
        for got, want in ((message.text(), bits), (message.hex(), bits_to_hex_oracle(bits))):
            assert type(got) is Unescaped and got == want
            # What makes it Unescaped: json writes it as it is.
            assert json.dumps(got) == '"' + got + '"'
            assert b"".join(encoded([got])) == got.encode()

    @pytest.mark.parametrize("bit_count", range(1, 65))
    def test_every_short_length(self, bit_count):
        bits = "".join(
            map(str, np.random.default_rng(bit_count).integers(0, 2, bit_count).tolist())
        )
        for pad_bit in (0, 1):
            self.check(bits, pad_bit)

    @settings(max_examples=200, deadline=None)
    @given(bits=st.text(alphabet="01", min_size=1, max_size=4000), pad_bit=st.integers(0, 1))
    def test_matches_the_int_oracles(self, bits, pad_bit):
        self.check(bits, pad_bit)

    @settings(max_examples=200, deadline=None)
    @given(
        bit_count=st.integers(1, 4096),
        seed=st.integers(0, 2**32 - 1),
        pad_bit=st.integers(0, 1),
    )
    def test_random_codes_give_unescaped_strings(self, bit_count, seed, pad_bit):
        bits = np.random.default_rng(seed).integers(0, 2, bit_count).tolist()
        self.check("".join(map(str, bits)), pad_bit)

    def test_every_length_to_4096(self):
        bits = "".join(map(str, np.random.default_rng(4096).integers(0, 2, 4096).tolist()))
        for bit_count, pad_bit in product(range(1, 4097), (0, 1)):
            self.check(bits[:bit_count], pad_bit)


class TestMessagePath:
    """Scenario messages go from hex digits or random draws to 2-bit codes,
    and a completed session's summary from the received codes, with no bit
    array or bit string between; ``conftest`` holds the bit-array path."""

    @staticmethod
    def oracle_bits(spec: MessageSpec, seed: int) -> str:
        """The message's bitstring as the scenario built it before codes."""
        if spec.hex is not None:
            return hex_to_bits_oracle(spec.hex, spec.bit_length)
        draws = np.random.default_rng([seed, _MESSAGE_STREAM]).integers(0, 2, spec.random_bits)
        return "".join(map(str, draws.tolist()))

    @settings(max_examples=200, deadline=None)
    @given(
        data=st.data(),
        hex_string=st.text("0123456789abcdefABCDEF", min_size=1, max_size=200),
        random_bits=st.none() | st.integers(min_value=1, max_value=800),
        depolarizing_p=st.sampled_from([0.0, 0.4, 0.8]),
        block_size=st.integers(min_value=1, max_value=64),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_codes_match_the_bit_array_path(
        self, data, hex_string, random_bits, depolarizing_p, block_size, seed
    ):
        if random_bits is None:
            bit_length = data.draw(st.none() | st.integers(1, 4 * len(hex_string)))
            spec = MessageSpec(hex=hex_string, bit_length=bit_length)
        else:
            spec = MessageSpec(random_bits=random_bits)
        bits = self.oracle_bits(spec, seed)
        message = spec.resolve(seed)
        assert message.bit_count == len(bits)
        assert message.codes.dtype == np.uint8
        np.testing.assert_array_equal(message.codes, pack_codes_oracle(bit_values_oracle(bits)))

        # Noise flips decoded bits, the pad bit of an odd-length message too.
        arguments = (
            make_devices(noise=NoiseParams(depolarizing_p=depolarizing_p)),
            EveModel(EveKind.NONE, 0.0),
            ProtocolConfig(
                qber_threshold=0.45, min_samples=1, block_size=block_size, detection_size=200
            ),
        )
        got = run_qsdc(message, *arguments, np.random.default_rng(seed))
        expected = run_qsdc_oracle(bits, *arguments, np.random.default_rng(seed))
        assert got.summary == expected.summary
        assert "".join(got.chunks()) == "".join(expected.chunks())

    def test_a_hex_message_is_parsed_once(self, monkeypatch):
        calls = []

        def counted(hex_string):
            calls.append(hex_string)
            return hex_bytes(hex_string)

        doc = ideal_scenario_dict(message_hex="c0ffee" * 100)
        monkeypatch.setattr(scenario, "hex_bytes", counted)
        message = scenario_from_dict(doc).message_bits()
        assert calls == [doc["message"]["hex"]]
        assert message.hex() == doc["message"]["hex"]


LAST_DRAW = np.nextafter(1.0, 0.0)  # the largest value rng.random() returns


class TestDetectionRound:
    """The detection round against ``conftest.security_detection_oracle``,
    which draws Eve's rows through ``np.where`` and counts with six array
    operations."""

    @settings(max_examples=150, deadline=None)
    @given(
        seed=st.integers(0, 2**64 - 1),
        rounds=st.lists(st.tuples(st.integers(0, 301), st.integers(0, 40)), min_size=1, max_size=8),
    )
    def test_draw_bits_are_integers_draws(self, seed, rounds):
        # Session.draw_bits against Generator.integers(0, 2, n) over rounds
        # of odd and even counts, with random() calls between them: those take
        # whole 64-bit words and leave a pending 32-bit half where it is.
        session, rng = Session(np.random.default_rng(seed)), np.random.default_rng(seed)
        for n, between in rounds:
            bits = session.draw_bits(n)
            assert bits.dtype == np.uint8
            np.testing.assert_array_equal(bits, rng.integers(0, 2, n))
            np.testing.assert_array_equal(session.rng.random(between), rng.random(between))
        assert_same_generator(session, rng)

    @settings(max_examples=60, deadline=None)
    @given(
        num_photons=st.integers(1, 400),
        eve_kind=st.sampled_from(list(EveKind)),
        fraction=st.floats(0.0, 1.0),
        depolarizing_p=st.floats(0.0, 0.5),
        fiber_km=st.floats(0.0, 20.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_oracle(self, num_photons, eve_kind, fraction, depolarizing_p, fiber_km, seed):
        link = Link(
            make_devices(fiber_km=fiber_km, noise=NoiseParams(depolarizing_p=depolarizing_p)),
            EveModel(eve_kind, fraction),
        )
        config = ProtocolConfig(qber_threshold=0.3, min_samples=5, detection_size=num_photons)
        sessions = []
        for detect in (run_security_detection, security_detection_oracle):
            session = detection_session()
            passed = detect(session, link, config)
            sessions.append((session, passed))
        (got, got_passed), (want, want_passed) = sessions
        assert "".join(got.transcript.chunks()) == "".join(want.transcript.chunks())
        assert got.transcript.detection_counts == want.transcript.detection_counts
        assert got_passed is want_passed
        assert_same_generator(got, want.rng)


def assert_same_generator(session: Session, rng: np.random.Generator):
    """The session generator is rng's PCG64 state, and the session keeps the
    bit of rng's pending 32-bit half if it has one. numpy keeps a used
    half's value (uinteger) after has_uint32 drops, so the whole state dicts
    can differ."""
    got, want = session.rng.bit_generator.state, rng.bit_generator.state
    assert got["state"] == want["state"]
    assert session._spare_bit.tolist() == ([want["uinteger"] >> 31] if want["has_uint32"] else [])


class TestSampler:
    def test_tables_end_at_exactly_one(self):
        # Unclamped, code 2's row under intercept-resend 0.75 and one
        # detection row under depolarizing_p=0.27 end at 1 - 2**-52, below
        # LAST_DRAW, which then sampled index 4.
        for noise, eve in product(
            (NoiseParams(), NoiseParams(depolarizing_p=0.27),
             NoiseParams(0.1, 0.05, 0.3)),
            (
                EveModel(EveKind.NONE, 0.0),
                EveModel(EveKind.INTERCEPT_RESEND, 0.75),
                EveModel(EveKind.TAP, 0.5),
            ),
        ):
            encoding = _encoding_cumulative(noise, eve)
            detection = _detection_branch_cumulative(noise).reshape(6, 4)
            for table in (encoding, detection):
                assert (table[:, -1] == 1.0).all()
                rows = np.arange(table.shape[0])
                top = _sample(_columns(table), rows, np.full(rows.size, LAST_DRAW))
                assert top.dtype == np.uint8 and top.max() <= 3
                np.testing.assert_array_equal(
                    top, sample_oracle(table, rows, np.full(rows.size, LAST_DRAW))
                )

    @settings(max_examples=60, deadline=None)
    @given(
        n_rows=st.integers(1, 6),
        n_draws=st.integers(0, 300),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_whole_row_oracle(self, n_rows, n_draws, seed):
        rng = np.random.default_rng(seed)
        # Zero probabilities repeat entries, so a tie can span columns.
        probs = rng.random((n_rows, 4)) * (rng.random((n_rows, 4)) < 0.7)
        probs[:, -1] += 1e-3
        table = np.cumsum(probs, axis=1) / probs.sum(axis=1, keepdims=True)
        table[:, -1] = 1.0
        rows = rng.integers(0, n_rows, n_draws)
        draws = rng.random(n_draws)
        # Draws equal to a table entry: a tie falls into the upper bin.
        ties = rng.random(n_draws) < 0.5
        draws[ties] = table[rows[ties], rng.integers(0, 4, n_draws)[ties]]
        draws[draws == 1.0] = LAST_DRAW
        np.testing.assert_array_equal(
            _sample(_columns(table), rows, draws), sample_oracle(table, rows, draws)
        )

    @settings(max_examples=200, deadline=None)
    @given(
        weights=st.lists(
            st.lists(st.just(0.0) | st.floats(1e-3, 1.0), min_size=4, max_size=4).filter(any),
            min_size=1, max_size=6,
        ),
        picks=st.lists(
            st.tuples(
                st.integers(0, 5),
                st.integers(0, 3) | st.just(0.0) | st.floats(0.0, 1.0, exclude_max=True),
            ),
            max_size=60,
        ),
    )
    def test_is_searchsorted_right_and_skips_zero_weights(self, weights, picks):
        # Per draw: a row of a table with zero-weight outcomes, and an entry
        # of that row (a tie), 0.0 or a uniform value.
        table = np.cumsum(weights, axis=1)
        table /= table[:, -1:]
        table[:, -1] = 1.0
        rows = np.array([row % table.shape[0] for row, _ in picks], dtype=np.intp)
        draws = np.array(
            [table[row, pick] if type(pick) is int else pick for row, (_, pick) in zip(rows, picks)],
            dtype=float,
        )
        draws[draws == 1.0] = LAST_DRAW
        got = _sample(_columns(table), rows, draws)
        want = [np.searchsorted(table[row], draw, side="right") for row, draw in zip(rows, draws)]
        np.testing.assert_array_equal(got, np.array(want, dtype=np.intp).reshape(-1))
        below = np.concatenate((np.zeros((table.shape[0], 1)), table[:, :-1]), axis=1)
        assert (table[rows, got] - below[rows, got] > 0.0).all()


def _or_zero(values):
    return st.just(0.0) | values


class TestBellWeightTables:
    """The closed-form Bell-weight tables against the density-matrix oracle."""

    @settings(max_examples=150, deadline=None)
    @given(
        depolarizing_p=_or_zero(st.floats(0.0, 1.0)),
        dephasing_q=_or_zero(st.floats(0.0, 1.0)),
        phase_offset_rad=_or_zero(st.floats(-10.0, 10.0)),
        eve_kind=st.sampled_from(["none", "intercept_resend", "tap"]),
        fraction=_or_zero(st.floats(0.0, 1.0)) | st.just(1.0),
    )
    def test_match_density_matrix_oracle(
        self, depolarizing_p, dephasing_q, phase_offset_rad, eve_kind, fraction
    ):
        noise = NoiseParams(depolarizing_p, dephasing_q, phase_offset_rad)
        eve = EveModel(EveKind(eve_kind), 0.0 if eve_kind == "none" else fraction)
        np.testing.assert_allclose(
            _encoding_cumulative(noise, eve),
            encoding_cumulative_oracle(noise, eve),
            rtol=0.0,
            atol=1e-12,
        )
        np.testing.assert_allclose(
            _detection_branch_cumulative(noise),
            detection_branch_cumulative_oracle(noise),
            rtol=0.0,
            atol=1e-12,
        )


def outcome_batch(send_start_s, slot_s, positions, codes) -> DetectionBatch:
    """A batch whose survivor k has outcome code codes[k] = 4 * basis + 2 * alice + bob."""
    return DetectionBatch(send_start_s=send_start_s, slot_s=slot_s, positions=positions,
                          outcomes=np.asarray(codes))


@st.composite
def straddling_batches(draw):
    """Batches whose stamps straddle 1e-4 or 1e16, the edges of the range
    in which orjson's float texts are repr's: the middle survivor's stamp
    lands near the edge."""
    positions = np.array(sorted(draw(st.sets(
        st.integers(0, MAX_DETECTION_SIZE - 1), min_size=1, max_size=60
    ))))
    edge = draw(st.sampled_from([1e-4, 1e16]))
    send_start_s = draw(st.floats(0.0, edge)) * draw(st.sampled_from([0.0, 1.0]))
    middle = int(positions[positions.size // 2]) + 1
    slot_s = (edge - send_start_s) / middle * draw(st.floats(0.5, 2.0))
    if draw(st.booleans()):  # a strided view, which orjson takes only once copied
        positions = np.repeat(positions, 2)[::2]
    codes = draw(st.lists(st.integers(0, 7), min_size=positions.size, max_size=positions.size))
    return outcome_batch(send_start_s, slot_s, positions, codes)


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
            "none": EveModel(EveKind.NONE, 0.0),
            "intercept_resend": EveModel(EveKind.INTERCEPT_RESEND, eve_fraction),
            "tap": EveModel(EveKind.TAP, eve_fraction),
        }[eve_kind]
        rng = np.random.default_rng(seed)
        message = "".join(map(str, rng.integers(0, 2, message_bits)))
        transcript = run_qsdc(
            codes_from_bits(message),
            make_devices(fiber_km=fiber_km, conversion=0.7, mod_rate_hz=rate_hz),
            eve,
            ProtocolConfig(
                qber_threshold=0.3, min_samples=1, block_size=16, detection_size=detection_size,
                redetect_every_blocks=2,
            ),
            rng,
        )
        round_records = None
        rounds = 0
        for line in "".join(transcript.chunks()).splitlines():
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
        assert rounds == event_kinds(transcript).count("detection_result")
        assert rounds >= 1

    @staticmethod
    def json_lines(batch: DetectionBatch) -> str:
        """The batch's detection_record events written one by one with json.dumps."""
        lines = []
        outcomes = batch.outcomes
        columns = (batch.positions, outcomes >> 2, outcomes >> 1 & 1, outcomes & 1)
        for position, basis, alice, bob in zip(*(c.tolist() for c in columns)):
            event = {
                "timestamp_s": batch.send_start_s + (position + 1) * batch.slot_s,
                "event_kind": "detection_record",
                "payload": {
                    "alice_outcome": alice,
                    "basis": "ZX"[basis],
                    "bob_outcome": bob,
                    "position": position,
                    "published": True,
                },
            }
            lines.append(json.dumps(event) + "\n")
        return "".join(lines)

    @settings(max_examples=200, deadline=None)
    @given(batch=straddling_batches())
    # Every stamp below 1e-4 (9e-5 at most), and a strided view across 1e-4.
    @example(batch=outcome_batch(0.0, 1e-9, np.arange(0, 90_000, 7), np.arange(90_000 // 7 + 1) % 8))
    @example(batch=outcome_batch(1e-5, 3e-6, np.arange(40)[::3], np.arange(14) % 8))
    def test_random_batches_match_json(self, batch):
        # As lists of lines: pytest's diff of two long strings takes minutes.
        lines = batch.to_jsonl().splitlines(keepends=True)
        assert lines == self.json_lines(batch).splitlines(keepends=True)

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.floats(1e-4, 1e16, exclude_max=True), min_size=1, max_size=50))
    @example([1e-4, float(np.nextafter(1e16, 0.0)), 0.1 + 0.2, 1e15])
    def test_orjson_floats_are_reprs_inside_the_range(self, values):
        # to_jsonl relies on this: an orjson that formats these differently
        # fails here rather than changing transcript bytes.
        text = orjson.dumps(np.array(values), option=orjson.OPT_SERIALIZE_NUMPY)
        assert text.decode()[1:-1].split(",") == list(map(float.__repr__, values))

    @pytest.mark.parametrize(
        "send_start_s, slot_s, repr_part",
        [(0.0, 1e-12, "e-"), (0.25, 1e-3, "."), (1e16, 1.0, "e+"), (3e17, 7.5, "e+")],
        ids=["below_1e-4", "plain", "at_1e16", "above_1e16"],
    )
    def test_every_outcome_combination_matches_json(self, send_start_s, slot_s, repr_part):
        positions = np.array([0, 1, 7, 8, 99, 100, 4095, 10**6])
        batch = outcome_batch(send_start_s, slot_s, positions, np.arange(8))
        text = batch.to_jsonl()
        assert text == self.json_lines(batch)
        assert text.count("\n") == 8
        for line in text.splitlines():
            assert repr_part in line.split(",")[0]

    def test_one_survivor(self):
        batch = DetectionBatch(
            send_start_s=2.0,
            slot_s=1e-5,
            positions=np.array([41]),
            outcomes=np.array([5], dtype=np.uint8),  # basis X, alice 0, bob 1
        )
        assert batch.to_jsonl() == self.json_lines(batch)
        assert batch.to_jsonl().endswith('"published": true}}\n')

    def test_run_writes_the_transcript_text(self, tmp_path):
        doc = forty_km_scenario_dict(seed=19, random_bits=2000)
        scenario_path = tmp_path / "scenario.json"
        scenario_path.write_text(json.dumps(doc))
        out = tmp_path / "out"
        assert cli.main(["run", "--scenario", str(scenario_path), "--out", str(out)]) == cli.EXIT_OK
        expected = "".join(run_session(scenario_from_dict(doc)).chunks())
        assert "detection_record" in expected
        assert (out / "transcript.jsonl").read_bytes() == expected.encode()

    def test_megabit_run_writes_the_transcript_text(self, tmp_path):
        # The session_complete line and the report splice the 1 Mbit
        # delivered_bits and its hex in unescaped; both read as plain JSON.
        doc = ideal_scenario_dict(seed=44)
        doc["message"] = {"hex": np.random.default_rng(44).bytes(125_000).hex()}
        scenario_path = tmp_path / "scenario.json"
        scenario_path.write_text(json.dumps(doc))
        out = tmp_path / "out"
        assert cli.main(["run", "--scenario", str(scenario_path), "--out", str(out)]) == cli.EXIT_OK
        expected = "".join(run_session(scenario_from_dict(doc)).chunks())
        assert (out / "transcript.jsonl").read_bytes() == expected.encode()
        *_, last = expected.splitlines(keepends=True)
        event = json.loads(last)
        assert event["payload"]["delivered_bits"] == hex_to_bits_oracle(doc["message"]["hex"])
        assert last == json.dumps(event) + "\n"
        report = (out / "report.json").read_text()
        assert report == json.dumps(json.loads(report), sort_keys=True, indent=2) + "\n"


# One line of a transcript, the report and the canonical scenario.
DUMP_STYLES = (
    {},
    {"sort_keys": True, "indent": 2, "allow_nan": False},
    {"sort_keys": True, "separators": (",", ":")},
)
json_leaves = (
    st.none() | st.booleans() | st.integers() | st.text()
    | st.floats(allow_nan=False, allow_infinity=False)
)
json_docs = st.recursive(
    st.dictionaries(st.text(max_size=3), json_leaves, max_size=4),
    lambda children: st.dictionaries(
        st.text(max_size=3), children | st.lists(children, max_size=3), max_size=4
    ),
    max_leaves=12,
)
# Strings of bits and of hex digits as the program makes them, each spliced
# whatever its length.
spliceable = st.builds(
    lambda unit, length: Unescaped((unit * length)[:length]),
    st.text("01", min_size=1, max_size=8) | st.text("0123456789abcdefABCDEF", min_size=1, max_size=8),
    st.integers(0, 3000),
)
key_paths = st.lists(st.sampled_from(["a", "b", ""]), min_size=1, max_size=3)


def put(doc: dict, path, value) -> None:
    """Set the value at the key path, making each missing or non-object node an object."""
    *sections, last = path
    for key in sections:
        if not isinstance(doc.get(key), dict):
            doc[key] = {}
        doc = doc[key]
    doc[last] = value


# Event payloads: any JSON value, and the strings and floats json escapes or
# spells out, the boundary between two events among them; with timestamp_s
# as a key, a list of objects may hold the boundary outside any string.
event_leaves = (
    json_leaves | st.floats() | spliceable
    | st.sampled_from([_EVENT_BOUNDARY, '"', "\\", '\\"', "\u00e9\u2028", "}\n{", "\x00"])
)
event_keys = st.text(max_size=3) | st.just("timestamp_s")
event_payloads = st.recursive(
    st.dictionaries(event_keys, event_leaves, max_size=4),
    lambda children: st.dictionaries(
        event_keys, children | st.lists(children, max_size=3), max_size=4
    ),
    max_leaves=12,
)
transcript_events = st.builds(
    lambda timestamp_s, event_kind, payload: {
        "timestamp_s": timestamp_s, "event_kind": event_kind, "payload": payload
    },
    st.floats(), st.text(max_size=8), event_payloads,
)


class TestEventRuns:
    """events_jsonl writes a run of events with one json.dumps of their list;
    it must give each event's own json.dumps line, or raise."""

    @staticmethod
    def lines(events) -> str:
        return "".join(json.dumps(event) + "\n" for event in events)

    @settings(max_examples=300, deadline=None)
    @given(events=st.lists(transcript_events, min_size=1, max_size=6))
    def test_matches_json_dumps_per_event(self, events):
        expected = self.lines(events)
        try:
            text = "".join(events_jsonl(events))
        except ValueError:  # only where a payload holds the boundary itself
            assert expected.count(_EVENT_BOUNDARY) > 0
            return
        assert text == expected

    @settings(max_examples=200, deadline=None)
    @given(
        events=st.lists(transcript_events, min_size=1, max_size=4),
        index=st.integers(0, 3),
        path=key_paths.map(tuple),
        rows=st.lists(st.floats(), min_size=2, max_size=3),
    )
    def test_a_payload_holding_the_boundary_raises(self, events, index, path, rows):
        # A list of objects whose first key is timestamp_s: in it, json writes
        # the boundary between two events.
        event = events[index % len(events)]
        payload = json.loads(json.dumps(event["payload"]))  # a copy
        put(payload, path, [{"timestamp_s": value, "payload": {}} for value in rows])
        events[index % len(events)] = {**event, "payload": payload}
        with pytest.raises(ValueError):
            events_jsonl(events)

    def test_a_transcript_splits_into_its_lines(self):
        transcript = run_qsdc(
            codes_from_bits("1011" * 256), make_devices(), EveModel(), ProtocolConfig(min_samples=1),
            np.random.default_rng(3),
        )
        chunks = list(transcript.chunks())
        # A detection_result holds its QberEstimate, written as its to_dict.
        expected = "".join(
            json.dumps(e, default=QberEstimate.to_dict) + "\n"
            if isinstance(e, dict) else e.to_jsonl()
            for e in transcript.events
        )
        assert "".join(chunks) == expected
        assert chunks[0].count("\n") > 1  # a run of events is one chunk
        # The 1,024 delivered bits are spliced, a piece never joined.
        assert transcript.summary["delivered_bits"] in chunks


def record_counts(payloads: list[dict]) -> tuple[int, int, int, int]:
    """(n_z, errors_z, n_x, errors_x) of detection_record payloads."""
    counts = [0, 0, 0, 0]
    for payload in payloads:
        at = 0 if payload["basis"] == "Z" else 2
        counts[at] += 1
        counts[at + 1] += payload["alice_outcome"] != payload["bob_outcome"]
    return tuple(counts)


class TestTranscriptRoundTrip:
    """A transcript in memory is what its file parses back to: each event
    the dict of its line, a detection_result's qber as its to_dict, and each
    detection batch the counts of its lines."""

    @pytest.mark.parametrize("name", sorted(RUN_SCENARIOS))
    def test_events_are_their_lines(self, name):
        transcript = run_session(scenario_from_dict(RUN_SCENARIOS[name]))
        lines = iter("".join(transcript.chunks()).splitlines())
        for event in transcript.events:
            if isinstance(event, DetectionBatch):
                payloads = [json.loads(next(lines))["payload"] for _ in event.positions]
                assert record_counts(payloads) == event.counts()
                continue
            payload = event["payload"]
            if isinstance(payload.get("qber"), QberEstimate):
                event = {**event, "payload": {**payload, "qber": payload["qber"].to_dict()}}
            assert json.loads(next(lines)) == event
        assert next(lines, None) is None


def spliced_text(doc: dict, end: str = "", **options) -> str:
    return "".join(spliced_pieces(doc, end, **options))


def unescaped_values(value) -> list[Unescaped]:
    """The Unescaped values in value's dicts and lists."""
    if type(value) is Unescaped:
        return [value]
    children = value.values() if isinstance(value, dict) else value if isinstance(value, list) else ()
    return [string for child in children for string in unescaped_values(child)]


class TestSplicedJson:
    """spliced_pieces writes each Unescaped string as it is; these
    properties hold its joined pieces to json.dumps in each of the three
    styles it is used with."""

    @settings(max_examples=300, deadline=None)
    @given(doc=json_docs, data=st.data())
    def test_matches_json_dumps(self, doc, data):
        paths = data.draw(st.lists(key_paths.map(tuple), max_size=4))  # repeats too
        for path in paths:
            if data.draw(st.booleans()):  # else the path may be absent or not a string
                put(doc, path, data.draw(spliceable))
        # json_docs' text can hold a splice mark, which spliced_pieces refuses
        # once it splices a string (test_a_mark_in_other_content_raises_or_still_matches).
        holds_a_mark = _SPLICE_TOKEN in json.dumps(doc)
        before = copy.deepcopy(doc)
        for style in DUMP_STYLES:
            end = data.draw(st.sampled_from(["\n", '"', "\u0000splice 0"]))
            for tail in ("", end):
                try:
                    pieces = spliced_pieces(doc, tail, **style)
                except ValueError:
                    assert holds_a_mark
                    continue
                assert "".join(pieces) == json.dumps(doc, **style) + tail
                # Each Unescaped value is a piece of its own, and doc is left as it was.
                spliced = unescaped_values(doc)
                assert len(pieces) == 2 + 4 * len(spliced)
                assert all(any(piece is x for piece in pieces) for x in spliced)
        assert doc == before

    @settings(max_examples=300, deadline=None)
    @given(
        doc=json_docs,
        path=key_paths.map(tuple),
        value=spliceable,
        other=st.lists(key_paths.map(tuple), min_size=1, max_size=2),
        index=st.integers(0, 2),
        affixes=st.tuples(st.sampled_from(["", '"', "x", "\\"]), st.sampled_from(["", '"', "1"])),
        as_key=st.booleans(),
    )
    def test_a_mark_in_other_content_raises_or_still_matches(
        self, doc, path, value, other, index, affixes, as_key
    ):
        mark = affixes[0] + _SPLICE_MARK % index + affixes[1]
        for place in other:
            put(doc, place, {mark: 1} if as_key else mark)
        put(doc, path, value)
        for style in DUMP_STYLES:
            try:
                text = spliced_text(doc, **style)
            except ValueError:
                continue
            assert text == json.dumps(doc, **style)

    @settings(max_examples=50, deadline=None)
    @given(value=spliceable)
    def test_a_colliding_mark_raises(self, value):
        doc = {"bits": value, "note": _SPLICE_MARK % 0}
        with pytest.raises(ValueError, match="splice mark"):
            spliced_text(doc)
        # Nothing spliced: the mark is then plain content.
        doc["bits"] = str(value)
        assert spliced_text(doc) == json.dumps(doc)

    def test_skips_null_absent_and_non_string_values(self):
        doc = {"session": {"delivered_bits": None, "delivered_bits_hex": 5}}
        for style in DUMP_STYLES:
            assert spliced_text(doc, **style) == json.dumps(doc, **style)

    def test_splices_every_unescaped_value_and_no_plain_str(self):
        bits, empty, long = Unescaped("1"), Unescaped(""), Unescaped("ab" * 2500)
        plain = "01" * 2500
        doc = {"a": [bits, {"b": long}, plain], "c": long, "d": (long,), "e": empty, "f": plain}
        for style in DUMP_STYLES:
            pieces = spliced_pieces(doc, **style)
            # A tuple, which json writes as a list, is left to json.
            assert len(pieces) == 2 + 4 * 4 and plain not in pieces
            assert [piece for piece in pieces if type(piece) is Unescaped] == [bits, long, long, empty]
            assert "".join(pieces) == json.dumps(doc, **style)

    @settings(max_examples=200, deadline=None)
    @given(doc=json_docs, data=st.data())
    def test_encoded_is_the_joined_pieces_encoded(self, doc, data):
        for path in data.draw(st.lists(key_paths.map(tuple), max_size=3)):
            put(doc, path, data.draw(spliceable))
        for style in DUMP_STYLES:
            for end in ("", "\n", "\u00e9\n"):
                try:
                    pieces = spliced_pieces(doc, end, **style)
                except ValueError:  # json_docs' text can hold a splice mark
                    continue
                chunks = list(encoded(pieces))
                assert b"".join(chunks) == "".join(pieces).encode()
                # An Unescaped piece's bytes are made once, however often it is written.
                spliced = [(c, p) for c, p in zip(chunks, pieces) if type(p) is Unescaped]
                assert len(spliced) == len(unescaped_values(doc))
                assert all(chunk is piece.utf8 for chunk, piece in spliced)

    def test_a_long_mixed_case_hex_message_writes_canonical_json(self, tmp_path):
        # The message hex is spliced into the digest and the report, and the
        # delivered bits and their hex into the transcript and the report.
        doc = ideal_scenario_dict(seed=45)
        digits = np.random.default_rng(45).bytes(513).hex()[:1025]
        doc["message"] = {"hex": "".join(d.upper() if i % 3 else d for i, d in enumerate(digits))}
        assert type(scenario_from_dict(doc).message.hex) is Unescaped  # once hex_bytes took it
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / "out"
        assert cli.main(["run", "--scenario", str(path), "--out", str(out)]) == cli.EXIT_OK
        for line in (out / "transcript.jsonl").read_text().splitlines():
            assert line == json.dumps(json.loads(line))
        text = (out / "report.json").read_text()
        report = json.loads(text)
        assert text == json.dumps(report, sort_keys=True, indent=2) + "\n"
        assert report["scenario"]["message"]["hex"] == doc["message"]["hex"]
        canonical = json.dumps(report["scenario"], sort_keys=True, separators=(",", ":"))
        assert report["scenario_digest"] == hashlib.sha256(canonical.encode()).hexdigest()
        session = report["session"]
        assert session["delivered_bits_hex"] == digits
        assert session["delivered_bits"] == hex_to_bits_oracle(digits, None)

    @pytest.mark.parametrize("length", [1, 1023, 1024, 5000])
    @pytest.mark.parametrize("odd", ["\x00", "\x1f", "\x7f", '"', "\\", "\u00e9", "\n"])
    def test_strings_json_would_escape_are_left_to_json(self, length, odd):
        for at in (0, length // 2, length):
            doc = {"bits": "01" * (length // 2) + "1" * (length % 2), "hex": Unescaped("a5" * 512)}
            doc["bits"] = doc["bits"][:at] + odd + doc["bits"][at:]
            for style in DUMP_STYLES:
                pieces = spliced_pieces(doc, **style)
                assert "".join(pieces) == json.dumps(doc, **style)
                assert doc["hex"] in pieces and doc["bits"] not in pieces
