"""Two-phase QSDC session state machine.

Phase one establishes channel security by sending single photons that Bob
measures in a random Z/X basis and publishes; Alice measures her entangled
partners in the matching basis and estimates the QBER. Phase two streams the
message as blocks of Pauli-encoded phi+ pairs that Bob decodes through the
SFG Bell-state measurement; erased pairs are retransmitted in later blocks
and security detection re-runs periodically.

A session is single-threaded and owns its numpy Generator; the transcript it
produces is a pure function of (configuration, seed).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from typing import ClassVar

import numpy as np

from . import analysis
from .errors import DomainError, InvariantViolation
from .photonics import Devices, transmittance
from .qstate import (
    BELL_ORDER,
    BellLabel,
    NoiseParams,
    PauliEncoding,
    TwoQubitState,
    apply_encoding,
    apply_noise,
    bell_state,
)


class SessionPhase(Enum):
    IDLE = "idle"
    SECURITY_DETECTION = "security_detection"
    BLOCK_TRANSMISSION = "block_transmission"
    COMPLETED = "completed"
    ABORTED = "aborted"


_ALLOWED_TRANSITIONS = {
    SessionPhase.IDLE: {SessionPhase.SECURITY_DETECTION},
    SessionPhase.SECURITY_DETECTION: {
        SessionPhase.BLOCK_TRANSMISSION,
        SessionPhase.ABORTED,
    },
    SessionPhase.BLOCK_TRANSMISSION: {
        SessionPhase.SECURITY_DETECTION,
        SessionPhase.COMPLETED,
        SessionPhase.ABORTED,
    },
    SessionPhase.COMPLETED: set(),
    SessionPhase.ABORTED: set(),
}


class EveKind(Enum):
    NONE = "none"
    INTERCEPT_RESEND = "intercept_resend"
    TAP = "tap"


@dataclass(frozen=True)
class EveModel:
    """The eavesdropper acting on the flying photon.

    Intercept-resend measures a fraction of photons in a random basis and
    resends, planting errors; tap silently diverts a fraction, planting a
    photon-count drop but no errors.
    """

    kind: EveKind = EveKind.NONE
    fraction: float = 0.0

    def __post_init__(self):
        if not 0.0 <= self.fraction <= 1.0:
            raise DomainError(f"eve fraction must be in [0, 1], got {self.fraction}")

    @classmethod
    def none(cls) -> "EveModel":
        return cls(EveKind.NONE, 0.0)

    @classmethod
    def intercept_resend(cls, fraction: float) -> "EveModel":
        return cls(EveKind.INTERCEPT_RESEND, fraction)

    @classmethod
    def tap(cls, fraction: float) -> "EveModel":
        return cls(EveKind.TAP, fraction)


@dataclass(frozen=True)
class QberThresholdPolicy:
    threshold: float = 0.1
    min_samples: int = 500

    def __post_init__(self):
        if not 0.0 < self.threshold < 0.5:
            raise DomainError(f"threshold must be in (0, 0.5), got {self.threshold}")
        if self.min_samples < 1:
            raise DomainError(f"min_samples must be >= 1, got {self.min_samples}")


@dataclass(frozen=True)
class TranscriptEvent:
    timestamp_s: float
    event_kind: str
    payload: dict

    def to_jsonl(self) -> str:
        """The event's JSON line, without its newline."""
        return json.dumps(
            {
                "timestamp_s": self.timestamp_s,
                "event_kind": self.event_kind,
                "payload": self.payload,
            }
        )


_BASIS_NAMES = ("Z", "X")

# The bytes json.dumps gives a detection_record event: %r of a Python float
# is json's float repr, and the payload keys are in sorted order.
_RECORD_LINE = (
    '{"timestamp_s": %r, "event_kind": "detection_record", "payload": '
    '{"alice_outcome": %d, "basis": "%s", "bob_outcome": %d, '
    '"position": %d, "published": true}}'
)


@dataclass(frozen=True, eq=False)
class DetectionBatch:
    """One detection round's surviving photons as parallel arrays.

    Bob publishes each survivor's slot position, basis (0 = Z, 1 = X) and
    outcome; Alice's outcome in the same basis sits beside it. In the
    transcript the batch stands for the round's ``detection_record`` events,
    one per survivor, and becomes their lines only when it is serialized.
    """

    event_kind: ClassVar[str] = "detection_record"
    send_start_s: float
    slot_s: float
    positions: np.ndarray
    bob_basis: np.ndarray
    alice_bits: np.ndarray
    bob_bits: np.ndarray

    def counts(self) -> tuple[int, int, int, int]:
        """Matched-basis comparisons and errors: (n_z, errors_z, n_x, errors_x)."""
        wrong = self.alice_bits != self.bob_bits
        in_x = self.bob_basis == 1
        n_x = int(np.count_nonzero(in_x))
        errors_x = int(np.count_nonzero(wrong & in_x))
        errors_z = int(np.count_nonzero(wrong)) - errors_x
        return self.positions.size - n_x, errors_z, n_x, errors_x

    def to_jsonl(self) -> str:
        """One detection_record line per survivor, in slot order."""
        # A photon is detected at the end of its slot.
        timestamps = self.send_start_s + (self.positions + 1) * self.slot_s
        bases = np.array(_BASIS_NAMES)[self.bob_basis]
        rows = zip(
            timestamps.tolist(),
            self.alice_bits.tolist(),
            bases.tolist(),
            self.bob_bits.tolist(),
            self.positions.tolist(),
        )
        return "\n".join(map(_RECORD_LINE.__mod__, rows))


class SessionTranscript:
    """Ordered protocol events plus the end-of-session summary."""

    def __init__(self):
        self.events: list[TranscriptEvent | DetectionBatch] = []
        self.summary: dict = {}
        # Per detection round: (n_z, errors_z, n_x, errors_x).
        self.detection_counts: list[tuple[int, int, int, int]] = []

    def log(self, timestamp_s: float, event_kind: str, **payload):
        self.events.append(
            TranscriptEvent(
                timestamp_s=float(timestamp_s),
                event_kind=event_kind,
                payload=dict(sorted(payload.items())),
            )
        )

    def to_jsonl(self) -> str:
        """One JSON record per event, stable field order."""
        return "\n".join(event.to_jsonl() for event in self.events) + "\n"

    @property
    def completed(self) -> bool:
        return self.summary.get("status") == "completed"

    @property
    def aborted(self) -> bool:
        return self.summary.get("status") == "aborted"

    @property
    def abort_reason(self) -> str | None:
        return self.summary.get("abort_reason")

    @property
    def delivered_bits(self) -> str | None:
        return self.summary.get("delivered_bits")

    @property
    def ber(self) -> float | None:
        return self.summary.get("ber")

    @property
    def erasure_fraction(self) -> float:
        return self.summary.get("erasure_fraction", 0.0)

    @property
    def overhead_fraction(self) -> float:
        return self.summary.get("overhead_fraction", 0.0)

    @property
    def pooled_qber(self) -> analysis.QberEstimate | None:
        """All detection rounds pooled into one estimate."""
        if not self.detection_counts:
            return None
        return analysis.qber_from_counts(*map(sum, zip(*self.detection_counts)))


class Session:
    """Protocol state for one Alice-Bob communication."""

    def __init__(self, rng: np.random.Generator):
        self.rng = rng
        self.phase = SessionPhase.IDLE
        self.abort_reason: str | None = None
        self.time_s = 0.0
        self.transcript = SessionTranscript()

    def transition(self, new_phase: SessionPhase, reason: str | None = None):
        if new_phase not in _ALLOWED_TRANSITIONS[self.phase]:
            raise InvariantViolation(
                f"illegal phase transition {self.phase.value} -> {new_phase.value}"
            )
        self.log(
            "phase_transition",
            from_phase=self.phase.value,
            to_phase=new_phase.value,
            reason=reason,
        )
        self.phase = new_phase
        if new_phase is SessionPhase.ABORTED:
            self.abort_reason = reason

    def log(self, event_kind: str, **payload):
        self.transcript.log(self.time_s, event_kind, **payload)


def delay_control(sequence_length: int, slot_s: float) -> float:
    """Idler storage delay for a detection sequence: length * slot."""
    if sequence_length < 0:
        raise DomainError(f"sequence_length must be >= 0, got {sequence_length}")
    if slot_s < 0:
        raise DomainError(f"slot_s must be >= 0, got {slot_s}")
    return sequence_length * slot_s


# Measurement projectors on one time-bin qubit. Z outcomes are (s, l);
# X outcomes are ((s+l)/sqrt2, (s-l)/sqrt2).
_Z_STATES = (np.array([1, 0], dtype=complex), np.array([0, 1], dtype=complex))
_X_STATES = (
    np.array([1, 1], dtype=complex) / np.sqrt(2),
    np.array([1, -1], dtype=complex) / np.sqrt(2),
)
_BASIS_STATES = {"Z": _Z_STATES, "X": _X_STATES}


def _projector(vector: np.ndarray) -> np.ndarray:
    return np.outer(vector, vector.conj())


def _nonselective_measure_qubit(rho: np.ndarray, qubit: int, basis: str) -> np.ndarray:
    """Decohere one qubit in a basis: the measure-and-resend channel."""
    identity = np.eye(2, dtype=complex)
    out = np.zeros_like(rho)
    for vector in _BASIS_STATES[basis]:
        p = _projector(vector)
        full = np.kron(p, identity) if qubit == 0 else np.kron(identity, p)
        out += full @ rho @ full
    return out


@lru_cache(maxsize=64)
def _detection_branch_cumulative(noise: NoiseParams) -> np.ndarray:
    """Joint (alice, bob) outcome distributions for each detection branch.

    Index [bob_basis, eve_action, joint_outcome] with eve_action 0 = absent,
    1 = intercepted in Z, 2 = intercepted in X; joint outcomes are laid out
    (a, b) = (0,0), (0,1), (1,0), (1,1) and stored cumulatively for sampling.
    Alice measures in the same basis Bob publishes, so every surviving photon
    yields a matched-basis comparison.
    """
    rho = apply_noise(bell_state(BellLabel.PHI_PLUS), noise).rho
    states = {0: rho}
    states[1] = _nonselective_measure_qubit(rho, 1, "Z")
    states[2] = _nonselective_measure_qubit(rho, 1, "X")
    table = np.zeros((2, 3, 4))
    for bob_index, basis in enumerate(_BASIS_NAMES):
        vectors = _BASIS_STATES[basis]
        for eve_action, state in states.items():
            joint = []
            for a in (0, 1):
                for b in (0, 1):
                    measurement = np.kron(_projector(vectors[a]), _projector(vectors[b]))
                    joint.append(float(np.trace(measurement @ state).real))
            probs = np.clip(np.array(joint), 0.0, None)
            table[bob_index, eve_action] = np.cumsum(probs / probs.sum())
    return table


@dataclass(frozen=True)
class DetectionResult:
    passed: bool
    reason: str | None
    qber: analysis.QberEstimate | None
    photons_sent: int
    photons_detected: int
    expected_detected: float
    batch: DetectionBatch | None  # None when no photon survived


def run_security_detection(
    session: Session,
    devices: Devices,
    eve: EveModel,
    policy: QberThresholdPolicy,
    rng: np.random.Generator | None = None,
    *,
    num_photons: int,
    decrease_factor: float = 0.5,
    tdm_slot_s: float = 1e-6,
) -> DetectionResult:
    """Run one security-detection round and transition the session.

    Alice sends ``num_photons`` detection photons drawn from the signal arm
    of the pair source; Bob measures each survivor in a random basis and
    publishes position, basis and outcome; Alice compares in the matching
    basis. The round passes only if enough photons survive, the surviving
    count is no lower than decrease_factor times the lossless-channel
    expectation, and the pooled QBER stays below the policy threshold.
    """
    if session.phase is not SessionPhase.SECURITY_DETECTION:
        raise InvariantViolation(
            f"security detection requires phase security_detection, got {session.phase.value}"
        )
    if num_photons < 1:
        raise DomainError(f"num_photons must be >= 1, got {num_photons}")
    if not 0.0 <= decrease_factor <= 1.0:
        raise DomainError(f"decrease_factor must be in [0, 1], got {decrease_factor}")
    rng = rng or session.rng

    eta_alice = transmittance(devices.alice_fiber) * devices.detector.efficiency
    eta_bob = transmittance(devices.bob_fiber) * devices.detector.efficiency
    tap_fraction = eve.fraction if eve.kind is EveKind.TAP else 0.0
    p_record = eta_alice * eta_bob * (1.0 - tap_fraction)
    expected = num_photons * eta_alice * eta_bob  # lossless-eavesdropper budget

    session.log("detection_start", photons_sent=num_photons)
    send_start = session.time_s
    session.time_s += num_photons / devices.modulator.rate_hz
    alice_delay_s = delay_control(num_photons, tdm_slot_s)

    surviving = np.flatnonzero(rng.random(num_photons) < p_record)
    n = surviving.size
    batch = qber = None
    if n:
        table = _detection_branch_cumulative(devices.source.heralding_noise)
        bob_basis = rng.integers(0, 2, n)
        if eve.kind is EveKind.INTERCEPT_RESEND and eve.fraction > 0.0:
            intercepted = rng.random(n) < eve.fraction
            eve_basis = rng.integers(0, 2, n)
            eve_action = np.where(intercepted, 1 + eve_basis, 0)
        else:
            eve_action = np.zeros(n, dtype=int)
        draws = rng.random(n)
        cumulative = table[bob_basis, eve_action]
        joint = (draws[:, None] > cumulative).sum(axis=1)
        batch = DetectionBatch(
            send_start_s=send_start,
            slot_s=1.0 / devices.modulator.rate_hz,
            positions=surviving,
            bob_basis=bob_basis,
            alice_bits=joint >> 1,
            bob_bits=joint & 1,
        )
        counts = batch.counts()
        session.transcript.events.append(batch)
        session.transcript.detection_counts.append(counts)
        qber = analysis.qber_from_counts(*counts)

    if n < policy.min_samples:
        passed, reason = False, "insufficient_detection_samples"
    elif n < decrease_factor * expected:
        passed, reason = False, "photon_count_drop"
    elif qber.e >= policy.threshold:
        passed, reason = False, "qber_threshold_exceeded"
    else:
        passed, reason = True, None

    session.log(
        "detection_result",
        passed=passed,
        reason=reason,
        photons_sent=num_photons,
        photons_detected=int(n),
        expected_detected=expected,
        alice_delay_s=alice_delay_s,
        qber=qber.to_dict() if qber else None,
    )
    session.transition(
        SessionPhase.BLOCK_TRANSMISSION if passed else SessionPhase.ABORTED,
        reason=reason,
    )
    return DetectionResult(
        passed=passed,
        reason=reason,
        qber=qber,
        photons_sent=num_photons,
        photons_detected=int(n),
        expected_detected=expected,
        batch=batch,
    )


@lru_cache(maxsize=64)
def _encoding_cumulative(noise: NoiseParams, eve: EveModel) -> np.ndarray:
    """Bell-diagonal sampling tables per encoding after noise and Eve.

    Intercept-resend averages over Eve's basis and outcome, which is the
    nonselective measurement channel on the in-transit qubit; the resulting
    Bell-basis diagonal drives the SFG measurement statistics. Tap never
    alters the state (it only removes photons), so it does not appear here.
    """
    base = apply_noise(bell_state(BellLabel.PHI_PLUS), noise)
    table = np.zeros((4, 4))
    for code, encoding in enumerate(PauliEncoding):
        encoded = apply_encoding(base, encoding)
        rho = encoded.rho
        if eve.kind is EveKind.INTERCEPT_RESEND and eve.fraction > 0.0:
            dephased = 0.5 * (
                _nonselective_measure_qubit(rho, 0, "Z")
                + _nonselective_measure_qubit(rho, 0, "X")
            )
            rho = (1.0 - eve.fraction) * rho + eve.fraction * dephased
        diag = TwoQubitState(rho).bell_diagonal()
        diagonal = np.array([diag[label] for label in BELL_ORDER])
        table[code] = np.cumsum(diagonal / diagonal.sum())
    return table


def transmit_and_decode_block(
    codes: np.ndarray,
    devices: Devices,
    eve: EveModel,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray]:
    """Send one block of 2-bit codes through the channel and decode it at Bob.

    Each pair starts as phi+ with the source's heralding noise, carries the
    encoding of its slot's code, and survives the two fiber arms, any tap,
    the SFG conversion and the detector with a single joint probability;
    survivors draw their identified Bell state from the noisy state's Bell
    diagonal (the vectorized equivalent of running the SFG measurement pair
    by pair). Returns the delivered mask and the decoded codes, each the
    index of the identified state in BELL_ORDER. Losses and failed
    conversions come back as erasures, never as errors; the decoded code of
    an erased slot carries no information.
    """
    tap_fraction = eve.fraction if eve.kind is EveKind.TAP else 0.0
    p_deliver = (
        transmittance(devices.alice_fiber)
        * transmittance(devices.bob_fiber)
        * (1.0 - tap_fraction)
        * devices.sfg.conversion_efficiency
        * devices.detector.efficiency
    )
    table = _encoding_cumulative(devices.source.heralding_noise, eve)
    delivered = rng.random(codes.size) < p_deliver
    draws = rng.random(codes.size)
    return delivered, (draws[:, None] > table[codes]).sum(axis=1)


@dataclass(frozen=True)
class ProtocolConfig:
    """Session-level policy knobs for run_qsdc."""

    block_size: int = 10000
    detection_size: int | None = None  # default: 10% of a block
    redetect_every_blocks: int = 10
    max_retransmissions: int = 200
    photon_decrease_factor: float = 0.5
    tdm_slot_s: float = 1e-6

    def __post_init__(self):
        if self.block_size < 1:
            raise DomainError(f"block_size must be >= 1, got {self.block_size}")
        if self.detection_size is not None and self.detection_size < 1:
            raise DomainError(f"detection_size must be >= 1, got {self.detection_size}")
        if self.redetect_every_blocks < 1:
            raise DomainError(
                f"redetect_every_blocks must be >= 1, got {self.redetect_every_blocks}"
            )
        if self.max_retransmissions < 0:
            raise DomainError(
                f"max_retransmissions must be >= 0, got {self.max_retransmissions}"
            )
        if not 0.0 <= self.photon_decrease_factor <= 1.0:
            raise DomainError(
                f"photon_decrease_factor must be in [0, 1], got {self.photon_decrease_factor}"
            )

    @property
    def effective_detection_size(self) -> int:
        if self.detection_size is not None:
            return self.detection_size
        return max(1, self.block_size // 10)


def bits_to_hex(bits: str) -> str:
    """Hex encoding of a bitstring, right-padded with zeros to whole nibbles."""
    if not bits:
        return ""
    # int() alone would also take a sign, a 0b prefix, underscores and spaces.
    if not bits.isdecimal():
        raise ValueError(f"not a bitstring: {bits[:32]!r}")
    padded = bits + "0" * (-len(bits) % 4)
    return format(int(padded, 2), f"0{len(padded) // 4}x")


def hex_to_bits(hex_string: str, bit_length: int | None = None) -> str:
    """Bitstring from hex; optionally truncated to bit_length bits."""
    bits = ""
    if hex_string:
        # int() alone would also take a 0x prefix, underscores and spaces.
        if not hex_string.isalnum() or "x" in hex_string.lower():
            raise ValueError(f"not a hex string: {hex_string[:32]!r}")
        bits = format(int(hex_string, 16), f"0{4 * len(hex_string)}b")
    if bit_length is not None:
        if bit_length > len(bits):
            raise DomainError(
                f"bit_length {bit_length} exceeds the {len(bits)} bits in the hex string"
            )
        bits = bits[:bit_length]
    return bits


def run_qsdc(
    message_bits: str,
    devices: Devices,
    eve: EveModel,
    policy: QberThresholdPolicy,
    config: ProtocolConfig,
    rng: np.random.Generator,
) -> SessionTranscript:
    """Run one full QSDC session and return its transcript.

    Security detection gates the first block and re-runs every
    redetect_every_blocks blocks; erased pairs re-enter the queue until the
    per-symbol retransmission cap truncates them. The delivered message, BER
    against the sent message, erasure and overhead fractions, and simulated
    elapsed time all land in the transcript summary.
    """
    if not message_bits:
        raise DomainError("message must be non-empty")
    if message_bits.strip("01"):  # any other character survives the strip
        raise DomainError("message bits must contain only 0 and 1")

    session = Session(rng)
    session.log("session_start", message_length=len(message_bits))

    # Message code i is the 2-bit value of bits 2i, 2i+1; an odd-length
    # message is padded with one 0 bit, which the BER leaves out.
    bits = np.frombuffer(message_bits.encode(), dtype=np.uint8) - ord("0")
    codes = bits[0::2] << 1
    codes[: bits.size // 2] |= bits[1::2]
    total_symbols = codes.size
    pending = np.arange(total_symbols)  # FIFO queue of symbol indices
    attempts = np.zeros(total_symbols, dtype=int)
    received = np.zeros(total_symbols, dtype=np.uint8)  # 00 where never delivered
    arrived = np.zeros(total_symbols, dtype=bool)

    symbol_rate = min(devices.modulator.rate_hz, devices.sfg.max_rate_hz)
    detection_size = config.effective_detection_size
    detection_photons = 0
    detection_time_total = 0.0
    transmissions = 0
    erased_transmissions = 0
    symbol_errors = 0
    blocks_sent = 0
    blocks_since_check = 0

    def run_detection() -> bool:
        nonlocal detection_photons, detection_time_total
        session.transition(SessionPhase.SECURITY_DETECTION)
        start = session.time_s
        result = run_security_detection(
            session,
            devices,
            eve,
            policy,
            rng,
            num_photons=detection_size,
            decrease_factor=config.photon_decrease_factor,
            tdm_slot_s=config.tdm_slot_s,
        )
        detection_photons += result.photons_sent
        detection_time_total += session.time_s - start
        return result.passed

    def finalize(status: str, reason: str | None):
        completed = status == "completed"
        got_bits = np.column_stack((received >> 1, received & 1)).ravel()[: bits.size]
        counted = arrived.repeat(2)[: bits.size]
        delivered_count = int(np.count_nonzero(counted))
        wrong_bits = int(np.count_nonzero((got_bits != bits) & counted))
        delivered_bits = (got_bits + ord("0")).tobytes().decode() if completed else None
        ber = (wrong_bits / delivered_count) if delivered_count else None
        erasure_fraction = (
            erased_transmissions / transmissions if transmissions else 0.0
        )
        block_time = transmissions / symbol_rate if symbol_rate > 0 else 0.0
        total_time = detection_time_total + block_time
        overhead_fraction = detection_time_total / total_time if total_time else 0.0
        summary = {
            "status": status,
            "abort_reason": reason,
            "message_length": len(message_bits),
            "delivered_bits": delivered_bits,
            "delivered_bits_hex": bits_to_hex(delivered_bits) if completed else None,
            "ber": ber if completed else None,
            "truncated_symbols": np.flatnonzero(
                attempts > config.max_retransmissions
            ).tolist(),
            "blocks_sent": blocks_sent,
            "transmissions": transmissions,
            "erased_transmissions": erased_transmissions,
            "symbol_errors": symbol_errors,
            "detection_photons_sent": detection_photons,
            "erasure_fraction": erasure_fraction,
            "overhead_fraction": overhead_fraction,
            "elapsed_s": session.time_s,
        }
        session.transcript.summary = summary
        if completed:
            session.log(
                "session_complete",
                **{k: v for k, v in summary.items() if k != "status"},
            )
        else:
            session.log("session_abort", reason=reason)

    if not run_detection():
        finalize("aborted", session.abort_reason)
        return session.transcript
    blocks_since_check = 0

    while pending.size:
        if blocks_since_check >= config.redetect_every_blocks:
            if not run_detection():
                finalize("aborted", session.abort_reason)
                return session.transcript
            blocks_since_check = 0
        batch, pending = pending[: config.block_size], pending[config.block_size :]
        sent = codes[batch]
        delivered, decoded = transmit_and_decode_block(sent, devices, eve, rng)
        session.time_s += batch.size / symbol_rate if symbol_rate > 0 else 0.0
        transmissions += batch.size
        erased = batch[~delivered]
        erased_transmissions += erased.size
        attempts[erased] += 1
        # Erased symbols under the cap rejoin the back of the queue in slot order.
        pending = np.concatenate(
            (pending, erased[attempts[erased] <= config.max_retransmissions])
        )
        got = batch[delivered]
        received[got] = decoded[delivered]
        arrived[got] = True
        block_errors = int(np.count_nonzero(decoded[delivered] != sent[delivered]))
        symbol_errors += block_errors
        session.log(
            "block_sent",
            block_index=blocks_sent,
            pairs=batch.size,
            erasures=erased.size,
            symbol_errors=block_errors,
        )
        blocks_sent += 1
        blocks_since_check += 1

    session.transition(SessionPhase.COMPLETED)
    finalize("completed", None)
    return session.transcript
