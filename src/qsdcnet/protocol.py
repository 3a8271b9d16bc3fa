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
from functools import cached_property, lru_cache
from itertools import groupby
from typing import Iterator, NamedTuple

import numpy as np

from . import analysis
from .errors import DomainError, InvariantViolation
from .photonics import Devices, transmittance
from .qstate import NoiseParams, bell_weights


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
            raise DomainError(f"fraction must be in [0, 1], got {self.fraction}")


# json.dumps writes _SPLICE_MARK % i as _SPLICE_TOKEN + f'{i}"'.
_SPLICE_MARK, _SPLICE_TOKEN = "\x00splice %d", '"\\u0000splice '


def _replaced(doc: dict, path, value) -> dict:
    """doc with value at the key path, copying only the objects on the path."""
    key, *rest = path
    return {**doc, key: _replaced(doc[key], rest, value) if rest else value}


def _json_verbatim(value: str) -> bool:
    """Whether json writes the string as '"' + value + '"', escaping nothing:
    printable ASCII without quote or backslash."""
    if not value.isascii() or '"' in value or "\\" in value:
        return False
    if len(value) < 1024:  # below this, one str scan beats numpy's call overhead
        return value.isprintable()
    codes = np.frombuffer(value.encode(), dtype=np.uint8)
    return codes.min() >= 0x20 and codes.max() < 0x7F


def spliced_pieces(doc: dict, paths, end: str = "", **options) -> list[str]:
    """``json.dumps(doc, **options) + end`` as pieces that join to it, but
    the string at each key path is written as '"' + s + '"' without escaping
    it, such as bits and hex digits, and is a piece of its own. A path that
    holds no string, or a string that json would escape, is left to json; a
    splice mark in the rest of doc raises ValueError."""
    values = []
    for path in dict.fromkeys(paths):  # each path once
        value = doc
        for key in path:
            value = value.get(key) if isinstance(value, dict) else None
        if isinstance(value, str) and _json_verbatim(value):
            doc = _replaced(doc, path, _SPLICE_MARK % len(values))
            values.append(value)
    text = json.dumps(doc, **options)
    head, *pieces = text.split(_SPLICE_TOKEN) if values else [text]
    if len(pieces) != len(values):
        raise ValueError("the document holds a splice mark outside the spliced strings")
    parts = [head]
    for piece in pieces:
        index, rest = piece.split('"', 1)
        parts += ('"', values[int(index)], '"', rest)
    return [*parts, end]


class TranscriptEvent(NamedTuple):
    timestamp_s: float
    event_kind: str
    payload: dict


# What json.dumps writes between two events of a list, and nowhere inside a
# string, where it escapes each quote.
_EVENT_BOUNDARY = '}, {"timestamp_s": '


def events_jsonl(events: list[TranscriptEvent]) -> str:
    """The events' lines, each json.dumps(event._asdict()) and a newline, from
    one json.dumps of their list split at the boundaries. A payload holding
    the boundary too (a list of objects keyed timestamp_s first) raises
    ValueError rather than being split in it."""
    # A detection_result's qber is its QberEstimate until here, so that only
    # a written transcript computes the interval.
    text = json.dumps(
        [event._asdict() for event in events], default=analysis.QberEstimate.to_dict
    )[1:-1]
    if text.count(_EVENT_BOUNDARY) != len(events) - 1:
        raise ValueError("an event payload holds the text between two events")
    return text.replace(_EVENT_BOUNDARY, '}\n{"timestamp_s": ') + "\n"


_BASIS_NAMES = ("Z", "X")

# The fixed parts of the line json.dumps gives a detection_record event (its
# payload keys sorted): head, timestamp, middle, position, tail. The middle
# holds the outcomes and basis and is indexed by 4 * basis + 2 * alice + bob.
_RECORD_HEAD = '{"timestamp_s": '
_RECORD_MIDDLES = np.array([  # of objects: indexed by an array, it gives the strs
    f', "event_kind": "detection_record", "payload": {{"alice_outcome": {a}, '
    f'"basis": "{basis}", "bob_outcome": {b}, "position": '
    for basis in _BASIS_NAMES for a in (0, 1) for b in (0, 1)
], dtype=object)
_RECORD_TAIL = ', "published": true}}\n'


class DetectionBatch(NamedTuple):
    """One detection round's surviving photons as parallel arrays.

    Bob publishes each survivor's slot position, basis (0 = Z, 1 = X) and
    outcome; Alice's outcome in the same basis sits beside it. In the
    transcript the batch stands for the round's ``detection_record`` events,
    one per survivor, and becomes their lines only when it is serialized:
    fixed text around each survivor's timestamp and position reprs.
    """

    send_start_s: float
    slot_s: float
    positions: np.ndarray
    bob_basis: np.ndarray
    alice_bits: np.ndarray
    bob_bits: np.ndarray

    event_kind = "detection_record"  # a class attribute, not a field

    def counts(self) -> tuple[int, int, int, int]:
        """Matched-basis comparisons and errors: (n_z, errors_z, n_x, errors_x)."""
        z_right, z_wrong, x_right, x_wrong = np.bincount(
            2 * self.bob_basis + (self.alice_bits != self.bob_bits), minlength=4
        ).tolist()
        return z_right + z_wrong, z_wrong, x_right + x_wrong, x_wrong

    def to_jsonl(self) -> str:
        """One detection_record line per survivor, in slot order, each with
        its newline: the fixed parts around json's float and int reprs."""
        # A photon is detected at the end of its slot.
        timestamps = self.send_start_s + (self.positions + 1) * self.slot_s
        middles = 4 * self.bob_basis + 2 * self.alice_bits + self.bob_bits
        stamps = _number_texts(timestamps)
        # orjson writes 0.00001 and 1e16 where repr (and json) write 1e-05 and
        # 1e+16 (and null for nan); inside [1e-4, 1e16) its shortest digits
        # are repr's.
        outside = ~((timestamps >= 1e-4) & (timestamps < 1e16))
        for index, stamp in zip(outside.nonzero()[0].tolist(), timestamps[outside].tolist()):
            stamps[index] = float.__repr__(stamp)
        parts = [_RECORD_TAIL + _RECORD_HEAD] * (4 * self.positions.size + 1)
        parts[0] = _RECORD_HEAD
        parts[1::4] = stamps
        parts[2::4] = _RECORD_MIDDLES[middles].tolist()
        parts[3::4] = _number_texts(self.positions)
        parts[-1] = _RECORD_TAIL
        return "".join(parts)


def _number_texts(values: np.ndarray) -> list[str]:
    """JSON texts of a non-empty 1-d float64 or integer array's elements, by
    orjson's shortest round-trip writer."""
    # Imported here, so that only a command writing detection records loads
    # orjson (with its uuid and zoneinfo imports).
    import orjson

    text = orjson.dumps(np.ascontiguousarray(values), option=orjson.OPT_SERIALIZE_NUMPY)
    return text[1:-1].decode().split(",")


class SessionTranscript:
    """Ordered protocol events plus the end-of-session summary."""

    def __init__(self):
        self.events: list[TranscriptEvent | DetectionBatch] = []
        self.summary: dict = {}
        # Per detection round: (n_z, errors_z, n_x, errors_x).
        self.detection_counts: list[tuple[int, int, int, int]] = []

    def chunks(self) -> Iterator[str]:
        """The transcript's text in chunks never joined: one per run of events,
        one per detection batch, and the session_complete line's pieces."""
        for kind, events in groupby(self.events, _chunk_kind):
            if kind is TranscriptEvent:
                yield events_jsonl(list(events))
            elif kind is DetectionBatch:
                yield from (batch.to_jsonl() for batch in events)
            else:  # session_complete: its bits and hex are pieces of their own
                spliced = (("payload", "delivered_bits"), ("payload", "delivered_bits_hex"))
                for event in events:
                    yield from spliced_pieces(event._asdict(), spliced, end="\n")

    @property
    def pooled_qber(self) -> analysis.QberEstimate | None:
        """All detection rounds pooled into one estimate."""
        if not self.detection_counts:
            return None
        return analysis.qber_from_counts(*map(sum, zip(*self.detection_counts)))


def _chunk_kind(event: TranscriptEvent | DetectionBatch):
    """The event's type, or "session_complete" for that event."""
    return event.event_kind if event.event_kind == "session_complete" else type(event)


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
        # _value_ is what the value property reads, without the property call.
        self.log(
            "phase_transition",
            from_phase=self.phase._value_,
            reason=reason,
            to_phase=new_phase._value_,
        )
        self.phase = new_phase
        if new_phase is SessionPhase.ABORTED:
            self.abort_reason = reason

    def log(self, event_kind: str, **payload):
        """Append an event at the session clock; callers pass the payload
        keys in sorted order."""
        self.transcript.events.append(TranscriptEvent(self.time_s, event_kind, payload))


# Bell-weight indices in BELL_ORDER (phi+, phi-, psi+, psi-). A Pauli on
# either qubit permutes the four weights: sigma_z swaps j <-> j ^ 1, sigma_x
# swaps j <-> j ^ 2, and encoding k sends weight j to j ^ k.
_CODES = np.arange(4)


def _measure_resend(weights: np.ndarray, flip: int) -> np.ndarray:
    """Bell weights after a Z (flip 1) or X (flip 2) measure-and-resend of one
    qubit: half the weight of each state moves to its flipped partner."""
    return (weights + weights[..., _CODES ^ flip]) / 2.0


@lru_cache(maxsize=64)
def _detection_branch_cumulative(noise: NoiseParams) -> np.ndarray:
    """Joint (alice, bob) outcome distributions for each detection branch.

    Index [bob_basis, eve_action, joint_outcome] with eve_action 0 = absent,
    1 = intercepted in Z, 2 = intercepted in X; joint outcomes are laid out
    (a, b) = (0,0), (0,1), (1,0), (1,1) and stored cumulatively for sampling.
    Alice measures in the same basis Bob publishes, so every surviving photon
    yields a matched-basis comparison. For the pair's Bell weights w, the
    outcomes differ with probability e = w[psi+] + w[psi-] in Z and
    e = w[phi-] + w[psi-] in X, and the joint law is
    [(1 - e)/2, e/2, e/2, (1 - e)/2].
    """
    weights = bell_weights(noise)
    branches = np.stack(
        (weights, _measure_resend(weights, 1), _measure_resend(weights, 2))
    )
    errors = np.stack(
        (branches[:, 2] + branches[:, 3], branches[:, 1] + branches[:, 3])
    )
    table = np.empty((2, 3, 4))  # the running sums of that law
    table[..., 0] = (1.0 - errors) / 2.0
    table[..., 1] = 0.5
    table[..., 2] = (1.0 + errors) / 2.0
    table[..., 3] = 1.0
    return table


@lru_cache(maxsize=64)
def _detection_columns(noise: NoiseParams) -> tuple[np.ndarray, ...]:
    """Row 3 * bob_basis + eve_action of the detection branches, as ``_sample`` reads it."""
    return _columns(_detection_branch_cumulative(noise).reshape(6, 4))


@lru_cache(maxsize=64)
def _encoded_weights(noise: NoiseParams) -> tuple[np.ndarray, np.ndarray]:
    """The noisy pair's Bell weights per encoding, row k after encoding k
    (which moves weight j to j ^ k), as they reach Bob untouched and after
    Eve measures and resends: an even mix of the Z and X measure-and-resend
    weights, her basis and outcome averaged over."""
    encoded = bell_weights(noise)[_CODES[:, None] ^ _CODES]
    measured = (_measure_resend(encoded, 1) + _measure_resend(encoded, 2)) / 2.0
    return encoded, measured


@lru_cache(maxsize=64)
def _encoding_cumulative(noise: NoiseParams, eve: EveModel) -> np.ndarray:
    """Bell-weight sampling tables per encoding after noise and Eve.

    Row k holds the cumulative Bell weights of the noisy pair after encoding
    k. Intercept-resend blends the untouched and the measured weights of
    ``_encoded_weights`` by Eve's fraction, so a new fraction costs one blend
    and one cumsum. Tap never alters the state (it only removes photons), so
    it does not appear here.
    """
    encoded, measured = _encoded_weights(noise)
    if eve.kind is EveKind.INTERCEPT_RESEND and eve.fraction > 0.0:
        encoded = (1.0 - eve.fraction) * encoded + eve.fraction * measured
    table = (encoded / encoded.sum(axis=1, keepdims=True)).cumsum(axis=1)
    table[:, -1] = 1.0  # rounding can leave it below the largest draw
    return table


class Link:
    """What the devices and Eve fix for all of a session's blocks and
    detection rounds, computed once per session. The encoding table is
    looked up on first use: a session that aborts in its first detection
    round needs none."""

    def __init__(self, devices: Devices, eve: EveModel):
        self.devices = devices
        self.eve = eve
        tap_fraction = eve.fraction if eve.kind is EveKind.TAP else 0.0
        efficiency = devices.detector.efficiency
        t_alice = transmittance(devices.alice_fiber)
        t_bob = transmittance(devices.bob_fiber)
        # Each arm's transmittance times the detector efficiency.
        self.eta_alice = t_alice * efficiency
        self.eta_bob = t_bob * efficiency
        self.p_record = self.eta_alice * self.eta_bob * (1.0 - tap_fraction)
        self.p_deliver = (
            t_alice * t_bob * (1.0 - tap_fraction) * devices.sfg.conversion_efficiency
            * efficiency
        )
        self.detection_columns = _detection_columns(devices.source.noise)

    @cached_property
    def encoding_columns(self) -> tuple[np.ndarray, ...]:
        return _columns(_encoding_cumulative(self.devices.source.noise, self.eve))


def _columns(table: np.ndarray) -> tuple[np.ndarray, ...]:
    """A cumulative table as ``_sample`` reads it: its columns but the last.
    Rows end at exactly 1.0, above every draw in [0, 1), so the last column
    is never compared."""
    return tuple(table[:, :-1].T)


def _sample(columns: tuple[np.ndarray, ...], rows: np.ndarray, draws: np.ndarray) -> np.ndarray:
    """Inverse-CDF sampling: per draw, the number of entries of its row of a
    cumulative table, given as its ``_columns``, that the draw exceeds."""
    rows = rows.astype(np.intp, copy=False)  # once, not in each fancy index
    first, *rest = columns
    indices = (draws > first[rows]).view(np.uint8)
    for column in rest:
        indices += draws > column[rows]
    return indices


class DetectionResult(NamedTuple):
    passed: bool
    reason: str | None
    qber: analysis.QberEstimate | None
    photons_detected: int
    batch: DetectionBatch | None  # None when no photon survived


def run_security_detection(session: Session, link: Link, config: ProtocolConfig) -> DetectionResult:
    """Run one security-detection round and transition the session.

    Alice sends ``config.photons_per_round`` detection photons drawn from the
    signal arm of the pair source; Bob measures each survivor in a random
    basis and publishes position, basis and outcome; Alice compares in the
    matching basis. The round passes only if at least min_samples photons
    survive, the surviving count is no lower than photon_decrease_factor
    times the lossless-channel expectation, and the pooled QBER stays below
    qber_threshold. Every draw comes from ``session.rng``.
    """
    if session.phase is not SessionPhase.SECURITY_DETECTION:
        raise InvariantViolation(
            f"security detection requires phase security_detection, got {session.phase.value}"
        )
    num_photons = config.photons_per_round
    rng = session.rng
    eve = link.eve
    rate_hz = link.devices.modulator.rate_hz
    expected = num_photons * link.eta_alice * link.eta_bob  # lossless-eavesdropper budget

    session.log("detection_start", photons_sent=num_photons)
    send_start = session.time_s
    session.time_s += num_photons / rate_hz

    surviving = (rng.random(num_photons) < link.p_record).nonzero()[0]
    n = surviving.size
    batch = qber = None
    if n:
        bob_basis = rng.integers(0, 2, n)
        # Row 3 * bob_basis + eve_action of the detection table.
        rows = 3 * bob_basis
        if eve.kind is EveKind.INTERCEPT_RESEND and eve.fraction > 0.0:
            intercepted = rng.random(n) < eve.fraction
            eve_action = rng.integers(1, 3, n)  # her basis: 1 = Z, 2 = X
            eve_action *= intercepted  # 0 where she let the photon pass
            rows += eve_action
        joint = _sample(link.detection_columns, rows, rng.random(n))
        batch = DetectionBatch(send_start, 1 / rate_hz, surviving, bob_basis, joint >> 1, joint & 1)
        counts = batch.counts()
        session.transcript.events.append(batch)
        session.transcript.detection_counts.append(counts)
        qber = analysis.qber_from_counts(*counts)

    if n < config.min_samples:
        passed, reason = False, "insufficient_detection_samples"
    elif n < config.photon_decrease_factor * expected:
        passed, reason = False, "photon_count_drop"
    elif qber.e >= config.qber_threshold:
        passed, reason = False, "qber_threshold_exceeded"
    else:
        passed, reason = True, None

    session.log(
        "detection_result",
        alice_delay_s=num_photons * config.tdm_slot_s,  # the idler's storage delay
        expected_detected=expected,
        passed=passed,
        photons_detected=int(n),
        photons_sent=num_photons,
        qber=qber,  # written by events_jsonl
        reason=reason,
    )
    session.transition(
        SessionPhase.BLOCK_TRANSMISSION if passed else SessionPhase.ABORTED,
        reason=reason,
    )
    return DetectionResult(passed, reason, qber, n, batch)


def transmit_and_decode_block(
    codes: np.ndarray, link: Link, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Send one block of 2-bit codes through the channel and decode it at Bob.

    Each pair starts as phi+ with the source's heralding noise, carries the
    encoding of its slot's code, and survives the two fiber arms, any tap,
    the SFG conversion and the detector with a single joint probability;
    survivors draw their identified Bell state from the noisy state's Bell
    diagonal (the vectorized equivalent of running the SFG measurement pair
    by pair). Returns the delivered mask and the decoded ``uint8`` codes,
    each the index of the identified state in BELL_ORDER. Losses and failed
    conversions come back as erasures, never as errors; the decoded code of
    an erased slot carries no information.
    """
    n = codes.size
    # One call: for the PCG64 generator, random(n) then random(n) is random(2 * n).
    draws = rng.random(2 * n)
    return draws[:n] < link.p_deliver, _sample(link.encoding_columns, codes, draws[n:])


# Ceilings on the counts that size a session's arrays: a block's symbols
# and a detection round's photons (each survivor is one transcript line).
MAX_BLOCK_SIZE = 10**7
MAX_DETECTION_SIZE = 10**6


@dataclass(frozen=True)
class ProtocolConfig:
    """The protocol's knobs: the security check's QBER threshold and sample
    floor, then block-wise transmission with periodic re-detection."""

    qber_threshold: float = 0.1
    min_samples: int = 500
    block_size: int = 10000
    detection_size: int | None = None  # None: 10% of a block, at least 1
    redetect_every_blocks: int = 10
    max_retransmissions: int = 200
    photon_decrease_factor: float = 0.5
    tdm_slot_s: float = 1e-6

    def __post_init__(self):
        if not 0.0 < self.qber_threshold < 0.5:
            raise DomainError(f"qber_threshold must be in (0, 0.5), got {self.qber_threshold}")
        if self.min_samples < 1:
            raise DomainError(f"min_samples must be >= 1, got {self.min_samples}")
        if not 1 <= self.block_size <= MAX_BLOCK_SIZE:
            raise DomainError(
                f"block_size must be in [1, {MAX_BLOCK_SIZE}], got {self.block_size}"
            )
        if self.detection_size is not None and not 1 <= self.detection_size <= MAX_DETECTION_SIZE:
            raise DomainError(
                f"detection_size must be in [1, {MAX_DETECTION_SIZE}], "
                f"got {self.detection_size}"
            )
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
        if self.tdm_slot_s < 0.0:
            raise DomainError(f"tdm_slot_s must be >= 0, got {self.tdm_slot_s}")

    @property
    def photons_per_round(self) -> int:
        """A detection round's photons: detection_size, or by default 10% of a block."""
        if self.detection_size is None:
            return max(1, self.block_size // 10)
        return self.detection_size


# Four codes c0..c3 as one little-endian uint32, times this, hold the byte
# c0 << 6 | c1 << 4 | c2 << 2 | c3 on top: no other product term reaches it.
_GATHER = np.uint32(1 << 30 | 1 << 20 | 1 << 10 | 1)


class MessageCodes(NamedTuple):
    """A message as ``uint8`` 2-bit codes: code i is the value of message
    bits 2i, 2i+1, and an odd bit count pads the last code with one 0 bit,
    which no output reads."""

    codes: np.ndarray
    bit_count: int

    @classmethod
    def from_bit_values(cls, values: np.ndarray) -> MessageCodes:
        """The codes of an array of 0s and 1s, one per bit."""
        values = values.astype(np.uint8, copy=False)
        codes = values[0::2] << 1  # an odd count leaves the pad bit 0
        codes[: values.size // 2] |= values[1::2]
        return cls(codes, values.size)

    @classmethod
    def from_bytes(cls, raw: bytes, bit_count: int) -> MessageCodes:
        """The codes of the first bit_count bits of raw: four per byte, high pair first."""
        # hex's packing undone: byte b times _GATHER, shifted right by 6, holds
        # b's codes, high pair first, in the low bits of its four bytes. In
        # place, so the codes are the one array made.
        words = np.frombuffer(raw, dtype=np.uint8).astype("<u4")
        words *= _GATHER
        words >>= 6
        words &= 0x03030303
        codes = words.view(np.uint8)[: -(-bit_count // 2)]
        if bit_count % 2:
            codes[-1] &= 2  # the pad bit
        return cls(codes, bit_count)

    def text(self) -> str:
        """The bits as a '0'/'1' string, written once from the codes."""
        # Each code's two characters as one little-endian uint16: the high
        # bit's character in the low byte.
        chars = (self.codes & 1).astype("<u2")
        chars <<= 8
        chars |= self.codes >> 1
        chars += 0x3030  # ord("0") in both bytes
        return str(chars.view(np.uint8)[: self.bit_count].data, "ascii")

    def hex(self) -> str:
        """Hex digits of the bits, right-padded with zeros to whole nibbles;
        the pad bit must be 0."""
        codes = self.codes
        if codes.size % 4:
            codes = np.concatenate((codes, np.zeros(-codes.size % 4, dtype=np.uint8)))
        packed = np.ascontiguousarray(codes).view("<u4") * _GATHER
        packed >>= 24
        packed = packed.astype(np.uint8)  # four codes to a byte
        return packed.data.hex()[: -(-self.bit_count // 4)]

    def bit_errors(self, other: MessageCodes) -> int:
        """The number of bits in which two messages with 0 pad bits differ."""
        diff = self.codes ^ other.codes
        return int(np.count_nonzero(diff)) + int(np.count_nonzero(diff == 3))


def run_qsdc(
    message: MessageCodes,
    devices: Devices,
    eve: EveModel,
    config: ProtocolConfig,
    rng: np.random.Generator,
) -> SessionTranscript:
    """Run one full QSDC session and return its transcript.

    Security detection gates the first block and re-runs every
    redetect_every_blocks blocks; erased pairs re-enter the queue, and a
    block that erases a symbol for the (max_retransmissions + 1)-th time
    aborts the session with reason ``retransmission_cap``, listing the
    symbols over the cap in ``truncated_symbols``. The delivered message,
    BER against the sent message, erasure and overhead fractions, and
    simulated elapsed time all land in the transcript summary.
    """
    codes, bit_count = message
    if not bit_count:
        raise DomainError("message must be non-empty")

    session = Session(rng)
    session.log("session_start", message_length=bit_count)
    link = Link(devices, eve)

    total_symbols = codes.size
    block_size, cap = config.block_size, config.max_retransmissions
    # FIFO queue: the never-sent symbols [cursor, total_symbols), then the erased
    # ones in erase order; requeued joins the backlog only when a block needs it.
    cursor = 0
    backlog = np.empty(0, dtype=np.intp)
    requeued: list[np.ndarray] = []
    # A symbol's erasures reach cap + 1 at most: the block that does it aborts.
    attempts = np.zeros(total_symbols, dtype=np.min_scalar_type(cap + 1))
    received = np.empty(total_symbols, dtype=np.uint8)

    symbol_rate = min(devices.modulator.rate_hz, devices.sfg.max_rate_hz)
    detection_photons = 0
    detection_time_total = 0.0
    transmissions = 0
    erased_transmissions = 0
    symbol_errors = 0
    blocks_sent = 0
    # Detection gates the first block and every redetect_every_blocks-th after it.
    blocks_since_check = config.redetect_every_blocks

    while cursor < total_symbols or backlog.size or requeued:
        if blocks_since_check >= config.redetect_every_blocks:
            session.transition(SessionPhase.SECURITY_DETECTION)
            start = session.time_s
            result = run_security_detection(session, link, config)
            detection_photons += config.photons_per_round
            detection_time_total += session.time_s - start
            if not result.passed:
                break
            blocks_since_check = 0
        # Never-sent symbols are one contiguous range, read and written as a
        # slice; only a block that takes erased symbols needs an index array.
        start, cursor = cursor, min(cursor + block_size, total_symbols)
        batch = slice(start, cursor)
        short = block_size - (cursor - start)
        if short and (backlog.size or requeued):
            if backlog.size < short:
                parts = (backlog, *requeued) if backlog.size else requeued
                backlog = parts[0] if len(parts) == 1 else np.concatenate(parts)
                requeued = []
            batch, backlog = backlog[:short], backlog[short:]
            if start < cursor:
                batch = np.concatenate((np.arange(start, cursor), batch))
        sent = codes[batch]
        delivered, decoded = transmit_and_decode_block(sent, link, rng)
        # A delivered symbol is never sent again: this is its decode's last write.
        received[batch] = decoded
        session.time_s += sent.size / symbol_rate
        transmissions += sent.size
        lost = ~delivered
        erased = lost.nonzero()[0] + start if isinstance(batch, slice) else batch[lost]
        erased_transmissions += erased.size
        wrong = decoded != sent
        wrong &= delivered
        block_errors = int(np.count_nonzero(wrong))
        symbol_errors += block_errors
        session.log(
            "block_sent",
            block_index=blocks_sent,
            erasures=erased.size,
            pairs=sent.size,
            symbol_errors=block_errors,
        )
        blocks_sent += 1
        blocks_since_check += 1
        if erased.size:
            requeued.append(erased)  # behind every queued symbol, in slot order
            attempts[erased] += 1
            # A block erases a symbol at most once, so none can be over the
            # cap before more blocks than the cap have been sent.
            if blocks_sent > cap and np.count_nonzero(attempts[erased] > cap):
                session.transition(SessionPhase.ABORTED, reason="retransmission_cap")
                break
    else:
        session.transition(SessionPhase.COMPLETED)

    completed = session.phase is SessionPhase.COMPLETED
    reason = session.abort_reason
    delivered_bits = delivered_hex = ber = None
    if completed:  # every symbol has arrived
        if bit_count % 2:
            received[-1] &= 2  # the decoded pad bit is no message bit
        got = MessageCodes(received, bit_count)
        delivered_bits, delivered_hex = got.text(), got.hex()
        ber = message.bit_errors(got) / bit_count
    erasure_fraction = erased_transmissions / transmissions if transmissions else 0.0
    block_time = transmissions / symbol_rate
    total_time = detection_time_total + block_time
    overhead_fraction = detection_time_total / total_time if total_time else 0.0
    # Only the retransmission cap leaves symbols over the cap.
    truncated = (attempts > cap).nonzero()[0].tolist() if reason == "retransmission_cap" else []
    summary = {  # keys in sorted order, as the transcript writes them
        "abort_reason": reason,
        "ber": ber,
        "blocks_sent": blocks_sent,
        "delivered_bits": delivered_bits,
        "delivered_bits_hex": delivered_hex,
        "detection_photons_sent": detection_photons,
        "elapsed_s": session.time_s,
        "erased_transmissions": erased_transmissions,
        "erasure_fraction": erasure_fraction,
        "message_length": bit_count,
        "overhead_fraction": overhead_fraction,
        "status": session.phase.value,
        "symbol_errors": symbol_errors,
        "transmissions": transmissions,
        "truncated_symbols": truncated,
    }
    session.transcript.summary = summary
    if completed:
        session.log("session_complete", **{k: v for k, v in summary.items() if k != "status"})
    else:
        session.log("session_abort", reason=reason)
    return session.transcript
