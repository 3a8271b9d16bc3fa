"""Two-phase QSDC session.

Phase one establishes channel security by sending single photons that Bob
measures in a random Z/X basis and publishes; Alice measures her entangled
partners in the matching basis and estimates the QBER. Phase two streams the
message as blocks of Pauli-encoded phi+ pairs that Bob decodes through the
SFG Bell-state measurement; erased pairs are retransmitted in later blocks
and security detection re-runs periodically.

A session is single-threaded and owns its numpy Generator; the events it
logs to its ``transcript.SessionTranscript`` are a pure function of
(configuration, seed).
"""

from __future__ import annotations

from functools import cached_property, lru_cache
from typing import TYPE_CHECKING, NamedTuple

import numpy as np

from . import analysis
from .errors import DomainError
from .photonics import transmittance
from .qstate import bell_weights
from .scenario import EveKind, Unescaped
from .transcript import DetectionBatch, SessionTranscript

if TYPE_CHECKING:
    from .scenario import Devices, EveModel, NoiseParams, ProtocolConfig


class Session:
    """Protocol state for one Alice-Bob communication."""

    def __init__(self, rng: np.random.Generator):
        self.rng = rng
        self.phase = "idle"  # as phase_transition lines and summary["status"] write it
        self.abort_reason: str | None = None
        self.time_s = 0.0
        self.transcript = SessionTranscript()
        self._spare_bit = np.empty(0, dtype=np.uint8)  # a drawn, unused 32-bit half's bit

    def draw_bits(self, n: int) -> np.ndarray:
        """``rng.integers(0, 2, n)`` as ``uint8``, without its per-call cost:
        the top bit of each 32-bit half of the generator's raw 64-bit draws,
        low half first. An odd count's unused half opens the next call, as
        numpy's own spare half would, so every 32-bit draw on the session
        generator must come from here."""
        spare = self._spare_bit
        raw = self.rng.bit_generator.random_raw((n - spare.size + 1) // 2)
        # The top byte of each half, read as little-endian whatever the host.
        bits = np.concatenate((spare, raw.astype("<u8", copy=False).view(np.uint8)[3::4] >> 7))
        self._spare_bit = bits[n:]
        return bits[:n]

    def transition(self, phase: str, reason: str | None = None):
        """Log the move to phase and enter it; reason is an abort's reason.
        ``run_qsdc`` alone orders the phases: nothing here checks the move."""
        self.log("phase_transition", from_phase=self.phase, reason=reason, to_phase=phase)
        self.phase = phase
        self.abort_reason = reason

    def log(self, event_kind: str, **payload) -> dict:
        """Append an event at the session clock, as its line's dict, and return
        its payload; callers pass the payload keys in sorted order."""
        self.transcript.events.append(
            {"timestamp_s": self.time_s, "event_kind": event_kind, "payload": payload}
        )
        return payload


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
    round needs none. Blocks skip the delivery draws when
    ``certain_delivery`` and the decode draws when ``certain_code`` is set,
    and write the general path's outputs bit for bit."""

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
        self.certain_delivery = self.p_deliver == 1.0
        # j0 if the pair is Bell state j0 for certain and Eve mixes no rows of
        # the encoding table: row k is then 0.0 before k ^ j0 and 1.0 from it.
        self.certain_code = None
        if not (eve.kind is EveKind.INTERCEPT_RESEND and eve.fraction > 0.0):
            (nonzero,) = bell_weights(devices.source.noise).nonzero()
            self.certain_code = int(nonzero[0]) if nonzero.size == 1 else None

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
    cumulative table, given as its ``_columns``, that are at most the draw.
    An outcome of weight 0 has an empty range of draws, so none is drawn."""
    rows = rows.astype(np.intp, copy=False)  # once, not in each fancy index
    first, *rest = columns
    indices = (draws >= first[rows]).view(np.uint8)
    for column in rest:
        indices += draws >= column[rows]
    return indices


def _block_draws(rng: np.random.Generator, n: int, link: Link):
    """A block's n delivery draws, as the positions of the pairs they erase,
    and its n decode draws: the halves of random(2 * n), which for PCG64 is
    random(n) twice. A half the link makes certain is skipped by advance(n),
    which is random(n) unread, and gives no erasure or no draws (None)."""
    if link.certain_code is None and not link.certain_delivery:
        draws = rng.random(2 * n)  # one call, not two
        return (draws[:n] >= link.p_deliver).nonzero()[0], draws[n:]
    if link.certain_delivery:
        rng.bit_generator.advance(n)
        erased = np.empty(0, dtype=np.intp)
    else:
        erased = (rng.random(n) >= link.p_deliver).nonzero()[0]
    if link.certain_code is None:
        return erased, rng.random(n)
    rng.bit_generator.advance(n)
    return erased, None


def run_security_detection(session: Session, link: Link, config: ProtocolConfig) -> bool:
    """Run one security-detection round, transition the session and return
    whether the round passed.

    Alice sends ``config.photons_per_round`` detection photons drawn from the
    signal arm of the pair source; Bob measures each survivor in a random
    basis and publishes position, basis and outcome; Alice compares in the
    matching basis. The round passes only if at least min_samples photons
    survive, the surviving count is no lower than photon_decrease_factor
    times the lossless-channel expectation, and the pooled QBER stays below
    qber_threshold. Every draw comes from ``session.rng``.
    """
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
    qber = None
    if n:
        bob_basis = session.draw_bits(n)
        # Row 3 * bob_basis + eve_action of the detection table.
        rows = 3 * bob_basis
        if eve.kind is EveKind.INTERCEPT_RESEND and eve.fraction > 0.0:
            intercepted = rng.random(n) < eve.fraction
            eve_action = session.draw_bits(n) + 1  # her basis: 1 = Z, 2 = X
            eve_action *= intercepted  # 0 where she let the photon pass
            rows += eve_action
        outcomes = _sample(link.detection_columns, rows, rng.random(n))  # 2 * alice + bob
        outcomes |= bob_basis << 2
        batch = DetectionBatch(send_start, 1 / rate_hz, surviving, outcomes)
        session.transcript.events.append(batch)
        qber = analysis.qber_from_counts(*batch.counts())

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
    session.transition("block_transmission" if passed else "aborted", reason=reason)
    return passed


class _Window:
    """A block and the blocks after it that resend only the erasures before
    them, decoded once when the window closes. Per symbol of the first
    block it keeps the decode draw (None on a link whose decode is certain)
    and the window offset of the symbol's last send; a delivered symbol is
    never sent again, so its draw is the delivering one."""

    def __init__(self, symbols: slice | np.ndarray, sent: np.ndarray, draws: np.ndarray | None):
        self.symbols, self.sent, self.draws = symbols, sent, draws
        self.offsets = None  # made by the first resend
        self.payloads: list[dict] = []  # each block's block_sent payload

    def resend(self, positions: np.ndarray, draws: np.ndarray | None):
        """Record a resend of the symbols at these positions of the first block."""
        if self.offsets is None:
            self.offsets = np.zeros(self.sent.size, dtype=np.intp)
        if draws is not None:
            self.draws[positions] = draws
        self.offsets[positions] = len(self.payloads)

    def close(self, queued: np.ndarray, erased: np.ndarray, link: Link, received, attempts) -> int:
        """Decode the window, write its decodes, erasure counts and each
        block's symbol_errors, and return its symbol errors. The symbols
        still queued, at positions queued (the last block's erased), were
        not delivered: they count no error."""
        code = link.certain_code
        if code is not None and self.offsets is None and not queued.size:
            # One block, every pair delivered: all symbols are wrong or none is.
            received[self.symbols] = self.sent ^ code
            errors = [self.sent.size if code else 0]
        else:
            if code is None:
                decoded = _sample(link.encoding_columns, self.sent, self.draws)
            else:  # what _sample gives on one-hot rows, for every draw
                decoded = self.sent ^ code
            received[self.symbols] = decoded
            wrong = decoded != self.sent
            wrong[queued] = False
            if self.offsets is None:
                errors = [int(np.count_nonzero(wrong))]
            else:  # a symbol last sent at offset k was erased by the k blocks before
                errors = np.bincount(self.offsets[wrong], minlength=len(self.payloads)).tolist()
                attempts[self.symbols] += self.offsets.astype(attempts.dtype)
        if erased.size:
            attempts[erased] += 1
        for payload, count in zip(self.payloads, errors):
            payload["symbol_errors"] = count
        return sum(errors)


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

    def _packed(self) -> np.ndarray:
        """The bits eight to a byte, high bit first, the pad bit cleared."""
        codes = self.codes
        if codes.size % 4:
            codes = np.concatenate((codes, np.zeros(-codes.size % 4, dtype=np.uint8)))
        packed = np.ascontiguousarray(codes).view("<u4") * _GATHER
        packed >>= 24
        packed = packed.astype(np.uint8)  # four codes to a byte
        if self.bit_count % 2:
            packed[-1] &= 0xFF ^ 0x80 >> self.bit_count % 8
        return packed

    def text(self) -> Unescaped:
        """The bits as a '0'/'1' string."""
        chars = np.unpackbits(self._packed(), count=self.bit_count)
        chars += 0x30  # ord("0")
        return Unescaped(chars.data, "ascii")

    def hex(self) -> Unescaped:
        """Hex digits of the bits, right-padded with zeros to whole nibbles."""
        return Unescaped(self._packed().data.hex()[: -(-self.bit_count // 4)])

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
    simulated elapsed time all land in the summary, the payload of the
    transcript's last event, ``session_complete`` or ``session_abort``.
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
    # Each block opens a window, unless the queue is the last block's erasures
    # alone: then it resends them in the open window, as does every block after.
    window, resend = None, False

    while cursor < total_symbols or backlog.size or requeued:
        if blocks_since_check >= config.redetect_every_blocks:
            session.transition("security_detection")
            round_start = session.time_s
            passed = run_security_detection(session, link, config)
            detection_photons += config.photons_per_round
            detection_time_total += session.time_s - round_start
            if not passed:
                break
            blocks_since_check = 0
        if resend:
            requeued = []
            n = queued.size
            erased_at, decode = _block_draws(rng, n, link)
            window.resend(queued, decode)
            queued = queued[erased_at]
        else:
            if window is not None:
                symbol_errors += window.close(queued, erased, link, received, attempts)
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
            n = sent.size
            queued, decode = _block_draws(rng, n, link)  # queued: positions in the window
            window = _Window(batch, sent, decode)
        erased = queued + start if isinstance(batch, slice) else batch[queued]
        session.time_s += n / symbol_rate
        transmissions += n
        erased_transmissions += erased.size
        window.payloads.append(session.log(  # symbol_errors is set when the window closes
            "block_sent", block_index=blocks_sent, erasures=erased.size, pairs=n, symbol_errors=None
        ))
        blocks_sent += 1
        blocks_since_check += 1
        resend = cursor == total_symbols and not backlog.size and not requeued
        if erased.size:
            requeued.append(erased)  # behind every queued symbol, in slot order
            # A block erases a symbol at most once, so none can be over the cap
            # before more blocks than the cap have been sent. attempts counts
            # erasures before the window, and its block at offset k makes k + 1.
            if blocks_sent > cap and (attempts[erased] >= cap - len(window.payloads) + 1).any():
                session.transition("aborted", reason="retransmission_cap")
                break
    else:
        session.transition("completed")
    if window is not None:
        symbol_errors += window.close(queued, erased, link, received, attempts)

    completed = session.phase == "completed"
    reason = session.abort_reason
    delivered_bits = delivered_hex = ber = None
    if completed:  # every symbol has arrived
        if bit_count % 2:
            received[-1] &= 2  # the decoded pad bit is no message bit
        got = MessageCodes(received, bit_count)
        delivered_bits, delivered_hex = got.text(), got.hex()
        # With no symbol decoded wrong no bit is: the pad bit only removes differences.
        ber = message.bit_errors(got) / bit_count if symbol_errors else 0.0
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
        "symbol_errors": symbol_errors,
        "transmissions": transmissions,
        "truncated_symbols": truncated,
    }
    session.log("session_complete" if completed else "session_abort", **summary)
    return session.transcript
