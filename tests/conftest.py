import json
import re
from enum import Enum

import numpy as np
import pytest

from qsdcnet.analysis import QberEstimate, qber_from_counts
from qsdcnet.errors import DomainError
from qsdcnet import protocol
from qsdcnet.qstate import BELL_ORDER, BellLabel
from qsdcnet.scenario import (
    Devices,
    DetectorSpec,
    EveKind,
    EveModel,
    FiberSpec,
    ModulatorSpec,
    NoiseParams,
    ProtocolConfig,
    SfgSpec,
    SourceSpec,
)
from qsdcnet.transcript import DetectionBatch, SessionTranscript

# The density-matrix model of the noisy pair: the oracle of the closed forms
# in ``qsdcnet.qstate`` and of the session's sampling tables. Density
# matrices live on the ordered product basis (ss, sl, ls, ll), where ``s``
# and ``l`` label the short and long interferometer paths of each photon.
# Single-qubit operators use the convention sigma_z = diag(1, -1) in (s, l)
# and sigma_x |s> = |l>.

HERMITICITY_TOL = 1e-12
TRACE_TOL = 1e-12
EIGENVALUE_TOL = 1e-10


class PauliEncoding(Enum):
    """Unitaries applied to the sender's qubit; member i encodes code i."""

    I = "I"
    SIGMA_Z = "sigma_z"
    SIGMA_X = "sigma_x"
    MINUS_I_SIGMA_Y = "minus_i_sigma_y"


_ID2 = np.eye(2, dtype=complex)
_SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)

_SQRT_HALF = 1.0 / np.sqrt(2.0)

# Basis order (ss, sl, ls, ll).
_BELL_VECTOR = {
    BellLabel.PHI_PLUS: np.array([1, 0, 0, 1], dtype=complex) * _SQRT_HALF,
    BellLabel.PHI_MINUS: np.array([1, 0, 0, -1], dtype=complex) * _SQRT_HALF,
    BellLabel.PSI_PLUS: np.array([0, 1, 1, 0], dtype=complex) * _SQRT_HALF,
    BellLabel.PSI_MINUS: np.array([0, -1, 1, 0], dtype=complex) * _SQRT_HALF,
}


class InvalidDensityMatrix(Exception):
    """A matrix that ``TwoQubitState`` refuses: not 4x4, not Hermitian, not
    of unit trace or not positive semidefinite."""


class TwoQubitState:
    """A validated 4x4 density matrix over the (ss, sl, ls, ll) basis."""

    __slots__ = ("rho",)

    def __init__(self, rho: np.ndarray):
        rho = np.asarray(rho, dtype=complex)
        if rho.shape != (4, 4):
            raise InvalidDensityMatrix(f"density matrix must be 4x4, got {rho.shape}")
        if np.max(np.abs(rho - rho.conj().T)) > HERMITICITY_TOL:
            raise InvalidDensityMatrix("density matrix is not Hermitian")
        trace = np.trace(rho).real
        if abs(trace - 1.0) > TRACE_TOL:
            raise InvalidDensityMatrix(f"density matrix trace is {trace}, expected 1")
        eigenvalues = np.linalg.eigvalsh(rho)
        if eigenvalues.min() < -EIGENVALUE_TOL:
            raise InvalidDensityMatrix(
                f"density matrix has negative eigenvalue {eigenvalues.min():.3e}"
            )
        rho = rho.copy()
        rho.flags.writeable = False
        object.__setattr__(self, "rho", rho)

    def __setattr__(self, name, value):
        raise AttributeError("TwoQubitState is immutable")


def bell_state(label: BellLabel) -> TwoQubitState:
    """Pure-state density matrix of the requested Bell state."""
    vector = _BELL_VECTOR[label]
    return TwoQubitState(np.outer(vector, vector.conj()))


def _dephase_qubit(rho: np.ndarray, qubit: int, q: float) -> np.ndarray:
    """Phase-flip channel with probability q on one qubit (0 = first)."""
    z = np.kron(_SIGMA_Z, _ID2) if qubit == 0 else np.kron(_ID2, _SIGMA_Z)
    return (1.0 - q) * rho + q * (z @ rho @ z)


def apply_noise(state: TwoQubitState, noise: NoiseParams) -> TwoQubitState:
    """Depolarizing + per-qubit dephasing + coherent phase offset.

    rho' = (1 - p) * D_q(rho) + p * I/4, where D_q phase-flips each qubit
    independently with probability q and then rotates the |ll> amplitude by
    phase_offset_rad (a diagonal unitary, so the ss<->ll coherence picks up
    the offset while populations are untouched).
    """
    rho = state.rho
    if noise.dephasing_q > 0.0:
        rho = _dephase_qubit(rho, 0, noise.dephasing_q)
        rho = _dephase_qubit(rho, 1, noise.dephasing_q)
    if noise.phase_offset_rad != 0.0:
        phase = np.exp(1j * noise.phase_offset_rad)
        unitary = np.diag([1.0, 1.0, 1.0, phase]).astype(complex)
        rho = unitary @ rho @ unitary.conj().T
    p = noise.depolarizing_p
    rho = (1.0 - p) * rho + p * np.eye(4, dtype=complex) / 4.0
    return TwoQubitState(rho)


def state_fidelity(state: TwoQubitState, target: BellLabel) -> float:
    """F = <b|rho|b> for the target Bell state, clamped to [0, 1]."""
    vector = _BELL_VECTOR[target]
    value = float((vector.conj() @ state.rho @ vector).real)
    return min(max(value, 0.0), 1.0)


def depolarizing_p_for_fidelity(target_fidelity: float) -> float:
    """Depolarizing strength whose Werner state has the given phi+ fidelity.

    Inverts F = 1 - 3p/4; only fidelities in [1/4, 1] are reachable.
    """
    if not 0.25 <= target_fidelity <= 1.0:
        raise DomainError(
            f"Werner fidelity must be in [0.25, 1], got {target_fidelity}"
        )
    return 4.0 * (1.0 - target_fidelity) / 3.0


def _analyzer_vector(phase: float) -> np.ndarray:
    return np.array([1.0, np.exp(1j * phase)], dtype=complex) * _SQRT_HALF


def fringe_coincidence(state: TwoQubitState, phase_a: float, phase_b: float) -> float:
    """Joint projection probability onto the two phase analyzers.

    Each analyzer projects its photon onto (|s> + e^{i phi}|l>)/sqrt(2); for
    a pure phi+ state the result is (1 + cos(phase_a + phase_b))/4.
    """
    analyzer = np.kron(_analyzer_vector(phase_a), _analyzer_vector(phase_b))
    value = float((analyzer.conj() @ state.rho @ analyzer).real)
    return min(max(value, 0.0), 1.0)


def fidelity_table_oracle(noise: NoiseParams) -> list[dict]:
    """The report's ``fidelity_table`` from density matrices, row by row."""
    return [
        {
            "bell_state": label.name.lower(),
            "fidelity": state_fidelity(apply_noise(bell_state(label), noise), label),
        }
        for label in BELL_ORDER
    ]


def random_density_matrix(seed: int) -> TwoQubitState:
    """A random valid two-qubit density matrix (Ginibre construction)."""
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    rho = a @ a.conj().T
    return TwoQubitState(rho / np.trace(rho).real)


def bell_diagonal(state: TwoQubitState) -> dict[BellLabel, float]:
    """Probabilities of each Bell-basis projection, <b|rho|b>."""
    return {label: state_fidelity(state, label) for label in BELL_ORDER}


def maximally_mixed() -> TwoQubitState:
    return TwoQubitState(np.eye(4, dtype=complex) / 4.0)


def purity(state: TwoQubitState) -> float:
    return float(np.trace(state.rho @ state.rho).real)


_ENCODING_MATRIX = {
    PauliEncoding.I: _ID2,
    PauliEncoding.SIGMA_Z: np.array([[1, 0], [0, -1]], dtype=complex),
    PauliEncoding.SIGMA_X: np.array([[0, 1], [1, 0]], dtype=complex),
    PauliEncoding.MINUS_I_SIGMA_Y: np.array([[0, -1], [1, 0]], dtype=complex),
}


def apply_encoding(state: TwoQubitState, encoding: PauliEncoding) -> TwoQubitState:
    """Apply the encoding unitary to the first (sender's) qubit.

    On bell_state(PHI_PLUS) the four encodings produce phi+, phi-, psi+ and
    psi- respectively, matching the 2-bit code table.
    """
    unitary = np.kron(_ENCODING_MATRIX[encoding], _ID2)
    return TwoQubitState(unitary @ state.rho @ unitary.conj().T)


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
    out = np.zeros_like(rho)
    for vector in _BASIS_STATES[basis]:
        p = _projector(vector)
        full = np.kron(p, _ID2) if qubit == 0 else np.kron(_ID2, p)
        out += full @ rho @ full
    return out


def detection_branch_cumulative_oracle(noise: NoiseParams) -> np.ndarray:
    """``protocol._detection_branch_cumulative`` from 4x4 density matrices.

    The noisy phi+ pair, Eve's measure-and-resend on Bob's qubit and each
    joint (alice, bob) outcome's projector, traced one at a time.
    """
    rho = apply_noise(bell_state(BellLabel.PHI_PLUS), noise).rho
    states = {0: rho}
    states[1] = _nonselective_measure_qubit(rho, 1, "Z")
    states[2] = _nonselective_measure_qubit(rho, 1, "X")
    table = np.zeros((2, 3, 4))
    for bob_index, basis in enumerate(("Z", "X")):
        vectors = _BASIS_STATES[basis]
        for eve_action, state in states.items():
            joint = []
            for a in (0, 1):
                for b in (0, 1):
                    measurement = np.kron(_projector(vectors[a]), _projector(vectors[b]))
                    joint.append(float(np.trace(measurement @ state).real))
            probs = np.clip(np.array(joint), 0.0, None)
            table[bob_index, eve_action] = np.cumsum(probs / probs.sum())
    table[..., -1] = 1.0
    return table


def encoding_cumulative_oracle(noise: NoiseParams, eve: EveModel) -> np.ndarray:
    """``protocol._encoding_cumulative`` from 4x4 density matrices.

    Each encoding unitary and Eve's Z/X measure-and-resend act on the noisy
    pair's matrix; the row is the result's Bell-basis diagonal.
    """
    base = apply_noise(bell_state(BellLabel.PHI_PLUS), noise)
    table = np.zeros((4, 4))
    for code, encoding in enumerate(PauliEncoding):
        rho = apply_encoding(base, encoding).rho
        if eve.kind is EveKind.INTERCEPT_RESEND and eve.fraction > 0.0:
            dephased = 0.5 * (
                _nonselective_measure_qubit(rho, 0, "Z")
                + _nonselective_measure_qubit(rho, 0, "X")
            )
            rho = (1.0 - eve.fraction) * rho + eve.fraction * dephased
        diag = bell_diagonal(TwoQubitState(rho))
        diagonal = np.array([diag[label] for label in BELL_ORDER])
        table[code] = np.cumsum(diagonal / diagonal.sum())
    table[:, -1] = 1.0
    return table


def sfg_bsm(
    state: TwoQubitState, spec: SfgSpec, rng: np.random.Generator
) -> BellLabel | None:
    """Scalar Bell-state measurement through sum-frequency generation.

    The per-pair oracle for the vectorized block path in
    ``transmit_and_decode_block``. With probability
    conversion_efficiency the pair converts and the outcome is sampled from
    the Bell-basis diagonal of the state, so all four labels are
    distinguishable in a single shot; otherwise the pair is erased and None
    is returned. Misidentification enters only through state noise.
    """
    if rng.random() >= spec.conversion_efficiency:
        return None
    diagonal = bell_diagonal(state)
    weights = np.array([diagonal[label] for label in BELL_ORDER])
    weights = weights / weights.sum()
    draw = rng.random()
    cumulative = np.cumsum(weights)
    index = int(np.searchsorted(cumulative, draw, side="right"))
    return BELL_ORDER[min(index, 3)]


def qber_from_transcript(records) -> QberEstimate:
    """Scalar QBER estimate from detection records, one at a time.

    The per-record oracle for the counts that ``transcript.DetectionBatch``
    takes with array ops. A record is the payload of one
    ``detection_record`` transcript line: a dict with ``basis`` ("Z" or
    "X"), ``alice_outcome`` and ``bob_outcome``.
    """
    n_z = errors_z = n_x = errors_x = 0
    for record in records:
        mismatch = record["alice_outcome"] != record["bob_outcome"]
        if record["basis"] == "Z":
            n_z += 1
            errors_z += mismatch
        elif record["basis"] == "X":
            n_x += 1
            errors_x += mismatch
        else:
            raise DomainError(f"unknown basis {record['basis']!r}")
    return qber_from_counts(n_z, errors_z, n_x, errors_x)


def bits_to_hex_oracle(bits: str) -> str:
    """Hex of a bitstring through one Python int.

    The reference for ``protocol.MessageCodes.hex``, which packs codes with
    numpy.
    """
    if not bits:
        return ""
    # int() alone would also take a sign, a 0b prefix, underscores and spaces.
    if not bits.isdecimal():
        raise ValueError(f"not a bitstring: {bits[:32]!r}")
    padded = bits + "0" * (-len(bits) % 4)
    return format(int(padded, 2), f"0{len(padded) // 4}x")


# The hex digits a message may hold: the oracle of ``scenario.hex_bytes``,
# which MessageSpec checks with. [0-9], unlike \d, admits no other script's
# digits; fullmatch, unlike a trailing $, rejects a trailing newline.
HEX_DIGITS = re.compile("[0-9a-fA-F]+")


def hex_to_bits_oracle(hex_string: str, bit_length: int | None = None) -> str:
    """Bitstring of a hex string through one Python int.

    The reference for the codes of a hex ``scenario.MessageSpec``, which
    splits its bytes into codes with numpy.
    """
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


def bit_values_oracle(bits: str) -> np.ndarray:
    """The ``uint8`` array of a bitstring, one 0 or 1 per character."""
    # "replace" turns every non-ASCII character into "?", which is no bit.
    values = np.frombuffer(bits.encode("ascii", "replace"), dtype=np.uint8) - ord("0")
    if np.any(values > 1):
        raise DomainError("message bits must contain only 0 and 1")
    return values


def codes_from_bits(bits: str) -> protocol.MessageCodes:
    """The MessageCodes of a '0'/'1' string, such as a session's message."""
    return protocol.MessageCodes.from_bit_values(bit_values_oracle(bits))


def pack_codes_oracle(bits: np.ndarray) -> np.ndarray:
    """The 2-bit codes of a bit array: code i is bits[2i] << 1 | bits[2i + 1],
    an odd count padded with one 0 bit.

    The reference for ``protocol.MessageCodes``, which scenario messages
    build without a bit array.
    """
    codes = bits[0::2] << 1
    codes[: bits.size // 2] |= bits[1::2]
    return codes


def sample_oracle(table: np.ndarray, rows: np.ndarray, draws: np.ndarray) -> np.ndarray:
    """Inverse-CDF sampling against whole rows of a cumulative table.

    The reference for ``protocol._sample``, which compares one column at a
    time: per draw, ``np.searchsorted(row, draw, side="right")``, the number
    of entries of its sorted row that are at most the draw.
    """
    return (table[rows] <= draws[:, None]).sum(axis=1)


def security_detection_oracle(
    session: protocol.Session,
    link: protocol.Link,
    config: ProtocolConfig,
) -> bool:
    """``protocol.run_security_detection`` with Eve's rows from
    ``np.where``, the counts from six array operations and the idler delay
    from the old ``delay_control``.

    The reference for the detection round of ``run_qsdc_oracle``: the same
    draws in the same order, so the same transcript events and verdict.
    """
    rng = session.rng
    num_photons = config.photons_per_round
    decrease_factor = config.photon_decrease_factor
    tdm_slot_s = config.tdm_slot_s
    if num_photons < 1:
        raise DomainError(f"num_photons must be >= 1, got {num_photons}")
    if not 0.0 <= decrease_factor <= 1.0:
        raise DomainError(f"decrease_factor must be in [0, 1], got {decrease_factor}")
    if tdm_slot_s < 0:
        raise DomainError(f"slot_s must be >= 0, got {tdm_slot_s}")
    eve = link.eve
    rate_hz = link.devices.modulator.rate_hz
    expected = num_photons * link.eta_alice * link.eta_bob  # lossless-eavesdropper budget

    session.log("detection_start", photons_sent=num_photons)
    send_start = session.time_s
    session.time_s += num_photons / rate_hz
    alice_delay_s = num_photons * tdm_slot_s

    surviving = np.flatnonzero(rng.random(num_photons) < link.p_record)
    n = surviving.size
    qber = None
    if n:
        bob_basis = rng.integers(0, 2, n)
        if eve.kind is EveKind.INTERCEPT_RESEND and eve.fraction > 0.0:
            intercepted = rng.random(n) < eve.fraction
            eve_basis = rng.integers(0, 2, n)
            eve_action = np.where(intercepted, 1 + eve_basis, 0)
        else:
            eve_action = np.zeros(n, dtype=int)
        table = protocol._detection_branch_cumulative(link.devices.source.noise)
        joint = sample_oracle(table.reshape(6, 4), 3 * bob_basis + eve_action, rng.random(n))
        batch = DetectionBatch(
            send_start_s=send_start,
            slot_s=1.0 / rate_hz,
            positions=surviving,
            outcomes=4 * bob_basis + joint,
        )
        wrong = (joint >> 1) != (joint & 1)
        in_x = bob_basis == 1
        n_x = int(np.count_nonzero(in_x))
        errors_x = int(np.count_nonzero(wrong & in_x))
        errors_z = int(np.count_nonzero(wrong)) - errors_x
        counts = (n - n_x, errors_z, n_x, errors_x)
        session.transcript.events.append(batch)
        qber = qber_from_counts(*counts)

    if n < config.min_samples:
        passed, reason = False, "insufficient_detection_samples"
    elif n < decrease_factor * expected:
        passed, reason = False, "photon_count_drop"
    elif qber.e >= config.qber_threshold:
        passed, reason = False, "qber_threshold_exceeded"
    else:
        passed, reason = True, None

    session.log(
        "detection_result",
        alice_delay_s=alice_delay_s,
        expected_detected=expected,
        passed=passed,
        photons_detected=int(n),
        photons_sent=num_photons,
        qber=qber.to_dict() if qber else None,
        reason=reason,
    )
    session.transition("block_transmission" if passed else "aborted", reason=reason)
    return passed


def detection_payload(session: protocol.Session) -> dict:
    """The payload of the session's last ``detection_result`` event, whose
    ``qber`` is the round's ``QberEstimate`` (or None) until it is written."""
    return next(
        event["payload"] for event in reversed(session.transcript.events)
        if isinstance(event, dict) and event["event_kind"] == "detection_result"
    )


def transmit_and_decode_block(
    codes: np.ndarray, link: protocol.Link, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Send one block of 2-bit codes through the channel and decode it at Bob.

    The block path of ``run_qsdc_oracle``, which ``protocol.run_qsdc``
    splits: it draws each block at once and decodes once per resend window.
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
    return draws[:n] < link.p_deliver, protocol._sample(link.encoding_columns, codes, draws[n:])


def run_qsdc_oracle(
    message_bits: str,
    devices: Devices,
    eve: EveModel,
    config: ProtocolConfig,
    rng: np.random.Generator,
) -> SessionTranscript:
    """``protocol.run_qsdc`` with a whole-message index queue and the
    message as a bit array.

    The reference for the session loop: a FIFO ``np.arange`` over every
    symbol, the erased arrays merged behind it when it runs short of a
    block, and per block a gather of the sent codes and a scatter of the
    delivered decodes through the index array. Detection rounds run in
    ``security_detection_oracle``. Finalize unpacks the received codes into
    bits, and the BER leaves out the pad bit of an odd-length message.
    """
    if not message_bits:
        raise DomainError("message must be non-empty")
    bits = bit_values_oracle(message_bits)

    session = protocol.Session(rng)
    session.log("session_start", message_length=len(message_bits))
    link = protocol.Link(devices, eve)

    codes = pack_codes_oracle(bits)
    total_symbols = codes.size
    # FIFO queue of symbol indices: pending, then the requeued arrays in the
    # order they were erased, merged only when pending runs short of a block.
    pending = np.arange(total_symbols)
    requeued: list[np.ndarray] = []
    attempts = np.zeros(total_symbols, dtype=int)
    received = np.zeros(total_symbols, dtype=np.uint8)

    symbol_rate = min(devices.modulator.rate_hz, devices.sfg.max_rate_hz)
    detection_photons = 0
    detection_time_total = 0.0
    transmissions = 0
    erased_transmissions = 0
    symbol_errors = 0
    blocks_sent = 0
    # Detection gates the first block and every redetect_every_blocks-th after it.
    blocks_since_check = config.redetect_every_blocks

    while pending.size:
        if blocks_since_check >= config.redetect_every_blocks:
            session.transition("security_detection")
            start = session.time_s
            passed = security_detection_oracle(session, link, config)
            detection_photons += config.photons_per_round
            detection_time_total += session.time_s - start
            if not passed:
                break
            blocks_since_check = 0
        # A copy, so that the last batch does not keep the first queue array alive.
        batch, pending = pending[: config.block_size].copy(), pending[config.block_size :]
        sent = codes[batch]
        delivered, decoded = transmit_and_decode_block(sent, link, rng)
        session.time_s += batch.size / symbol_rate
        transmissions += batch.size
        erased = batch[~delivered]
        erased_transmissions += erased.size
        attempts[erased] += 1
        # Erased symbols rejoin the back of the queue in slot order.
        requeued.append(erased)
        if pending.size < config.block_size:
            pending = np.concatenate((pending, *requeued))
            requeued.clear()
        got = decoded[delivered]
        received[batch[delivered]] = got
        block_errors = int(np.count_nonzero(got != sent[delivered]))
        symbol_errors += block_errors
        session.log(
            "block_sent",
            block_index=blocks_sent,
            erasures=erased.size,
            pairs=batch.size,
            symbol_errors=block_errors,
        )
        blocks_sent += 1
        blocks_since_check += 1
        if erased.size and attempts[erased].max() > config.max_retransmissions:
            session.transition("aborted", reason="retransmission_cap")
            break
    else:
        session.transition("completed")

    completed = session.phase == "completed"
    reason = session.abort_reason
    delivered_bits = delivered_hex = ber = None
    if completed:  # every symbol has arrived
        got_bits = np.column_stack((received >> 1, received & 1)).ravel()[: bits.size]
        delivered_bits = (got_bits + ord("0")).tobytes().decode()
        delivered_hex = bits_to_hex_oracle(delivered_bits)
        ber = int(np.count_nonzero(got_bits != bits)) / bits.size
    erasure_fraction = erased_transmissions / transmissions if transmissions else 0.0
    block_time = transmissions / symbol_rate
    total_time = detection_time_total + block_time
    overhead_fraction = detection_time_total / total_time if total_time else 0.0
    # A completed session has no symbol over the cap.
    truncated = [] if completed else np.flatnonzero(attempts > config.max_retransmissions).tolist()
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
        "message_length": len(message_bits),
        "overhead_fraction": overhead_fraction,
        "symbol_errors": symbol_errors,
        "transmissions": transmissions,
        "truncated_symbols": truncated,
    }
    session.log("session_complete" if completed else "session_abort", **summary)
    return session.transcript


def make_devices(
    fiber_km: float = 0.0,
    attenuation: float = 0.2,
    efficiency: float = 1.0,
    conversion: float = 1.0,
    sfg_max_hz: float = 1e5,
    mod_rate_hz: float = 1e5,
    noise: NoiseParams | None = None,
    dark_hz: float = 0.0,
) -> Devices:
    """Device suite with one knob per common test axis."""
    return Devices(
        alice_fiber=FiberSpec(fiber_km, attenuation),
        bob_fiber=FiberSpec(fiber_km, attenuation),
        detector=DetectorSpec(efficiency, dark_hz),
        sfg=SfgSpec(conversion, sfg_max_hz),
        modulator=ModulatorSpec(mod_rate_hz),
        source=SourceSpec(1e6, noise or NoiseParams()),
    )


@pytest.fixture
def ideal_devices() -> Devices:
    return make_devices()


# (errors, trials) -> (ci_low, ci_high) for every count that the golden run
# cases (tests/test_golden.py) and the cold-start intercept-resend run
# (tests/test_scenario_cli.py) write, as written while interior bounds came
# from scipy.special.betaincinv (scipy 1.17.1) and the k = 0 bound from
# 1 - (alpha / 2) ** (1 / n).
SCIPY_ERA_INTERVALS = {
    (0, 700): (0.0, 0.005255966608486484),
    (0, 962): (0.0, 0.003827251359849959),
    (0, 981): (0.0, 0.0037532644703744955),
    (0, 984): (0.0, 0.0037418430264146707),
    (0, 1000): (0.0, 0.00368208389686564),
    (0, 1002): (0.0, 0.003674747948320456),
    (0, 1005): (0.0, 0.0036637986709135983),
    (0, 1019): (0.0, 0.003613552946213572),
    (0, 1022): (0.0, 0.0036029647798228037),
    (0, 1027): (0.0, 0.0035854550529812457),
    (0, 1033): (0.0, 0.003564666726082577),
    (0, 1039): (0.0, 0.0035441180691312413),
    (0, 1041): (0.0, 0.003537321061799603),
    (0, 1053): (0.0, 0.0034970802794669353),
    (0, 1054): (0.0, 0.003493768169262723),
    (0, 1095): (0.0, 0.0033631715105562066),
    (0, 1566): (0.0, 0.002352834029249129),
    (0, 5000): (0.0, 0.0007375038011081525),
    (0, 6000): (0.0, 0.0006146242834176308),
    (0, 6224): (0.0, 0.0005925106837912919),
    (0, 9093): (0.0, 0.00040560115436594213),
    (5, 64): (0.025853840167968132, 0.17297832900420762),
    (31, 1000): (0.021158171970208632, 0.043715085006238906),
    (75, 1000): (0.059446128211263154, 0.09310844696149914),
    (151, 1000): (0.12936136200265355, 0.17471546603819102),
    (236, 1000): (0.2099908387686157, 0.2635732048664238),
}


# The relative distance within which each written interval value must lie of
# its scipy-era value.
SCIPY_ERA_RTOL = 1e-11


def _scipy_era_qber(qber: dict) -> dict:
    """A written qber object with the scipy-era interval of its counts."""
    trials = qber["n_x"] + qber["n_z"]
    old = SCIPY_ERA_INTERVALS[round(qber["e"] * trials), trials]
    new = (qber["ci_low"], qber["ci_high"])
    for old_value, new_value in zip(old, new):
        assert old_value == pytest.approx(new_value, rel=SCIPY_ERA_RTOL, abs=0.0)
    return {**qber, "ci_low": old[0], "ci_high": old[1]}


def report_with_scipy_era_intervals(report: dict) -> dict:
    """The report with its qber interval put back to the scipy-era values."""
    if report["qber"] is None:
        return report
    return {**report, "qber": _scipy_era_qber(report["qber"])}


def transcript_with_scipy_era_intervals(text: str) -> str:
    """The transcript text with every detection_result interval put back to
    the scipy-era values; every other line is left as it is."""
    lines = text.splitlines(keepends=True)
    for index, line in enumerate(lines):
        if '"event_kind": "detection_result"' not in line:
            continue
        event = json.loads(line)
        assert json.dumps(event) + "\n" == line  # the line is the event's json.dumps
        if event["payload"].get("qber") is not None:
            event["payload"]["qber"] = _scipy_era_qber(event["payload"]["qber"])
            lines[index] = json.dumps(event) + "\n"
    return "".join(lines)
