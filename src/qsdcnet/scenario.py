"""Scenario configuration: the schema, parsing, validation, canonical form and digest.

Scenarios are JSON documents whose schema is the frozen config dataclasses
themselves, all defined here but ``netplan.Topology``: each section is one
dataclass and each key one of its fields, with explicit units in the field
name (length_km, rate_hz, ...) so a value can never be mistaken for the
wrong unit. A field with no default is required, and a section is optional
when every field of its class has a default. Bounds live in each
dataclass's ``__post_init__``, and none of this needs numpy, so a bad
scenario is rejected before numpy loads. The canonical form sorts keys,
which makes the digest stable under field reordering in the input file.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import json
import math
import types
import typing
from dataclasses import dataclass
from functools import cached_property

from .errors import MAX_RATE_HZ, MIN_RATE_HZ, DomainError, QsdcError, ScenarioError, check_range
from .netplan import Topology

if typing.TYPE_CHECKING:
    import numpy as np

    from .protocol import MessageCodes

# Distinct RNG streams derived from the scenario seed.
_MESSAGE_STREAM = 0x6D65
_SESSION_STREAM = 0x7365
_FRINGE_STREAM = 0xF21


def stream_rng(seed: int, stream: int) -> np.random.Generator:
    """The generator of ``default_rng([seed, stream])`` for a 64-bit seed and
    a 32-bit stream, from one integer: SeedSequence reads both as the same
    32-bit words, the seed's one or two and then the stream's, and an integer
    skips numpy's coercion of a list."""
    import numpy as np

    return np.random.default_rng(seed | stream << (32 if seed < 2**32 else 64))


@dataclass(frozen=True)
class FiberSpec:
    length_km: float
    attenuation_db_per_km: float = 0.2

    def __post_init__(self):
        check_range("length_km", self.length_km, 0)
        check_range("attenuation_db_per_km", self.attenuation_db_per_km, 0)


@dataclass(frozen=True)
class DetectorSpec:
    efficiency: float
    dark_count_rate_hz: float = 0.0
    coincidence_window_s: float = 1e-9

    def __post_init__(self):
        check_range("efficiency", self.efficiency, 0, 1)
        check_range("dark_count_rate_hz", self.dark_count_rate_hz, 0)
        check_range("coincidence_window_s", self.coincidence_window_s, 0)


@dataclass(frozen=True)
class SfgSpec:
    conversion_efficiency: float
    max_rate_hz: float = 1e5

    def __post_init__(self):
        check_range("conversion_efficiency", self.conversion_efficiency, 0, 1)
        check_range("max_rate_hz", self.max_rate_hz, MIN_RATE_HZ, MAX_RATE_HZ)


@dataclass(frozen=True)
class ModulatorSpec:
    rate_hz: float

    def __post_init__(self):
        check_range("rate_hz", self.rate_hz, MIN_RATE_HZ, MAX_RATE_HZ)


@dataclass(frozen=True)
class NoiseParams:
    """Calibration knobs for the source/channel noise model.

    depolarizing_p mixes in the maximally mixed state, dephasing_q applies an
    independent phase flip to each qubit with that probability, and
    phase_offset_rad rotates the ss<->ll coherence by a fixed angle.
    """

    depolarizing_p: float = 0.0
    dephasing_q: float = 0.0
    phase_offset_rad: float = 0.0

    def __post_init__(self):
        check_range("depolarizing_p", self.depolarizing_p, 0, 1)
        check_range("dephasing_q", self.dephasing_q, 0, 1)
        offset = self.phase_offset_rad  # finite: only nan and the infinities are out
        check_range("phase_offset_rad", offset, -math.inf, math.inf, open_low=True, open_high=True)


@dataclass(frozen=True)
class SourceSpec:
    pair_rate_hz: float
    noise: NoiseParams = dataclasses.field(default_factory=NoiseParams)  # the heralded pairs' noise

    def __post_init__(self):
        check_range("pair_rate_hz", self.pair_rate_hz, 0)


@dataclass(frozen=True)
class Devices:
    """The full device suite one session runs over."""

    alice_fiber: FiberSpec
    bob_fiber: FiberSpec
    detector: DetectorSpec
    sfg: SfgSpec
    modulator: ModulatorSpec
    source: SourceSpec


class EveKind(enum.Enum):
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
        check_range("fraction", self.fraction, 0, 1)


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
        check_range("qber_threshold", self.qber_threshold, 0, 0.5, open_low=True, open_high=True)
        check_range("min_samples", self.min_samples, 1)
        check_range("block_size", self.block_size, 1, MAX_BLOCK_SIZE)
        if self.detection_size is not None:
            check_range("detection_size", self.detection_size, 1, MAX_DETECTION_SIZE)
        check_range("redetect_every_blocks", self.redetect_every_blocks, 1)
        check_range("max_retransmissions", self.max_retransmissions, 0)
        check_range("photon_decrease_factor", self.photon_decrease_factor, 0, 1)
        check_range("tdm_slot_s", self.tdm_slot_s, 0, 1)

    @property
    def photons_per_round(self) -> int:
        """A detection round's photons: detection_size, or by default 10% of a block."""
        if self.detection_size is None:
            return max(1, self.block_size // 10)
        return self.detection_size


# A generated message's bits size its arrays and the session.
MAX_RANDOM_BITS = 10**7


class Unescaped(str):
    """A string that json writes as '"' + s + '"', escaping nothing, which
    ``transcript.spliced_pieces`` writes without json's scan. Made only from
    the alphabets 0/1 and 0-9a-f (``MessageCodes.text`` and ``hex``) and
    from hex digits that ``hex_bytes`` has accepted (``MessageSpec``)."""

    @cached_property
    def utf8(self) -> bytes:
        """The string's UTF-8 bytes, made once however often it is written."""
        return self.encode()


def hex_bytes(hex_string: str) -> bytes | None:
    """The bytes of ASCII hex digits, an odd count padded with a 0; None for any other string."""
    padded = hex_string + "0" * (len(hex_string) % 2)
    try:
        raw = bytes.fromhex(padded)  # which rejects any non-ASCII character
    except ValueError:
        return None
    # fromhex skips whitespace, which leaves fewer bytes than digit pairs.
    return raw if 2 * len(raw) == len(padded) else None


@dataclass(frozen=True)
class MessageSpec:
    """Either an explicit hex payload, optionally cut to its first bit_length
    bits, or a generated random bitstring."""

    hex: str | None = None
    bit_length: int | None = None
    random_bits: int | None = None

    def __post_init__(self):
        if (self.hex is None) == (self.random_bits is None):
            raise DomainError("provide exactly one of 'hex' or 'random_bits'")
        if self.random_bits is not None:
            check_range("random_bits", self.random_bits, 1, MAX_RANDOM_BITS)
            if self.bit_length is not None:
                raise DomainError("bit_length applies only to a hex message")
            return
        raw = hex_bytes(self.hex) if self.hex else None
        if raw is None:
            raise DomainError("hex must be a non-empty hexadecimal string")
        if self.bit_length is not None:
            check_range("bit_length", self.bit_length, 1, 4 * len(self.hex))
        object.__setattr__(self, "hex", Unescaped(self.hex))  # hex digits, checked
        object.__setattr__(self, "_hex_bytes", raw)  # parsed once, for _codes

    @cached_property
    def _codes(self) -> MessageCodes:
        """A hex message's codes, made once and shared by every session, so read-only."""
        from .protocol import MessageCodes

        codes = MessageCodes.from_bytes(self._hex_bytes, self.bit_length or 4 * len(self.hex))
        codes.codes.flags.writeable = False
        return codes

    def resolve(self, seed: int) -> MessageCodes:
        if self.hex is not None:
            return self._codes
        from .protocol import MessageCodes

        rng = stream_rng(seed, _MESSAGE_STREAM)
        return MessageCodes.from_bit_values(rng.integers(0, 2, self.random_bits))


@dataclass(frozen=True)
class Scenario:
    seed: int
    topology: Topology
    devices: Devices
    protocol: ProtocolConfig
    eve: EveModel
    message: MessageSpec

    def __post_init__(self):
        if not 0 <= self.seed < 2**64:
            raise DomainError(f"seed must be a 64-bit unsigned integer, got {self.seed}")

    def message_bits(self) -> MessageCodes:
        """The message's bits, as the 2-bit codes a session sends."""
        return self.message.resolve(self.seed)

    def session_rng(self) -> np.random.Generator:
        return stream_rng(self.seed, _SESSION_STREAM)

    def fringe_rng(self) -> np.random.Generator:
        return stream_rng(self.seed, _FRINGE_STREAM)

    def _canonical_pieces(self) -> list[str]:
        from .transcript import spliced_pieces

        return spliced_pieces(self.to_dict(), sort_keys=True, separators=(",", ":"))

    def canonical_json(self) -> str:
        return "".join(self._canonical_pieces())

    def digest(self) -> str:
        """The SHA-256 of the canonical JSON's UTF-8 bytes, fed piece by piece."""
        from .transcript import encoded

        sha = hashlib.sha256()
        for chunk in encoded(self._canonical_pieces()):
            sha.update(chunk)
        return sha.hexdigest()

    def to_dict(self) -> dict:
        return _write(self)


class _Field(typing.NamedTuple):
    name: str
    kind: type  # float, int, str, an Enum, or a config dataclass
    required: bool
    section: bool  # kind is a config dataclass


# Each config dataclass's fields by attribute name, built once at import.
_TABLE: dict[type, dict[str, _Field]] = {}


def _add_to_table(cls) -> None:
    hints = typing.get_type_hints(cls)
    fields = {}
    for field in dataclasses.fields(cls):
        kind = hints[field.name]
        if isinstance(kind, types.UnionType):  # X | None
            (kind,) = set(typing.get_args(kind)) - {type(None)}
        section = dataclasses.is_dataclass(kind)
        if section and kind not in _TABLE:
            _add_to_table(kind)
        required = (
            field.default is dataclasses.MISSING
            and field.default_factory is dataclasses.MISSING
            and (not section or any(f.required for f in _TABLE[kind].values()))
        )
        fields[field.name] = _Field(field.name, kind, required, section)
    _TABLE[cls] = fields


_add_to_table(Scenario)


def _label(path: tuple, *keys: str) -> str:
    """The dotted path of a field, or 'scenario' for the document itself."""
    return ".".join((*path, *keys)) or "scenario"


def _scalar(kind: type, value):
    """One JSON scalar as ``kind``: int->float, integral float->int, no bools.
    Its ScenarioError holds no path; the caller prefixes it."""
    if issubclass(kind, enum.Enum):
        try:
            return kind(value)
        except ValueError:
            choices = ", ".join(member.value for member in kind)
            raise ScenarioError(f"must be one of {choices}, got {value!r}") from None
    if kind is float and isinstance(value, int) and not isinstance(value, bool):
        try:
            value = float(value)
        except OverflowError:
            raise ScenarioError("too large for a float") from None
    if kind is int and isinstance(value, float) and value.is_integer():
        value = int(value)
    if not isinstance(value, kind) or isinstance(value, bool):
        raise ScenarioError(f"expected {kind.__name__}, got {type(value).__name__}")
    # JSON parsing admits NaN and Infinity, which no range check catches.
    if kind is float and not math.isfinite(value):
        raise ScenarioError(f"must be finite, got {value}")
    return value


def _read(cls: type, data, path: tuple = (), base=None):
    """Build ``cls`` from one JSON object, or, given ``base``, the instance
    with the fields the object holds replaced, each section read against
    base's own: one constructor call either way. Only the given keys are
    read, and an error's dotted path is formatted only when it is raised."""
    if not isinstance(data, dict):
        raise ScenarioError(f"{_label(path)}: expected an object")
    if None in data:  # a key the file holds twice, kept by _object
        raise ScenarioError(f"{_label(path, data[None])}: duplicate key")
    fields = _TABLE[cls]
    for key in data:
        if key not in fields:
            raise ScenarioError(f"{_label(path, key)}: unknown field")
    values = {}
    for name, kind, required, section in fields.values():
        if name in data:
            value = data[name]
        elif base is not None:
            values[name] = getattr(base, name)  # base keeps its value
            continue
        elif required:
            what = "section" if section else "field"
            raise ScenarioError(f"{_label(path, name)}: missing required {what}")
        elif not section:
            continue  # the dataclass default applies
        else:
            value = {}
        if section:
            values[name] = _read(kind, value, (*path, name), base and getattr(base, name))
        else:
            try:
                values[name] = _scalar(kind, value)
            except ScenarioError as exc:
                raise ScenarioError(f"{_label(path, name)}: {exc}") from None
    try:
        return cls(**values)
    except QsdcError as exc:
        # A message that starts with a field's name is about that field.
        name, _, rest = str(exc).partition(" ")
        if name in fields:
            raise ScenarioError(f"{_label(path, name)}: {rest}") from exc
        raise ScenarioError(f"{_label(path)}: {exc}") from exc


def _write(obj) -> dict:
    doc = {}
    values = obj.__dict__
    for name, _, _, section in _TABLE[type(obj)].values():
        value = values[name]
        if value is None:
            continue
        if section:
            doc[name] = _write(value)
        else:
            # isinstance against builtins is cheaper than against Enum.
            doc[name] = value if isinstance(value, (float, int, str)) else value.value
    return doc


def scenario_from_dict(data: dict) -> Scenario:
    """Validate a scenario dictionary and build the typed Scenario."""
    return _read(Scenario, data)


def replace_entries(base: Scenario, entries: dict) -> Scenario:
    """The Scenario, or the ScenarioError, that scenario_from_dict gives for
    ``base.to_dict()`` with the entries merged in at every depth, reading
    only the entries given: ``{"eve": {"fraction": v}}`` replaces one leaf."""
    return _read(Scenario, entries, (), base)


def _object(pairs: list) -> dict:
    """A JSON object's dict, with a key it holds twice under None (no JSON key) for _read."""
    data = dict(pairs)
    if len(data) < len(pairs):
        data[None] = next(key for i, (key, _) in enumerate(pairs) if key in dict(pairs[:i]))
    return data


def load_scenario(path: str) -> Scenario:
    """Parse and validate a scenario file, with line-precise parse errors."""
    try:
        with open(path, encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise ScenarioError(f"{path}: {exc.strerror or exc}") from exc
    except UnicodeDecodeError as exc:
        raise ScenarioError(f"{path}: not UTF-8 text (byte {exc.start}: {exc.reason})") from exc
    try:
        data = json.loads(text, object_pairs_hook=_object)
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from exc
    try:
        return scenario_from_dict(data)
    except ScenarioError as exc:
        raise ScenarioError(f"{path}: {exc}") from exc


def ideal_scenario_dict(
    seed: int = 1,
    message_hex: str = "a5" * 16,
    message_bit_length: int | None = None,
) -> dict:
    """A lossless, noiseless configuration; useful as a test baseline."""
    lossless = FiberSpec(length_km=0.0)
    return Scenario(
        seed=seed,
        topology=Topology(),
        devices=Devices(
            alice_fiber=lossless,
            bob_fiber=lossless,
            detector=DetectorSpec(efficiency=1.0),
            sfg=SfgSpec(conversion_efficiency=1.0),
            modulator=ModulatorSpec(rate_hz=1e5),
            source=SourceSpec(pair_rate_hz=1e6),
        ),
        protocol=ProtocolConfig(detection_size=1000),
        eve=EveModel(),
        message=MessageSpec(hex=message_hex, bit_length=message_bit_length),
    ).to_dict()


def forty_km_scenario_dict(seed: int = 1, random_bits: int = 20000) -> dict:
    """The 40 km reference configuration (20 km per fiber arm).

    Modulation runs at 10 kHz so the delivered rate stays above 1 kbit/s
    through the 40 km loss budget; the SFG stage is capped at its measured
    1e5 photons per second ceiling.
    """
    arm = FiberSpec(length_km=20.0)
    return Scenario(
        seed=seed,
        topology=Topology(),
        devices=Devices(
            alice_fiber=arm,
            bob_fiber=arm,
            detector=DetectorSpec(efficiency=0.9, dark_count_rate_hz=100.0),
            sfg=SfgSpec(conversion_efficiency=0.85, max_rate_hz=1e5),
            modulator=ModulatorSpec(rate_hz=1e4),
            source=SourceSpec(pair_rate_hz=1e6),
        ),
        protocol=ProtocolConfig(detection_size=8000),
        eve=EveModel(),
        message=MessageSpec(random_bits=random_bits),
    ).to_dict()
