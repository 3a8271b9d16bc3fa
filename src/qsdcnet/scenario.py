"""Scenario configuration: parsing, validation, canonical form and digest.

Scenarios are JSON documents whose schema is the frozen config dataclasses
themselves: each section is one dataclass and each key one of its fields,
with explicit units in the field name (length_km, rate_hz, ...) so a value
can never be mistaken for the wrong unit. A field with no default is
required, and a section is optional when every field of its class has a
default. Bounds live in each dataclass's ``__post_init__``. The canonical
form sorts keys, which makes the digest stable under field reordering in
the input file.
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

import numpy as np

from .errors import DomainError, QsdcError, ScenarioError
from .netplan import Topology
from .photonics import (
    Devices,
    DetectorSpec,
    FiberSpec,
    ModulatorSpec,
    SfgSpec,
    SourceSpec,
)
from .protocol import EveModel, MessageCodes, ProtocolConfig, spliced_pieces

# Distinct RNG streams derived from the scenario seed.
_MESSAGE_STREAM = 0x6D65
_SESSION_STREAM = 0x7365
_FRINGE_STREAM = 0xF21


def stream_rng(seed: int, stream: int) -> np.random.Generator:
    """The generator of ``default_rng([seed, stream])`` for a 64-bit seed and
    a 32-bit stream, from one integer: SeedSequence reads both as the same
    32-bit words, the seed's one or two and then the stream's, and an integer
    skips numpy's coercion of a list."""
    return np.random.default_rng(seed | stream << (32 if seed < 2**32 else 64))


# A generated message's bits size its arrays and the session.
MAX_RANDOM_BITS = 10**7


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
            if not 1 <= self.random_bits <= MAX_RANDOM_BITS:
                raise DomainError(
                    f"random_bits must be in [1, {MAX_RANDOM_BITS}], got {self.random_bits}"
                )
            if self.bit_length is not None:
                raise DomainError("bit_length applies only to a hex message")
            return
        raw = hex_bytes(self.hex) if self.hex else None
        if raw is None:
            raise DomainError("hex must be a non-empty hexadecimal string")
        if self.bit_length is not None and not 1 <= self.bit_length <= 4 * len(self.hex):
            raise DomainError(
                f"bit_length must be in [1, {4 * len(self.hex)}], got {self.bit_length}"
            )
        # The codes are resolved once and shared by every session, so they
        # are read-only; not a field.
        codes = MessageCodes.from_bytes(raw, self.bit_length or 4 * len(self.hex))
        codes.codes.flags.writeable = False
        object.__setattr__(self, "_codes", codes)

    def resolve(self, seed: int) -> MessageCodes:
        if self.hex is not None:
            return self._codes
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

    def canonical_json(self) -> str:
        spliced = (("message", "hex"),)  # MessageSpec admits only hex digits
        pieces = spliced_pieces(self.to_dict(), spliced, sort_keys=True, separators=(",", ":"))
        return "".join(pieces)

    def digest(self) -> str:
        return hashlib.sha256(self.canonical_json().encode()).hexdigest()

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
        data = json.loads(text)
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
