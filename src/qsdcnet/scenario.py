"""Scenario configuration: parsing, validation, canonical form and digest.

Scenarios are JSON documents with explicit units in every field name
(length_km, rate_hz, ...) so a value can never be mistaken for the wrong
unit. The canonical form sorts keys recursively, which makes the digest
stable under field reordering in the input file.
"""

from __future__ import annotations

import hashlib
import json
import math
import re
from dataclasses import dataclass
from typing import Any

import numpy as np

from .errors import QsdcError, ScenarioError
from .netplan import DEFAULT_GRID_SIZE
from .photonics import (
    Devices,
    DetectorSpec,
    FiberSpec,
    ModulatorSpec,
    SfgSpec,
    SourceSpec,
)
from .protocol import (
    EveKind,
    EveModel,
    ProtocolConfig,
    QberThresholdPolicy,
    hex_to_bits,
)
from .qstate import NoiseParams

# Distinct RNG streams derived from the scenario seed.
_MESSAGE_STREAM = 0x6D65
_SESSION_STREAM = 0x7365

# [0-9], unlike \d, admits no other script's digits; fullmatch, unlike a
# trailing $, rejects a trailing newline.
_HEX_DIGITS = re.compile("[0-9a-fA-F]+")


@dataclass(frozen=True)
class Topology:
    subnets: int = 5
    users_per_subnet: int = 3
    grid_size: int = DEFAULT_GRID_SIZE


@dataclass(frozen=True)
class MessageSpec:
    """Either an explicit hex payload or a generated random bitstring."""

    hex: str | None = None
    bit_length: int | None = None
    random_bits: int | None = None

    def resolve(self, seed: int) -> str:
        if self.hex is not None:
            return hex_to_bits(self.hex, self.bit_length)
        rng = np.random.default_rng([seed, _MESSAGE_STREAM])
        draws = rng.integers(0, 2, self.random_bits)
        return (draws.astype(np.uint8) + ord("0")).tobytes().decode()


@dataclass(frozen=True)
class Scenario:
    seed: int
    topology: Topology
    devices: Devices
    policy: QberThresholdPolicy
    config: ProtocolConfig
    eve: EveModel
    message: MessageSpec

    def message_bits(self) -> str:
        return self.message.resolve(self.seed)

    def session_rng(self) -> np.random.Generator:
        return np.random.default_rng([self.seed, _SESSION_STREAM])

    def canonical_dict(self) -> dict:
        return _canonicalize(self.to_dict())

    def canonical_json(self) -> str:
        return json.dumps(self.canonical_dict(), sort_keys=True, separators=(",", ":"))

    def digest(self) -> str:
        return hashlib.sha256(self.canonical_json().encode()).hexdigest()

    def to_dict(self) -> dict:
        noise = self.devices.source.heralding_noise
        message: dict[str, Any] = {}
        if self.message.hex is not None:
            message["hex"] = self.message.hex
            if self.message.bit_length is not None:
                message["bit_length"] = self.message.bit_length
        else:
            message["random_bits"] = self.message.random_bits
        return {
            "seed": self.seed,
            "topology": {
                "subnets": self.topology.subnets,
                "users_per_subnet": self.topology.users_per_subnet,
                "grid_size": self.topology.grid_size,
            },
            "devices": {
                "alice_fiber": {
                    "length_km": self.devices.alice_fiber.length_km,
                    "attenuation_db_per_km": self.devices.alice_fiber.attenuation_db_per_km,
                },
                "bob_fiber": {
                    "length_km": self.devices.bob_fiber.length_km,
                    "attenuation_db_per_km": self.devices.bob_fiber.attenuation_db_per_km,
                },
                "detector": {
                    "efficiency": self.devices.detector.efficiency,
                    "dark_count_rate_hz": self.devices.detector.dark_count_rate_hz,
                    "coincidence_window_s": self.devices.detector.coincidence_window_s,
                },
                "sfg": {
                    "conversion_efficiency": self.devices.sfg.conversion_efficiency,
                    "max_rate_hz": self.devices.sfg.max_rate_hz,
                },
                "modulator": {
                    "rate_hz": self.devices.modulator.rate_hz,
                    "extinction_error": self.devices.modulator.extinction_error,
                },
                "source": {
                    "pair_rate_hz": self.devices.source.pair_rate_hz,
                    "noise": {
                        "depolarizing_p": noise.depolarizing_p,
                        "dephasing_q": noise.dephasing_q,
                        "phase_offset_rad": noise.phase_offset_rad,
                    },
                },
            },
            "protocol": {
                "block_size": self.config.block_size,
                "detection_size": self.config.effective_detection_size,
                "qber_threshold": self.policy.threshold,
                "min_samples": self.policy.min_samples,
                "redetect_every_blocks": self.config.redetect_every_blocks,
                "max_retransmissions": self.config.max_retransmissions,
                "photon_decrease_factor": self.config.photon_decrease_factor,
                "tdm_slot_s": self.config.tdm_slot_s,
            },
            "eve": {"kind": self.eve.kind.value, "fraction": self.eve.fraction},
            "message": message,
        }


def _canonicalize(value):
    if isinstance(value, dict):
        return {key: _canonicalize(value[key]) for key in sorted(value)}
    if isinstance(value, list):
        return [_canonicalize(item) for item in value]
    if isinstance(value, bool) or value is None or isinstance(value, (int, str)):
        return value
    if isinstance(value, float):
        return value
    raise ScenarioError(f"unsupported value type in scenario: {type(value).__name__}")


class _Reader:
    """Dict navigation with field-path diagnostics.

    Every key a reader is asked for, present or not, counts as known; once
    the scenario is built, ``reject_unknown`` rejects any other key in this
    section or the sections read through it.
    """

    def __init__(self, data: dict, path: str = ""):
        if not isinstance(data, dict):
            raise ScenarioError(f"{path or 'scenario'}: expected an object")
        self.data = data
        self.path = path
        self.known: set[str] = set()
        self.children: list[_Reader] = []

    def _label(self, key: str) -> str:
        return f"{self.path}.{key}" if self.path else key

    def child(self, key: str, required: bool = True) -> "_Reader | None":
        self.known.add(key)
        if key not in self.data:
            if required:
                raise ScenarioError(f"{self._label(key)}: missing required section")
            return None
        reader = _Reader(self.data[key], self._label(key))
        self.children.append(reader)
        return reader

    def get(self, key: str, kind, default=None, required: bool = False):
        self.known.add(key)
        if key not in self.data:
            if required:
                raise ScenarioError(f"{self._label(key)}: missing required field")
            return default
        value = self.data[key]
        if kind is float and isinstance(value, int) and not isinstance(value, bool):
            value = float(value)
        if kind is int and isinstance(value, float) and value.is_integer():
            value = int(value)
        if not isinstance(value, kind) or (isinstance(value, bool) and kind is not bool):
            raise ScenarioError(
                f"{self._label(key)}: expected {kind.__name__}, got {type(value).__name__}"
            )
        # JSON parsing admits NaN and Infinity, which no range check catches.
        if kind is float and not math.isfinite(value):
            raise ScenarioError(f"{self._label(key)}: must be finite, got {value}")
        return value

    def reject_unknown(self):
        for key in self.data:
            if key not in self.known:
                raise ScenarioError(f"{self._label(key)}: unknown field")
        for reader in self.children:
            reader.reject_unknown()


def scenario_from_dict(data: dict) -> Scenario:
    """Validate a scenario dictionary and build the typed Scenario."""
    root = _Reader(data)
    seed = root.get("seed", int, required=True)
    if not 0 <= seed < 2**64:
        raise ScenarioError(f"seed: must be a 64-bit unsigned integer, got {seed}")

    topo_reader = root.child("topology", required=False)
    if topo_reader is None:
        topology = Topology()
    else:
        topology = Topology(
            subnets=topo_reader.get("subnets", int, 5),
            users_per_subnet=topo_reader.get("users_per_subnet", int, 3),
            grid_size=topo_reader.get("grid_size", int, DEFAULT_GRID_SIZE),
        )

    dev = root.child("devices", required=True)

    def fiber(name: str) -> FiberSpec:
        reader = dev.child(name, required=True)
        return _wrap(
            reader.path,
            lambda: FiberSpec(
                length_km=reader.get("length_km", float, required=True),
                attenuation_db_per_km=reader.get("attenuation_db_per_km", float, 0.2),
            ),
        )

    det_reader = dev.child("detector", required=True)
    detector = _wrap(
        det_reader.path,
        lambda: DetectorSpec(
            efficiency=det_reader.get("efficiency", float, required=True),
            dark_count_rate_hz=det_reader.get("dark_count_rate_hz", float, 0.0),
            coincidence_window_s=det_reader.get("coincidence_window_s", float, 1e-9),
        ),
    )
    sfg_reader = dev.child("sfg", required=True)
    sfg = _wrap(
        sfg_reader.path,
        lambda: SfgSpec(
            conversion_efficiency=sfg_reader.get("conversion_efficiency", float, required=True),
            max_rate_hz=sfg_reader.get("max_rate_hz", float, 1e5),
        ),
    )
    mod_reader = dev.child("modulator", required=True)
    modulator = _wrap(
        mod_reader.path,
        lambda: ModulatorSpec(
            rate_hz=mod_reader.get("rate_hz", float, required=True),
            extinction_error=mod_reader.get("extinction_error", float, 0.0),
        ),
    )
    source_reader = dev.child("source", required=True)
    noise_reader = source_reader.child("noise", required=False)
    if noise_reader is None:
        noise = NoiseParams()
    else:
        noise = _wrap(
            noise_reader.path,
            lambda: NoiseParams(
                depolarizing_p=noise_reader.get("depolarizing_p", float, 0.0),
                dephasing_q=noise_reader.get("dephasing_q", float, 0.0),
                phase_offset_rad=noise_reader.get("phase_offset_rad", float, 0.0),
            ),
        )
    source = _wrap(
        source_reader.path,
        lambda: SourceSpec(
            pair_rate_hz=source_reader.get("pair_rate_hz", float, required=True),
            heralding_noise=noise,
        ),
    )
    devices = Devices(
        alice_fiber=fiber("alice_fiber"),
        bob_fiber=fiber("bob_fiber"),
        detector=detector,
        sfg=sfg,
        modulator=modulator,
        source=source,
    )

    proto_reader = root.child("protocol", required=False)
    if proto_reader is None:
        policy = QberThresholdPolicy()
        config = ProtocolConfig()
    else:
        policy = _wrap(
            proto_reader.path,
            lambda: QberThresholdPolicy(
                threshold=proto_reader.get("qber_threshold", float, 0.1),
                min_samples=proto_reader.get("min_samples", int, 500),
            ),
        )
        config = _wrap(
            proto_reader.path,
            lambda: ProtocolConfig(
                block_size=proto_reader.get("block_size", int, 10000),
                detection_size=proto_reader.get("detection_size", int, None),
                redetect_every_blocks=proto_reader.get("redetect_every_blocks", int, 10),
                max_retransmissions=proto_reader.get("max_retransmissions", int, 200),
                photon_decrease_factor=proto_reader.get("photon_decrease_factor", float, 0.5),
                tdm_slot_s=proto_reader.get("tdm_slot_s", float, 1e-6),
            ),
        )

    eve_reader = root.child("eve", required=False)
    if eve_reader is None:
        eve = EveModel.none()
    else:
        kind_name = eve_reader.get("kind", str, "none")
        try:
            kind = EveKind(kind_name)
        except ValueError:
            choices = ", ".join(k.value for k in EveKind)
            raise ScenarioError(f"eve.kind: must be one of {choices}, got {kind_name!r}")
        eve = _wrap(
            eve_reader.path,
            lambda: EveModel(kind=kind, fraction=eve_reader.get("fraction", float, 0.0)),
        )

    msg_reader = root.child("message", required=True)
    hex_payload = msg_reader.get("hex", str, None)
    random_bits = msg_reader.get("random_bits", int, None)
    bit_length = msg_reader.get("bit_length", int, None)
    if (hex_payload is None) == (random_bits is None):
        raise ScenarioError("message: provide exactly one of 'hex' or 'random_bits'")
    if hex_payload is not None and not _HEX_DIGITS.fullmatch(hex_payload):
        raise ScenarioError("message.hex: must be a non-empty hexadecimal string")
    if random_bits is not None and random_bits < 1:
        raise ScenarioError(f"message.random_bits: must be >= 1, got {random_bits}")
    message = MessageSpec(hex=hex_payload, bit_length=bit_length, random_bits=random_bits)
    root.reject_unknown()

    return Scenario(
        seed=seed,
        topology=topology,
        devices=devices,
        policy=policy,
        config=config,
        eve=eve,
        message=message,
    )


def _wrap(path: str, builder):
    """Turn constructor DomainErrors into scenario diagnostics with a path."""
    try:
        return builder()
    except QsdcError as exc:
        raise ScenarioError(f"{path}: {exc}") from exc


def load_scenario(path: str) -> Scenario:
    """Parse and validate a scenario file, with line-precise parse errors."""
    try:
        with open(path) as handle:
            text = handle.read()
    except OSError as exc:
        raise ScenarioError(f"{path}: {exc.strerror or exc}") from exc
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
    message: dict[str, Any] = {"hex": message_hex}
    if message_bit_length is not None:
        message["bit_length"] = message_bit_length
    return {
        "seed": seed,
        "topology": {"subnets": 5, "users_per_subnet": 3, "grid_size": 15},
        "devices": {
            "alice_fiber": {"length_km": 0.0, "attenuation_db_per_km": 0.2},
            "bob_fiber": {"length_km": 0.0, "attenuation_db_per_km": 0.2},
            "detector": {
                "efficiency": 1.0,
                "dark_count_rate_hz": 0.0,
                "coincidence_window_s": 1e-9,
            },
            "sfg": {"conversion_efficiency": 1.0, "max_rate_hz": 1e5},
            "modulator": {"rate_hz": 1e5, "extinction_error": 0.0},
            "source": {
                "pair_rate_hz": 1e6,
                "noise": {
                    "depolarizing_p": 0.0,
                    "dephasing_q": 0.0,
                    "phase_offset_rad": 0.0,
                },
            },
        },
        "protocol": {
            "block_size": 10000,
            "detection_size": 1000,
            "qber_threshold": 0.1,
            "min_samples": 500,
            "redetect_every_blocks": 10,
            "max_retransmissions": 200,
            "photon_decrease_factor": 0.5,
            "tdm_slot_s": 1e-6,
        },
        "eve": {"kind": "none", "fraction": 0.0},
        "message": message,
    }


def forty_km_scenario_dict(seed: int = 1, random_bits: int = 20000) -> dict:
    """The 40 km reference configuration (20 km per fiber arm).

    Modulation runs at 10 kHz so the delivered rate stays above 1 kbit/s
    through the 40 km loss budget; the SFG stage is capped at its measured
    1e5 photons per second ceiling.
    """
    doc = ideal_scenario_dict(seed=seed)
    doc["devices"]["alice_fiber"] = {"length_km": 20.0, "attenuation_db_per_km": 0.2}
    doc["devices"]["bob_fiber"] = {"length_km": 20.0, "attenuation_db_per_km": 0.2}
    doc["devices"]["detector"] = {
        "efficiency": 0.9,
        "dark_count_rate_hz": 100.0,
        "coincidence_window_s": 1e-9,
    }
    doc["devices"]["sfg"] = {"conversion_efficiency": 0.85, "max_rate_hz": 1e5}
    doc["devices"]["modulator"] = {"rate_hz": 1e4, "extinction_error": 0.0}
    doc["devices"]["source"]["noise"] = {
        "depolarizing_p": 0.0,
        "dephasing_q": 0.0,
        "phase_offset_rad": 0.0,
    }
    doc["protocol"]["detection_size"] = 8000
    doc["message"] = {"random_bits": random_bits}
    return doc
