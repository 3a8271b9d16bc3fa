"""errors.check_range, and the table of every bound in the simulator that it states.

Each table row names one call site, an out-of-range value and the exact
error text the site gave before check_range existed, its closed edges
(accepted) and open edges (rejected), and, for a scenario field, the
dotted path the scenario reader labels the error with.
"""

import json
import math
import os
import re
import tempfile

import numpy as np
import pytest

from qsdcnet import analysis, cli, netplan, photonics, report
from qsdcnet.errors import DomainError, ScenarioError, check_range
from qsdcnet.netplan import MAX_GRID_SIZE, MAX_USERS_PER_SUBNET, Topology
from qsdcnet.scenario import (
    MAX_BLOCK_SIZE,
    MAX_DETECTION_SIZE,
    MAX_RANDOM_BITS,
    MAX_RATE_HZ,
    MIN_RATE_HZ,
    DetectorSpec,
    EveKind,
    EveModel,
    FiberSpec,
    MessageSpec,
    ModulatorSpec,
    NoiseParams,
    ProtocolConfig,
    SfgSpec,
    SourceSpec,
    ideal_scenario_dict,
    scenario_from_dict,
)


class TestCheckRange:
    @pytest.mark.parametrize(
        "low, high, flags, value, message",
        [
            (0, 1, {}, 1.5, "x must be in [0, 1], got 1.5"),
            (0, 0.5, {"open_low": True, "open_high": True}, 0.5, "x must be in (0, 0.5), got 0.5"),
            (0, 1, {"open_high": True}, 1, "x must be in [0, 1), got 1"),
            (0, 1, {"open_low": True}, 0.0, "x must be in (0, 1], got 0.0"),
            (1, 10**7, {}, 0, "x must be in [1, 10000000], got 0"),
            (0, None, {}, -1.0, "x must be >= 0, got -1.0"),
            (0, None, {"open_low": True}, 0.0, "x must be > 0, got 0.0"),
            (None, 10**4, {}, 10001, "x must be <= 10000, got 10001"),
            (None, 10, {"open_high": True}, 10, "x must be < 10, got 10"),
        ],
    )
    def test_message(self, low, high, flags, value, message):
        with pytest.raises(DomainError) as exc:
            check_range("x", value, low, high, **flags)
        assert str(exc.value) == message

    @pytest.mark.parametrize("open_low", [False, True])
    @pytest.mark.parametrize("open_high", [False, True])
    def test_edges(self, open_low, open_high):
        for value, is_open in ((0, open_low), (1, open_high)):
            if is_open:
                with pytest.raises(DomainError):
                    check_range("x", value, 0, 1, open_low=open_low, open_high=open_high)
            else:
                check_range("x", value, 0, 1, open_low=open_low, open_high=open_high)
        check_range("x", 0.5, 0, 1, open_low=open_low, open_high=open_high)

    @pytest.mark.parametrize(
        "low, high, flags",
        [
            (0, 1, {}),
            (0, 1, {"open_low": True, "open_high": True}),
            (0, None, {}),
            (0, None, {"open_low": True}),
            (None, 1, {}),
            (None, 1, {"open_high": True}),
        ],
    )
    def test_nan_is_out_of_every_range(self, low, high, flags):
        with pytest.raises(DomainError, match="got nan$"):
            check_range("x", math.nan, low, high, **flags)


def _session_metrics(erasure_fraction):
    """report.session_metrics of a completed ideal session with one error-free round."""
    scenario = scenario_from_dict(ideal_scenario_dict(seed=1))
    summary = {"status": "completed", "erasure_fraction": erasure_fraction, "overhead_fraction": 0.0}
    return report.session_metrics(scenario, summary, [(1, 0, 1, 0)])


def _fringe(dest):
    """cmd_fringe on the ideal scenario with args.<dest> set to the value."""

    def build(value):
        with tempfile.TemporaryDirectory() as out:
            path = os.path.join(out, "scenario.json")
            with open(path, "w") as f:
                json.dump(ideal_scenario_dict(seed=1), f)
            argv = ["fringe", "--scenario", path, "--phases", "8", "--shots-per-phase", "100", "--out", out]
            args = cli.parse_args(argv)
            setattr(args, dest, value)
            cli.cmd_fringe(args)

    return build


def _fringe_scan(shots, accidental_prob):
    zeros = np.zeros(2)
    return photonics.fringe_scan(zeros, zeros, shots, accidental_prob, np.random.default_rng(0))


# (site, build(value), out-of-range value, its error text, closed edges,
#  open edges, (scenario leaf, the reader's error text) or None)
SITES = [
    ("binary_entropy", analysis.binary_entropy, 1.5,
     "entropy argument must be in [0, 1], got 1.5", (0, 1), (), None),
    ("secrecy_capacity_bound.q_b", lambda v: analysis.secrecy_capacity_bound(v, 0.0, 0.0), -0.5,
     "q_b must be in [0, 1], got -0.5", (0, 1), (), None),
    ("secrecy_capacity_bound.q_e", lambda v: analysis.secrecy_capacity_bound(0.0, v, 0.0), 2.0,
     "q_e must be in [0, 1], got 2.0", (0, 1), (), None),
    ("secrecy_capacity_bound.e", lambda v: analysis.secrecy_capacity_bound(0.0, 0.0, v), 1.5,
     "e must be in [0, 1], got 1.5", (0, 1), (), None),
    ("secrecy_capacity_bound.e_x",
     lambda v: analysis.secrecy_capacity_bound(0.0, 0.0, 0.0, e_x=v), -0.1,
     "e_x must be in [0, 1], got -0.1", (0, 1), (), None),
    ("secrecy_capacity_bound.e_z",
     lambda v: analysis.secrecy_capacity_bound(0.0, 0.0, 0.0, e_z=v), 1.1,
     "e_z must be in [0, 1], got 1.1", (0, 1), (), None),
    ("session_metrics.erasure_fraction", _session_metrics, 1.01,
     "erasure_fraction must be in [0, 1], got 1.01", (0, 1), (), None),
    ("throughput.sfg_rate_hz", lambda v: analysis.throughput(v, 1e4, 0.1), -1.0,
     "sfg_rate_hz must be in [0, 1000000000000], got -1.0", (0, MAX_RATE_HZ), (), None),
    ("throughput.modulation_rate_hz", lambda v: analysis.throughput(1e5, v, 0.1), -1.0,
     "modulation_rate_hz must be in [0, 1000000000000], got -1.0", (0, MAX_RATE_HZ), (), None),
    ("throughput.erasure_fraction", lambda v: analysis.throughput(1e5, 1e4, v), 1.5,
     "erasure_fraction must be in [0, 1], got 1.5", (0, 1), (), None),
    ("throughput.overhead_fraction", lambda v: analysis.throughput(1e5, 1e4, 0.1, v), -0.1,
     "overhead_fraction must be in [0, 1], got -0.1", (0, 1), (), None),
    ("fidelity_from_visibility", analysis.fidelity_from_visibility, 1.2,
     "visibility must be in [0, 1], got 1.2", (0, 1), (), None),
    ("clopper_pearson.errors", lambda v: analysis.clopper_pearson(v, 10), 11,
     "errors must be in [0, 10], got 11", (0, 10), (), None),
    ("clopper_pearson.confidence", lambda v: analysis.clopper_pearson(1, 10, v), 1.5,
     "confidence must be in (0, 1), got 1.5", (), (0.0, 1.0), None),
    ("channels_required.k", lambda v: netplan.pairs_required(v, 3), 0,
     "subnet count must be >= 1, got 0", (1,), (), None),
    ("channels_required.m", lambda v: netplan.pairs_required(5, v), 0,
     "users per subnet must be >= 1, got 0", (1,), (), None),
    ("itu_name.grid_size", lambda v: netplan.itu_name(1, "signal", v), 0,
     "grid_size must be >= 1, got 0", (1,), (), None),
    ("Topology.grid_size", lambda v: Topology(grid_size=v), MAX_GRID_SIZE + 1,
     "grid_size must be <= 10000, got 10001", (MAX_GRID_SIZE,), (),
     ("topology.grid_size", "topology.grid_size: must be <= 10000, got 10001")),
    ("Topology.users_per_subnet", lambda v: Topology(subnets=1, users_per_subnet=v),
     MAX_USERS_PER_SUBNET + 1, "users_per_subnet must be <= 1000, got 1001",
     (MAX_USERS_PER_SUBNET,), (),
     ("topology.users_per_subnet", "topology.users_per_subnet: must be <= 1000, got 1001")),
    # pairs_required's check, reached through the plan check; its name
    # is no field, so the reader labels the section.
    ("Topology.subnets", lambda v: Topology(subnets=v), 0,
     "subnet count must be >= 1, got 0", (1,), (),
     ("topology.subnets", "topology: subnet count must be >= 1, got 0")),
    ("FiberSpec.length_km", FiberSpec, -1.0,
     "length_km must be >= 0, got -1.0", (0,), (),
     ("devices.alice_fiber.length_km", "devices.alice_fiber.length_km: must be >= 0, got -1.0")),
    ("FiberSpec.attenuation_db_per_km", lambda v: FiberSpec(1.0, v), -0.2,
     "attenuation_db_per_km must be >= 0, got -0.2", (0,), (),
     ("devices.bob_fiber.attenuation_db_per_km",
      "devices.bob_fiber.attenuation_db_per_km: must be >= 0, got -0.2")),
    ("DetectorSpec.efficiency", DetectorSpec, 1.5,
     "efficiency must be in [0, 1], got 1.5", (0, 1), (),
     ("devices.detector.efficiency", "devices.detector.efficiency: must be in [0, 1], got 1.5")),
    ("DetectorSpec.dark_count_rate_hz", lambda v: DetectorSpec(0.9, dark_count_rate_hz=v), -1.0,
     "dark_count_rate_hz must be >= 0, got -1.0", (0,), (),
     ("devices.detector.dark_count_rate_hz",
      "devices.detector.dark_count_rate_hz: must be >= 0, got -1.0")),
    ("DetectorSpec.coincidence_window_s",
     lambda v: DetectorSpec(0.9, coincidence_window_s=v), -1e-9,
     "coincidence_window_s must be >= 0, got -1e-09", (0,), (),
     ("devices.detector.coincidence_window_s",
      "devices.detector.coincidence_window_s: must be >= 0, got -1e-09")),
    ("SfgSpec.conversion_efficiency", SfgSpec, -0.1,
     "conversion_efficiency must be in [0, 1], got -0.1", (0, 1), (),
     ("devices.sfg.conversion_efficiency",
      "devices.sfg.conversion_efficiency: must be in [0, 1], got -0.1")),
    ("SfgSpec.max_rate_hz", lambda v: SfgSpec(0.5, v), -1.0,
     "max_rate_hz must be in [0.001, 1000000000000], got -1.0", (MIN_RATE_HZ, MAX_RATE_HZ), (),
     ("devices.sfg.max_rate_hz",
      "devices.sfg.max_rate_hz: must be in [0.001, 1000000000000], got -1.0")),
    ("ModulatorSpec.rate_hz", ModulatorSpec, -1.0,
     "rate_hz must be in [0.001, 1000000000000], got -1.0", (MIN_RATE_HZ, MAX_RATE_HZ), (),
     ("devices.modulator.rate_hz",
      "devices.modulator.rate_hz: must be in [0.001, 1000000000000], got -1.0")),
    ("SourceSpec.pair_rate_hz", SourceSpec, -1.0,
     "pair_rate_hz must be >= 0, got -1.0", (0,), (),
     ("devices.source.pair_rate_hz", "devices.source.pair_rate_hz: must be >= 0, got -1.0")),
    ("NoiseParams.depolarizing_p", lambda v: NoiseParams(depolarizing_p=v), 1.5,
     "depolarizing_p must be in [0, 1], got 1.5", (0, 1), (),
     ("devices.source.noise.depolarizing_p",
      "devices.source.noise.depolarizing_p: must be in [0, 1], got 1.5")),
    ("NoiseParams.dephasing_q", lambda v: NoiseParams(dephasing_q=v), -0.5,
     "dephasing_q must be in [0, 1], got -0.5", (0, 1), (),
     ("devices.source.noise.dephasing_q",
      "devices.source.noise.dephasing_q: must be in [0, 1], got -0.5")),
    # Both ends open at infinity: only nan and the infinities are out. The
    # reader rejects a non-finite number before the constructor sees it.
    ("NoiseParams.phase_offset_rad", lambda v: NoiseParams(phase_offset_rad=v), math.inf,
     "phase_offset_rad must be in (-inf, inf), got inf", (), (-math.inf, math.inf),
     ("devices.source.noise.phase_offset_rad",
      "devices.source.noise.phase_offset_rad: must be finite, got inf")),
    ("fringe_scan.accidental_prob", lambda v: _fringe_scan(10, v), 1.5,
     "accidental_prob must be in [0, 1], got 1.5", (0, 1), (), None),
    ("fringe_scan.shots_per_phase", lambda v: _fringe_scan(v, 0.0), 0,
     "shots_per_phase must be >= 1, got 0", (1,), (), None),
    ("EveModel.fraction", lambda v: EveModel(EveKind.INTERCEPT_RESEND, v), 1.5,
     "fraction must be in [0, 1], got 1.5", (0, 1), (),
     ("eve.fraction", "eve.fraction: must be in [0, 1], got 1.5")),
    ("ProtocolConfig.qber_threshold", lambda v: ProtocolConfig(qber_threshold=v), 0.7,
     "qber_threshold must be in (0, 0.5), got 0.7", (), (0.0, 0.5),
     ("protocol.qber_threshold", "protocol.qber_threshold: must be in (0, 0.5), got 0.7")),
    ("ProtocolConfig.min_samples", lambda v: ProtocolConfig(min_samples=v), 0,
     "min_samples must be >= 1, got 0", (1,), (),
     ("protocol.min_samples", "protocol.min_samples: must be >= 1, got 0")),
    ("ProtocolConfig.block_size", lambda v: ProtocolConfig(block_size=v), 0,
     "block_size must be in [1, 10000000], got 0", (1, MAX_BLOCK_SIZE), (),
     ("protocol.block_size", "protocol.block_size: must be in [1, 10000000], got 0")),
    ("ProtocolConfig.detection_size", lambda v: ProtocolConfig(detection_size=v),
     MAX_DETECTION_SIZE + 1, "detection_size must be in [1, 1000000], got 1000001",
     (1, MAX_DETECTION_SIZE), (),
     ("protocol.detection_size",
      "protocol.detection_size: must be in [1, 1000000], got 1000001")),
    ("ProtocolConfig.redetect_every_blocks", lambda v: ProtocolConfig(redetect_every_blocks=v), 0,
     "redetect_every_blocks must be >= 1, got 0", (1,), (),
     ("protocol.redetect_every_blocks", "protocol.redetect_every_blocks: must be >= 1, got 0")),
    ("ProtocolConfig.max_retransmissions", lambda v: ProtocolConfig(max_retransmissions=v), -1,
     "max_retransmissions must be >= 0, got -1", (0,), (),
     ("protocol.max_retransmissions", "protocol.max_retransmissions: must be >= 0, got -1")),
    ("ProtocolConfig.photon_decrease_factor",
     lambda v: ProtocolConfig(photon_decrease_factor=v), 1.5,
     "photon_decrease_factor must be in [0, 1], got 1.5", (0, 1), (),
     ("protocol.photon_decrease_factor",
      "protocol.photon_decrease_factor: must be in [0, 1], got 1.5")),
    ("ProtocolConfig.tdm_slot_s", lambda v: ProtocolConfig(tdm_slot_s=v), -1.0,
     "tdm_slot_s must be in [0, 1], got -1.0", (0, 1), (),
     ("protocol.tdm_slot_s", "protocol.tdm_slot_s: must be in [0, 1], got -1.0")),
    ("MessageSpec.random_bits", lambda v: MessageSpec(random_bits=v), 0,
     "random_bits must be in [1, 10000000], got 0", (1, MAX_RANDOM_BITS), (),
     ("message.random_bits", "message.random_bits: must be in [1, 10000000], got 0")),
    ("MessageSpec.bit_length", lambda v: MessageSpec(hex="a5" * 16, bit_length=v), 129,
     "bit_length must be in [1, 128], got 129", (1, 128), (),
     ("message.bit_length", "message.bit_length: must be in [1, 128], got 129")),
    ("cmd_fringe.phases", _fringe("phases"), 0,
     "--phases must be in [8, 100000], got 0", (cli.MIN_PHASES, cli.MAX_PHASES), (), None),
    ("cmd_fringe.shots_per_phase", _fringe("shots_per_phase"), cli.MAX_SHOTS_PER_PHASE + 1,
     "--shots-per-phase must be in [1, 1000000000000], got 1000000000001",
     (1, cli.MAX_SHOTS_PER_PHASE), (), None),
]

SITE_PARAMS = [pytest.param(*row[1:], id=row[0]) for row in SITES]


def _rejected(build, value, message):
    with pytest.raises(DomainError) as exc:
        build(value)
    assert str(exc.value) == message


def _text_at(message, value):
    """The site's error text for another value."""
    return f"{message.rpartition(', got ')[0]}, got {value}"


class TestBoundTable:
    @pytest.mark.parametrize("build, bad, message, closed, open_, leaf", SITE_PARAMS)
    def test_out_of_range_text(self, build, bad, message, closed, open_, leaf):
        _rejected(build, bad, message)

    @pytest.mark.parametrize("build, bad, message, closed, open_, leaf", SITE_PARAMS)
    def test_edges(self, build, bad, message, closed, open_, leaf):
        for edge in closed:
            build(edge)
        for edge in open_:
            _rejected(build, edge, _text_at(message, edge))

    # Before check_range, every `value < 0` or `value <= 0` check let NaN
    # through: FiberSpec, ModulatorSpec, SfgSpec.max_rate_hz,
    # DetectorSpec.dark_count_rate_hz, SourceSpec, ProtocolConfig.tdm_slot_s
    # and throughput.sfg_rate_hz built or returned. clopper_pearson's counts
    # must be integers, which NaN fails first.
    @pytest.mark.parametrize(
        "build, bad, message, closed, open_, leaf",
        [param for param in SITE_PARAMS if param.id != "clopper_pearson.errors"],
    )
    def test_nan_rejected(self, build, bad, message, closed, open_, leaf):
        _rejected(build, math.nan, _text_at(message, math.nan))

    @pytest.mark.parametrize(
        "build, bad, message, closed, open_, leaf",
        [param for param in SITE_PARAMS if param.values[-1] is not None],
    )
    def test_scenario_reader_labels_the_field(self, build, bad, message, closed, open_, leaf):
        path, error = leaf
        doc = ideal_scenario_dict(seed=1)
        *sections, key = path.split(".")
        node = doc
        for name in sections:
            node = node[name]
        if key == "random_bits":  # a message holds hex or random_bits, not both
            del node["hex"]
        node[key] = bad
        with pytest.raises(ScenarioError, match=f"^{re.escape(error)}$"):
            scenario_from_dict(doc)
