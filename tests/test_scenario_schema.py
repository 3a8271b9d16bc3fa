"""Properties of the scenario schema: the round trip and the error contract."""

import copy
import json
import re
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qsdcnet import cli
from qsdcnet.errors import ScenarioError
from qsdcnet.scenario import (
    _TABLE,
    MAX_GRID_SIZE,
    MAX_USERS_PER_SUBNET,
    Scenario,
    forty_km_scenario_dict,
    ideal_scenario_dict,
    replace_entries,
    scenario_from_dict,
)

README = Path(__file__).resolve().parents[1] / "README.md"

fixed = st.fixed_dictionaries
probability = st.floats(0.0, 1.0)
nonnegative = st.floats(0.0, 1e12) | st.integers(0, 10**6)
positive = st.floats(1e-3, 1e12) | st.integers(1, 10**6)
counts = st.integers(1, 10**6)

fiber = fixed({"length_km": nonnegative}, optional={"attenuation_db_per_km": nonnegative})
noise = fixed(
    {},
    optional={
        "depolarizing_p": probability,
        "dephasing_q": probability,
        "phase_offset_rad": st.floats(-10.0, 10.0),
    },
)
devices = fixed(
    {
        "alice_fiber": fiber,
        "bob_fiber": fiber,
        "detector": fixed(
            {"efficiency": probability},
            optional={"dark_count_rate_hz": nonnegative, "coincidence_window_s": nonnegative},
        ),
        "sfg": fixed({"conversion_efficiency": probability}, optional={"max_rate_hz": positive}),
        "modulator": fixed({"rate_hz": positive}),
        "source": fixed({"pair_rate_hz": nonnegative}, optional={"noise": noise}),
    }
)
protocol = fixed(
    {},
    optional={
        "block_size": counts,
        "detection_size": counts,
        "qber_threshold": st.floats(1e-6, 0.499),
        "min_samples": counts,
        "redetect_every_blocks": counts,
        "max_retransmissions": st.integers(0, 10**6),
        "photon_decrease_factor": probability,
        "tdm_slot_s": nonnegative,
    },
)
topology = fixed(
    {},
    optional={
        "subnets": st.integers(1, 5),
        "users_per_subnet": st.integers(1, MAX_USERS_PER_SUBNET),
        "grid_size": st.integers(15, MAX_GRID_SIZE),
    },
)
eve = fixed(
    {},
    optional={
        "kind": st.sampled_from(["none", "intercept_resend", "tap"]),
        "fraction": probability,
    },
)
hex_message = st.text("0123456789abcdefABCDEF", min_size=1, max_size=40).flatmap(
    lambda h: fixed({"hex": st.just(h)}, optional={"bit_length": st.integers(1, 4 * len(h))})
)
documents = fixed(
    {
        "seed": st.integers(0, 2**64 - 1),
        "devices": devices,
        "message": hex_message | fixed({"random_bits": counts}),
    },
    optional={"topology": topology, "protocol": protocol, "eve": eve},
)


@settings(max_examples=300, deadline=None)
@given(documents)
def test_round_trip_keeps_the_digest(doc):
    scenario = scenario_from_dict(doc)
    again = scenario_from_dict(scenario.to_dict())
    assert again == scenario
    assert again.digest() == scenario.digest()
    assert again.to_dict() == scenario.to_dict()


BASES = [
    ideal_scenario_dict(seed=7, message_hex="b7e1d", message_bit_length=17),
    forty_km_scenario_dict(seed=3),
]


def _sites(node, prefix=()):
    yield prefix
    if isinstance(node, dict):
        for key, value in node.items():
            yield from _sites(value, prefix + (key,))


SITES = [(index, path) for index, base in enumerate(BASES) for path in _sites(base)]
ALL_KEYS = sorted({path[-1] for _, path in SITES if path})

json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(-(10**400), 10**400)
    | st.sampled_from([2**63, 2**64, 2**1024, -(2**1024), 10**400])
    | st.floats()
    | st.text(max_size=8),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=8), children, max_size=3),
    max_leaves=6,
)


def _edit(doc, path, action, key, value):
    """Replace the node at path, remove it, or add key to the section holding it."""
    if not path:
        return value if action == "replace" else {**doc, key: value}
    parent = doc
    for name in path[:-1]:
        parent = parent[name]
    if action == "replace":
        parent[path[-1]] = value
    elif action == "remove":
        del parent[path[-1]]
    else:
        target = parent[path[-1]]
        (target if isinstance(target, dict) else parent)[key] = value
    return doc


@settings(max_examples=400, deadline=None)
@given(
    site=st.sampled_from(SITES),
    action=st.sampled_from(["replace", "remove", "add"]),
    key=st.sampled_from(ALL_KEYS) | st.text(max_size=8),
    value=json_values,
)
@example(site=(0, ("devices", "alice_fiber", "length_km")), action="replace", key="", value=10**400)
@example(site=(1, ("seed",)), action="replace", key="", value=float("nan"))
@example(site=(0, ("eve", "kind")), action="replace", key="", value=[])
def test_any_single_edit_builds_or_raises_scenario_error(tmp_path_factory, site, action, key, value):
    index, path = site
    doc = _edit(copy.deepcopy(BASES[index]), path, action, key, value)
    try:
        scenario = scenario_from_dict(doc)
    except ScenarioError:
        return
    assert scenario_from_dict(scenario.to_dict()).digest() == scenario.digest()
    if _small_enough_to_run(scenario):
        out = tmp_path_factory.mktemp("run")
        scenario_path = out / "scenario.json"
        scenario_path.write_text(json.dumps(doc))
        code = cli.main(["run", "--scenario", str(scenario_path), "--out", str(out)])
        assert code in (cli.EXIT_OK, cli.EXIT_VALIDATION, cli.EXIT_ABORT)


def _small_enough_to_run(scenario) -> bool:
    """A session this test can afford: the sizes stay far below their ceilings."""
    message = scenario.message
    bits = message.random_bits or message.bit_length or 4 * len(message.hex)
    topology = scenario.topology
    return (
        bits <= 256
        and scenario.config.detection_size <= 10_000
        and topology.subnets * topology.users_per_subnet <= 100
    )


def test_readme_example_matches_the_schema():
    text = README.read_text()
    section = text[text.index("## Scenario files") :]
    block = re.search(r"```json\n(.*?)```", section, re.DOTALL).group(1)
    doc = json.loads(block)
    # The example states every field, so the writer gives it back unchanged.
    assert scenario_from_dict(doc).to_dict() == doc


def _leaf_paths(cls=Scenario, prefix=""):
    """The dotted path of every scalar field the schema table holds."""
    for field in _TABLE[cls].values():
        path = prefix + field.key
        if field.section_keys is None:
            yield path
        else:
            yield from _leaf_paths(field.kind, path + ".")


def _with(doc, overrides):
    """A copy of doc with each dotted path set to its value."""
    doc = copy.deepcopy(doc)
    for path, value in overrides.items():
        *sections, key = path.split(".")
        node = doc
        for name in sections:
            node = node[name]
        node[key] = value
    return doc


# No scenario field may leave every output unchanged. Each leaf of the schema
# has a witness: overrides of the base scenario, and a new value for the field
# under which run or fringe gives different output. Some fields act only on a
# special base: max_retransmissions needs lost pairs and a round that meets
# min_samples, qber_threshold a nonzero QBER, redetect_every_blocks several
# blocks and photon_decrease_factor a tap.
WITNESS_BASE = ideal_scenario_dict(seed=5, message_hex="a5c3")
_LOSSY = {"devices.alice_fiber.length_km": 10.0, "devices.bob_fiber.length_km": 10.0}
_NOISY = {"devices.source.noise.depolarizing_p": 0.1}
WITNESSES = {
    "seed": ({}, 6),
    "topology.subnets": ({}, 4),
    "topology.users_per_subnet": ({}, 2),
    "topology.grid_size": ({}, 20),
    "devices.alice_fiber.length_km": ({}, 5.0),
    "devices.alice_fiber.attenuation_db_per_km": (_LOSSY, 0.3),
    "devices.bob_fiber.length_km": ({}, 5.0),
    "devices.bob_fiber.attenuation_db_per_km": (_LOSSY, 0.3),
    "devices.detector.efficiency": ({}, 0.9),
    "devices.detector.dark_count_rate_hz": ({}, 100.0),
    "devices.detector.coincidence_window_s": ({}, 2e-9),
    "devices.sfg.conversion_efficiency": ({}, 0.5),
    "devices.sfg.max_rate_hz": ({}, 5e4),
    "devices.modulator.rate_hz": ({}, 5e4),
    "devices.source.pair_rate_hz": ({}, 5e5),
    "devices.source.noise.depolarizing_p": ({}, 0.05),
    "devices.source.noise.dephasing_q": ({}, 0.05),
    "devices.source.noise.phase_offset_rad": ({}, 0.1),
    "protocol.block_size": ({}, 2),
    "protocol.detection_size": ({}, 900),
    "protocol.qber_threshold": (_NOISY, 0.02),
    "protocol.min_samples": ({}, 2000),
    "protocol.redetect_every_blocks": ({"protocol.block_size": 2}, 1),
    "protocol.max_retransmissions": ({**_LOSSY, "protocol.detection_size": 4000}, 0),
    "protocol.photon_decrease_factor": ({"eve": {"kind": "tap", "fraction": 0.3}}, 0.9),
    "protocol.tdm_slot_s": ({}, 2e-6),
    "eve.kind": ({"eve.fraction": 0.5}, "tap"),
    "eve.fraction": ({"eve.kind": "intercept_resend"}, 0.5),
    "message.hex": ({}, "a5c4"),
    "message.bit_length": ({}, 12),
    "message.random_bits": ({"message": {"random_bits": 16}}, 17),
}


def _outputs(tmp_path, doc, capsys):
    """Everything run and fringe give for doc, less the scenario's own echo."""
    tmp_path.mkdir()
    scenario_path = tmp_path / "scenario.json"
    scenario_path.write_text(json.dumps(doc))
    out = tmp_path / "out"
    code = cli.main(["run", "--scenario", str(scenario_path), "--out", str(out)])
    assert code in (cli.EXIT_OK, cli.EXIT_ABORT)
    report = json.loads((out / "report.json").read_text())
    del report["scenario"], report["scenario_digest"]
    transcript = (out / "transcript.jsonl").read_text()
    capsys.readouterr()
    code = cli.main(
        ["fringe", "--scenario", str(scenario_path), "--phases", "16", "--out", str(out)]
    )
    assert code == cli.EXIT_OK
    summary = capsys.readouterr().out
    return report, transcript, summary, (out / "fringe_phi_plus.csv").read_text()


def test_every_scenario_field_has_a_witness():
    assert sorted(WITNESSES) == sorted(_leaf_paths())


@pytest.mark.parametrize("path", sorted(WITNESSES))
def test_every_scenario_field_changes_an_output(path, tmp_path, capsys):
    overrides, value = WITNESSES[path]
    base = _with(WITNESS_BASE, overrides)
    changed = _with(base, {path: value})
    assert changed != base
    before = _outputs(tmp_path / "base", base, capsys)
    after = _outputs(tmp_path / "changed", changed, capsys)
    assert any(a != b for a, b in zip(before, after))


# A swept value is one leaf of one section; sweep reads only that section
# (and the seed) again, into the base scenario.
SECTION_LEAVES = [path for path in _leaf_paths() if "." in path]
leaf_scalars = (
    st.none()
    | st.booleans()
    | st.integers(-(10**400), 10**400)
    | st.sampled_from([-1, 0, 1, 2, 2**63, 2**64, 10**7 + 1, 10**400])
    | st.floats()
    | st.floats(0.0, 1.0)
    | st.text(max_size=8)
    | st.sampled_from(["none", "intercept_resend", "tap", "ab", ""])
)


@settings(max_examples=500, deadline=None)
@given(
    index=st.sampled_from(range(len(BASES))),
    path=st.sampled_from(SECTION_LEAVES),
    data=st.data(),
    seed=st.integers(0, 2**64 - 1) | st.sampled_from([-1, 2**64]),
)
def test_section_variant_matches_the_edited_document(index, path, data, seed):
    value = data.draw(st.just(WITNESSES[path][1]) | leaf_scalars, label="value")
    base = scenario_from_dict(BASES[index])
    doc = base.to_dict()
    edited = _with(doc, {path: value, "seed": seed})
    section = path.split(".")[0]
    if tuple(path.split(".")) in set(_sites(doc)):  # sweep can address it
        varied = cli._set_path(doc, path, value)
        assert varied == _with(doc, {path: value})
        assert doc == base.to_dict()  # only copies were written
    try:
        expected = scenario_from_dict(edited)
    except ScenarioError as exc:
        with pytest.raises(ScenarioError) as raised:
            replace_entries(base, {section: edited[section], "seed": seed})
        assert str(raised.value) == str(exc)
        return
    variant = replace_entries(base, {section: edited[section], "seed": seed})
    assert variant == expected
    assert variant.digest() == expected.digest()
