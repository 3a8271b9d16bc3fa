import ast
import contextlib
import csv
import hashlib
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qsdcnet import cli, protocol
from qsdcnet.errors import DomainError, ScenarioError
from qsdcnet.netplan import MAX_GRID_SIZE, MAX_USERS, MAX_USERS_PER_SUBNET
from qsdcnet.protocol import MessageCodes
from qsdcnet.qstate import BellLabel
from qsdcnet.report import build_report, read, report_pieces, run_session
from qsdcnet.scenario import (
    _FRINGE_STREAM,
    _MESSAGE_STREAM,
    _SESSION_STREAM,
    MAX_BLOCK_SIZE,
    MAX_DETECTION_SIZE,
    MAX_RANDOM_BITS,
    MessageSpec,
    forty_km_scenario_dict,
    ideal_scenario_dict,
    load_scenario,
    scenario_from_dict,
    stream_rng,
)

from conftest import HEX_DIGITS, hex_to_bits_oracle, report_with_scipy_era_intervals


# Digits, whitespace, prefixes, signs and separators, other scripts' digits
# and letters, and lone surrogates: what int(s, 16), \d or bytes.fromhex
# would admit where a message must not.
HEX_LOOKALIKES = [
    *"0123456789abcdefABCDEF", " ", "\t", "\n", "\r", "\x0b", "\x0c", "\xa0",
    "x", "X", "+", "-", "_", "g", "\uff10", "\uff19", "\uff41", "\u0660",
    "\u0669", "\u06f5", "\ud800", "\udfff",
]


def write_scenario(tmp_path, doc, name="scenario.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc, indent=2))
    return str(path)


# The sha256 of an empty stream.
NOTHING = hashlib.sha256(b"").hexdigest()


def canonical_json(scenario):
    """The text the scenario digest hashes, by json alone (tests/test_golden.py's rule)."""
    return json.dumps(scenario.to_dict(), sort_keys=True, separators=(",", ":"))


class TestScenarioParsing:
    def test_round_trip_and_message_resolution(self):
        scenario = scenario_from_dict(ideal_scenario_dict(seed=3, message_hex="deadbeef"))
        assert scenario.seed == 3
        assert scenario.message_bits().text() == "11011110101011011011111011101111"
        again = scenario_from_dict(scenario.to_dict())
        assert canonical_json(again) == canonical_json(scenario)

    def test_random_message_is_seed_deterministic(self):
        doc = ideal_scenario_dict(seed=5)
        doc["message"] = {"random_bits": 64}
        first = scenario_from_dict(doc).message_bits().text()
        second = scenario_from_dict(doc).message_bits().text()
        assert first == second and len(first) == 64
        doc["seed"] = 6
        assert scenario_from_dict(doc).message_bits().text() != first

    def test_digest_stable_under_field_reordering(self):
        doc = ideal_scenario_dict(seed=9, message_hex="0f")
        reordered = {key: doc[key] for key in reversed(list(doc))}
        reordered["devices"] = {
            key: doc["devices"][key] for key in reversed(list(doc["devices"]))
        }
        assert (
            scenario_from_dict(doc).digest() == scenario_from_dict(reordered).digest()
        )

    def test_canonicalization_idempotent(self):
        scenario = scenario_from_dict(ideal_scenario_dict(seed=2, message_hex="ab"))
        once = scenario.to_dict()
        assert json.loads(canonical_json(scenario)) == once
        assert scenario_from_dict(once).to_dict() == once

    def test_missing_seed_rejected(self):
        doc = ideal_scenario_dict()
        del doc["seed"]
        with pytest.raises(ScenarioError, match="seed"):
            scenario_from_dict(doc)

    def test_field_errors_name_the_path(self):
        doc = ideal_scenario_dict()
        doc["devices"]["detector"]["efficiency"] = 1.4
        with pytest.raises(ScenarioError, match="devices.detector"):
            scenario_from_dict(doc)
        doc = ideal_scenario_dict()
        doc["eve"]["kind"] = "quantum_cloner"
        with pytest.raises(ScenarioError, match="eve.kind"):
            scenario_from_dict(doc)
        doc = ideal_scenario_dict()
        doc["message"] = {}
        with pytest.raises(ScenarioError, match="message"):
            scenario_from_dict(doc)

    @pytest.mark.parametrize(
        "section, key, path",
        [
            ((), "sed", "sed"),
            (("devices", "alice_fiber"), "lenght_km", "devices.alice_fiber.lenght_km"),
            (("devices", "source", "noise"), "depolarising_p", "devices.source.noise.depolarising_p"),
            (("message",), "bit_lenght", "message.bit_lenght"),
        ],
    )
    def test_unknown_fields_rejected(self, section, key, path):
        doc = ideal_scenario_dict(seed=1)
        node = doc
        for name in section:
            node = node[name]
        node[key] = 50
        with pytest.raises(ScenarioError, match=f"^{re.escape(path)}: unknown field$"):
            scenario_from_dict(doc)

    @pytest.mark.parametrize(
        "section, key, value, path",
        [
            ((), "seed", 2, "seed"),
            (("devices", "alice_fiber"), "length_km", 3.0, "devices.alice_fiber.length_km"),
            (("devices", "source", "noise"), "depolarizing_p", 0.1,
             "devices.source.noise.depolarizing_p"),
        ],
        ids=["top_level", "section", "noise"],
    )
    def test_duplicate_keys_rejected(self, tmp_path, capsys, section, key, value, path):
        # json would keep the last value; the reader refuses the file instead.
        doc = ideal_scenario_dict(seed=1)
        node = doc
        for name in section:
            node = node[name]
        node["duplicate"] = value
        text = json.dumps(doc, indent=2).replace('"duplicate"', json.dumps(key))
        assert text.count(f"{json.dumps(key)}:") >= 2
        scenario_path = tmp_path / "scenario.json"
        scenario_path.write_text(text)
        with pytest.raises(ScenarioError, match=f"^{re.escape(f'{scenario_path}: {path}')}: duplicate key$"):
            load_scenario(str(scenario_path))
        out = tmp_path / "out"
        code = cli.main(["run", "--scenario", str(scenario_path), "--out", str(out)])
        assert code == cli.EXIT_VALIDATION
        assert capsys.readouterr().err == f"error: {scenario_path}: {path}: duplicate key\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "payload", ["", "ab\n", "a b", "0x1f", "١٢", "１２", "fg"]
    )
    def test_non_hex_message_rejected(self, payload):
        doc = ideal_scenario_dict(seed=1)
        doc["message"] = {"hex": payload}
        with pytest.raises(ScenarioError, match="^message.hex: must be a non-empty hexadecimal string$"):
            scenario_from_dict(doc)

    @settings(max_examples=500, deadline=None)
    @given(st.text(st.sampled_from(HEX_LOOKALIKES) | st.characters(), max_size=12))
    @example("")
    @example("a")
    @example("ab")
    @example("abc\n")
    @example("0x1f")
    @example("\ud800")
    @example("\uff41\uff42")
    def test_hex_check_accepts_what_the_regex_accepts(self, payload):
        # MessageSpec checks with one bytes.fromhex call and builds the
        # codes from its bytes; the regex it replaced is the oracle.
        accepted = HEX_DIGITS.fullmatch(payload) is not None
        try:
            spec = MessageSpec(hex=payload)
        except DomainError as exc:
            assert not accepted
            assert str(exc) == "hex must be a non-empty hexadecimal string"
        else:
            assert accepted
            assert spec.resolve(seed=0).text() == hex_to_bits_oracle(payload)

    @pytest.mark.parametrize(
        "message, error",
        [
            ({"hex": "ff", "bit_length": -3}, "must be in [1, 8], got -3"),
            ({"hex": "ff", "bit_length": 0}, "must be in [1, 8], got 0"),
            ({"hex": "ff", "bit_length": 9}, "must be in [1, 8], got 9"),
            ({"random_bits": 16, "bit_length": 8}, "applies only to a hex message"),
        ],
        ids=["negative", "zero", "above_hex_bits", "with_random_bits"],
    )
    def test_bad_bit_length_rejected(self, message, error):
        doc = ideal_scenario_dict(seed=1)
        doc["message"] = message
        with pytest.raises(ScenarioError, match=f"^message.bit_length: {re.escape(error)}$"):
            scenario_from_dict(doc)

    @pytest.mark.parametrize(
        "path, value, error",
        [
            ("devices.sfg.max_rate_hz", 0,
             "devices.sfg.max_rate_hz: must be in [0.001, 1000000000000], got 0.0"),
            ("protocol.tdm_slot_s", -1, "protocol.tdm_slot_s: must be in [0, 1], got -1.0"),
            ("devices.alice_fiber.length_km", 10**400, "devices.alice_fiber.length_km: too large for a float"),
            # The accidental rate multiplies these three, so none may be negative.
            ("devices.detector.dark_count_rate_hz", -1,
             "devices.detector.dark_count_rate_hz: must be >= 0, got -1.0"),
            ("devices.detector.coincidence_window_s", -1e-9,
             "devices.detector.coincidence_window_s: must be >= 0, got -1e-09"),
            ("devices.source.pair_rate_hz", -1, "devices.source.pair_rate_hz: must be >= 0, got -1.0"),
        ],
        ids=["zero_sfg_rate", "negative_tdm_slot", "huge_int_as_float", "negative_dark_counts",
             "negative_window", "negative_pair_rate"],
    )
    def test_degenerate_values_rejected(self, path, value, error):
        doc = ideal_scenario_dict(seed=1)
        *parents, key = path.split(".")
        node = doc
        for name in parents:
            node = node[name]
        node[key] = value
        with pytest.raises(ScenarioError, match=f"^{re.escape(error)}$"):
            scenario_from_dict(doc)

    def test_parse_errors_are_line_precise(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{\n  "seed": 1,\n  "oops"\n}\n')
        with pytest.raises(ScenarioError, match=r"broken\.json:4:1"):
            load_scenario(str(path))


class TestStreamRng:
    @settings(max_examples=300, deadline=None)
    @given(
        seed=st.integers(0, 2**64 - 1),
        stream=st.sampled_from([_SESSION_STREAM, _MESSAGE_STREAM, _FRINGE_STREAM]),
    )
    @example(seed=0, stream=_SESSION_STREAM)
    @example(seed=2**32 - 1, stream=_MESSAGE_STREAM)
    @example(seed=2**32, stream=_SESSION_STREAM)
    @example(seed=2**63, stream=_FRINGE_STREAM)
    @example(seed=2**64 - 1, stream=_MESSAGE_STREAM)
    def test_one_integer_seeds_the_generator_of_the_pair(self, seed, stream):
        state = np.random.default_rng([seed, stream]).bit_generator.state
        assert stream_rng(seed, stream).bit_generator.state == state

    @settings(max_examples=50, deadline=None)
    @given(seed=st.integers(0, 2**64 - 1))
    @example(seed=2**32)
    def test_scenario_generators_are_its_seed_and_stream(self, seed):
        doc = ideal_scenario_dict(seed=seed)
        doc["message"] = {"random_bits": 9}
        scenario = scenario_from_dict(doc)
        for rng, stream in (
            (scenario.session_rng(), _SESSION_STREAM),
            (scenario.fringe_rng(), _FRINGE_STREAM),
        ):
            assert rng.bit_generator.state == np.random.default_rng([seed, stream]).bit_generator.state
        draws = np.random.default_rng([seed, _MESSAGE_STREAM]).integers(0, 2, 9)
        codes, bit_count = scenario.message_bits()
        np.testing.assert_array_equal(codes, MessageCodes.from_bit_values(draws).codes)
        assert bit_count == 9


class TestPlanCommand:
    def test_reference_plan(self, capsys):
        code = cli.main(["plan", "--subnets", "5", "--users-per-subnet", "3"])
        out = capsys.readouterr().out
        assert code == cli.EXIT_OK
        assert '"itu_channels": 30' in out
        assert '"user_pairs": 105' in out
        assert '"fully_connected": true' in out

    def test_smallest_plan(self, capsys):
        code = cli.main(["plan", "--subnets", "1", "--users-per-subnet", "2"])
        assert code == cli.EXIT_OK
        assert '"itu_channels": 2' in capsys.readouterr().out

    def test_capacity_exit_code(self, capsys):
        code = cli.main(["plan", "--subnets", "6", "--users-per-subnet", "3"])
        assert code == cli.EXIT_CAPACITY
        assert "narrower-band DWDM" in capsys.readouterr().err

    # Recorded with the planner that listed uncovered user pairs: counting
    # them instead moves no byte.
    @pytest.mark.parametrize(
        "argv, size, digest",
        [
            (["--subnets", "5", "--users-per-subnet", "3"], 2449,
             "56cbd4b8f875a5b5f717b63842c0da5768a2415dc78e3127bea47c8e0c2b7ad3"),
            (["--subnets", "1", "--users-per-subnet", "1"], 381,
             "56612d970a487e7fb246384f62c876b82723d43338d9b90864a97675186c8dc5"),
            (["--subnets", "140", "--users-per-subnet", "35", "--grid-size", "10000"], 1_479_081,
             "9d675d5ff38d0d7bb98a90c1f42ec1107b3bf762744ce70f2b7a0d32f4b11e8c"),
        ],
        ids=["5x3", "1x1", "140x35"],
    )
    def test_stdout_bytes(self, capsys, argv, size, digest):
        assert cli.main(["plan", *argv]) == cli.EXIT_OK
        out = capsys.readouterr().out.encode()
        assert (len(out), hashlib.sha256(out).hexdigest()) == (size, digest)

    # argparse's own exit code, 2, is the protocol-abort code, so main maps
    # a usage error to 1.
    @pytest.mark.parametrize(
        "argv, code",
        [
            (["run"], cli.EXIT_VALIDATION),
            (["plan", "--subnets", "x", "--users-per-subnet", "3"], cli.EXIT_VALIDATION),
            (["--help"], cli.EXIT_OK),
            (["bogus"], cli.EXIT_VALIDATION),
            ([], cli.EXIT_VALIDATION),
        ],
        ids=["run_without_scenario", "subnets_not_int", "help", "bogus", "none"],
    )
    def test_exit_codes(self, capsys, argv, code):
        assert cli.main(argv) == code

    # The help, usage and error text, byte for byte, of the parser that built
    # every command's arguments whatever argv named: exit code and the sha256
    # of stdout and stderr, recorded with CPython 3.11's argparse at 80 columns.
    @pytest.mark.parametrize(
        "argv, code, stdout_sha256, stderr_sha256",
        [
            ([], cli.EXIT_VALIDATION,
             NOTHING,
             "0c87df1f5ba33415d2aa8b301853c2a93d5b6c9932bab6c3622a2ed6edc96a7f"),
            (["-h"], cli.EXIT_OK,
             "033193a62e8bee241c919d0c90cddee9a311ce4f34697e5be0ab443aa6622f94",
             NOTHING),
            (["--help"], cli.EXIT_OK,
             "033193a62e8bee241c919d0c90cddee9a311ce4f34697e5be0ab443aa6622f94",
             NOTHING),
            (["bogus"], cli.EXIT_VALIDATION,
             NOTHING,
             "8419dc7cabb398645d1c3c2bcba80663ae7e783eeadc601228fa0f6b0438af5a"),
            (["ru"], cli.EXIT_VALIDATION,
             NOTHING,
             "41d81a213acaf3c78b570c282e89149d5d14c07c44b5aa3964f629f6e76fa3fe"),
            (["-h", "run"], cli.EXIT_OK,
             "033193a62e8bee241c919d0c90cddee9a311ce4f34697e5be0ab443aa6622f94",
             NOTHING),
            (["plan", "-h"], cli.EXIT_OK,
             "40cd14c59b38678bfc8fc32d3ee6965588f15587731663cd4918b746ffae2e8e",
             NOTHING),
            (["run", "-h"], cli.EXIT_OK,
             "66c174f2dd6a53713734aa11d3625ca3af407d851909b3768b04006b2fc0d938",
             NOTHING),
            (["sweep", "-h"], cli.EXIT_OK,
             "6d007e6b0f9e5b0d73a0ab93240af6a149a3047346b4217f4744c61ce497cdfc",
             NOTHING),
            (["fringe", "-h"], cli.EXIT_OK,
             "7dad1770dd9c615c8bb5bdba8264162f6d7872be8dc39eca4280f7f727393bfd",
             NOTHING),
            (["run"], cli.EXIT_VALIDATION,
             NOTHING,
             "011643cc94e539cd2fa37437f33892fcca51e92265f8585ccdfd951a356a6a57"),
            (["plan", "--subnets", "x"], cli.EXIT_VALIDATION,
             NOTHING,
             "271a1b4a36cfcc521aa7fd7ee11b0c50d053911fbc674509ca701642a643dadc"),
            (["run", "--scenario", "x", "--bogus"], cli.EXIT_VALIDATION,
             NOTHING,
             "43ae1765f3277f4de2d6a5ca4a2a9d1da1beb37e102dc165422391bb7f2bd2d7"),
            (["fringe", "--bell-state", "nope"], cli.EXIT_VALIDATION,
             NOTHING,
             "648835fd54195eac3c602953e696b91f96f6e42acde5666e728c8fa0f7c3ff79"),
            (["run", "--scenario", "sweep", "-h"], cli.EXIT_OK,
             "66c174f2dd6a53713734aa11d3625ca3af407d851909b3768b04006b2fc0d938",
             NOTHING),
        ],
        ids=[
            "none", "h", "help", "bogus", "ru", "h_run", "plan_h", "run_h", "sweep_h", "fringe_h",
            "run_without_scenario", "subnets_not_int", "unrecognized_extra", "bad_bell_state",
            "command_as_value",
        ],
    )
    def test_parser_text(self, capsys, monkeypatch, argv, code, stdout_sha256, stderr_sha256):
        monkeypatch.setenv("COLUMNS", "80")
        assert cli.main(argv) == code
        captured = capsys.readouterr()
        assert hashlib.sha256(captured.out.encode()).hexdigest() == stdout_sha256
        assert hashlib.sha256(captured.err.encode()).hexdigest() == stderr_sha256

    # With no argv, main reads sys.argv[1:]; any other iterable parses as its list.
    @pytest.mark.parametrize("source", ["sys_argv", "iterator", "tuple"])
    def test_argv_sources_parse_as_the_list(self, capsys, monkeypatch, source):
        argv = ["plan", "--subnets", "1", "--users-per-subnet", "1"]
        assert cli.main(argv) == cli.EXIT_OK
        expected = capsys.readouterr()
        if source == "sys_argv":
            monkeypatch.setattr(sys, "argv", ["qsdcnet", *argv])
            code = cli.main()
        else:
            code = cli.main(iter(argv) if source == "iterator" else tuple(argv))
        assert code == cli.EXIT_OK
        assert capsys.readouterr() == expected

    @pytest.mark.parametrize(
        "subnets, users_per_subnet, grid_size",
        [
            (1, MAX_USERS_PER_SUBNET + 1, 15),
            (1, 10**12, 15),
            (1, 1, MAX_GRID_SIZE + 1),
            (MAX_USERS // MAX_USERS_PER_SUBNET + 1, MAX_USERS_PER_SUBNET, 21),
        ],
        ids=["users_per_subnet", "users_per_subnet_1e12", "grid_size", "total_users"],
    )
    def test_counts_above_their_ceiling_rejected(
        self, capsys, subnets, users_per_subnet, grid_size
    ):
        argv = ["plan", "--subnets", str(subnets), "--users-per-subnet", str(users_per_subnet)]
        code = cli.main(argv + ["--grid-size", str(grid_size)])
        assert code == cli.EXIT_VALIDATION
        assert " must be <= " in capsys.readouterr().err


# Option values: ints, a float and a word where an int is wanted, a negative
# number, text that looks like an option, an empty string and a command name.
_INTS = ("3", "8", "-3", "2.5", "x")
_TEXT = ("s.json", "eve.fraction", "0,0.1", "-0.1,0.2", "-x", "", "sweep")
# Each command's options and the values drawn for them.
PARSE_OPTIONS = {
    "plan": {"--subnets": _INTS, "--users-per-subnet": _INTS, "--grid-size": _INTS},
    "run": {"--scenario": _TEXT, "--seed": _INTS, "--out": _TEXT},
    "sweep": {"--scenario": _TEXT, "--seed": _INTS, "--param": _TEXT, "--values": _TEXT, "--out": _TEXT},
    "fringe": {
        "--scenario": _TEXT, "--seed": _INTS, "--bell-state": ("phi_minus", "psi_plus", "nope"),
        "--phases": _INTS, "--shots-per-phase": _INTS, "--out": _TEXT, "--format": ("csv", "jsonl", "xml"),
    },
}
# Words that are no option's value: unknown options, help flags, stray
# positionals, the end-of-options marker and a negative number.
_NOISE = ("--bogus", "--bogus=1", "-b", "-h", "--help", "--he", "extra", "run", "--", "-0.5")


@st.composite
def command_argvs(draw):
    """An argv of one command: its options in any order, as ``--opt value`` or
    ``--opt=value``, by any prefix, some repeated, with noise words anywhere;
    most lead with the command, some name it later, abbreviate it or omit it."""
    command = draw(st.sampled_from(sorted(PARSE_OPTIONS)))
    options = PARSE_OPTIONS[command]
    flags = draw(st.lists(st.sampled_from(sorted(options)), max_size=2 * len(options)))
    words = []
    for flag in [*draw(st.permutations(sorted(options))), *flags]:
        if draw(st.integers(0, 9)) == 0:
            continue
        value = draw(st.sampled_from(options[flag][:2] * 10 + options[flag][2:]))
        # A unique prefix, mostly; a shorter one may be ambiguous.
        others = [other for other in [*options, "--help"] if other != flag]
        unique = next(n for n in range(3, len(flag) + 1) if not any(o.startswith(flag[:n]) for o in others))
        name = flag[: draw(st.integers(draw(st.sampled_from([unique] * 5 + [3])), len(flag)))]
        words += [f"{name}={value}"] if draw(st.booleans()) else [name, value]
    for _ in range(draw(st.sampled_from([0, 0, 1, 2]))):
        words.insert(draw(st.integers(0, len(words))), draw(st.sampled_from(_NOISE)))
    lead = draw(st.sampled_from(["command"] * 6 + ["later", "abbreviated", "omitted"]))
    if lead == "later":
        words.insert(draw(st.integers(1, max(len(words), 1))), command)
        return words
    return {"command": [command], "abbreviated": [command[:2]], "omitted": []}[lead] + words


def _outcome(call, argv):
    """(exit code or None, stdout, stderr, result) of call(argv): the code
    main gives argparse's exit, or None and what call returned."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            result = call(argv)
        except SystemExit as exc:
            code = cli.EXIT_OK if exc.code == 0 else cli.EXIT_VALIDATION
            return code, out.getvalue(), err.getvalue(), None
    return None, out.getvalue(), err.getvalue(), result


class FullParserBuilt(Exception):
    pass


class TestParseEntry:
    """cli.parse_args parses a command's arguments with that command's own
    parser, and builds the full parser only for what that parser leaves."""

    # Every command function is a stub that records the Namespace it is given.
    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(argv=command_argvs())
    @example(argv=["sweep", "--scen", "s.json", "--param", "eve.fraction", "--values", "0,0.1"])
    @example(argv=["run", "--s", "s.json"])
    @example(argv=["run", "--scenario=s.json", "--seed=3", "--out=o"])
    @example(argv=["run", "--scenario", "a.json", "--scenario", "b.json"])
    @example(argv=["run", "--", "--scenario", "s.json"])
    @example(argv=["run", "--scenario", "s.json", "--", "extra"])
    @example(argv=["sweep", "--scenario", "s.json", "--param", "eve.fraction", "--values", "-0.1,0.2"])
    @example(argv=["sweep", "--scenario", "s.json", "--param", "eve.fraction", "--values=-0.1,0.2"])
    @example(argv=["run", "--bogus", "-h"])
    @example(argv=["--bogus", "-h"])
    @example(argv=["run", "--scenario", "sweep", "-h"])
    @example(argv=["fringe", "--scenario", "s.json", "--bell-state", "nope", "--bogus"])
    @example(argv=["plan", "--subnets", "1", "--users-per-subnet", "1", "extra"])
    def test_main_and_the_parse_entry_match_the_full_parser(self, argv):
        ran = []

        def record(args):
            ran.append(args)
            return cli.EXIT_OK

        with pytest.MonkeyPatch.context() as patch:
            patch.setenv("COLUMNS", "80")
            for name, (text, _) in cli.COMMANDS.items():
                patch.setitem(cli.COMMANDS, name, (text, record))
            full = _outcome(cli.build_parser().parse_args, argv)
            assert ran == []
            assert _outcome(cli.parse_args, argv) == full
            code, out, err, namespace = full
            if code is None:
                assert _outcome(cli.main, argv) == (None, out, err, cli.EXIT_OK)
                assert ran == [namespace]
            else:
                assert _outcome(cli.main, argv) == (None, out, err, code)
                assert ran == []

    @pytest.mark.parametrize("command", ["plan", "run", "sweep", "fringe"])
    def test_a_well_formed_command_never_builds_the_full_parser(
        self, tmp_path, monkeypatch, capsys, command
    ):
        scenario_path = write_scenario(tmp_path, ideal_scenario_dict(seed=1))
        argv = {
            "plan": ["plan", "--subnets", "1", "--users-per-subnet", "1"],
            "run": ["run", "--scenario", scenario_path],
            "sweep": ["sweep", "--scenario", scenario_path, "--param", "eve.fraction", "--values", "0,0.1"],
            "fringe": ["fringe", "--scenario", scenario_path, "--phases", "8"],
        }[command]
        out = {name: [] if command == "plan" else ["--out", str(tmp_path / name)] for name in ("full", "entry")}

        def written(name):
            return {path.name: path.read_bytes() for path in sorted(tmp_path.glob(f"{name}/*"))}

        # What the full parser's Namespace gives, then the same argv through main.
        args = cli.build_parser().parse_args([*argv, *out["full"]])
        assert args.func(args) == cli.EXIT_OK
        usual = capsys.readouterr().out

        def refuse():
            raise FullParserBuilt

        monkeypatch.setattr(cli, "build_parser", refuse)
        assert cli.main([*argv, *out["entry"]]) == cli.EXIT_OK
        assert capsys.readouterr().out == usual
        assert written("entry") == written("full")
        assert bool(written("full")) == (command != "plan")
        with pytest.raises(FullParserBuilt):
            cli.main(["run", "--scenario", "x", "--bogus"])


class TestRunCommand:
    def test_ideal_run_writes_deterministic_outputs(self, tmp_path, capsys):
        scenario_path = write_scenario(tmp_path, ideal_scenario_dict(seed=11, message_hex="deadbeef" * 8))
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert cli.main(["run", "--scenario", scenario_path, "--out", str(out_a)]) == cli.EXIT_OK
        assert cli.main(["run", "--scenario", scenario_path, "--out", str(out_b)]) == cli.EXIT_OK
        report = json.loads((out_a / "report.json").read_text())
        assert report["session"]["ber"] == 0.0
        assert report["plan"]["fully_connected"] is True
        assert report["qber"]["e"] == 0.0
        assert (out_a / "report.json").read_bytes() == (out_b / "report.json").read_bytes()
        assert (out_a / "transcript.jsonl").read_bytes() == (out_b / "transcript.jsonl").read_bytes()

    def test_a_stdout_closed_early_exits_1_without_a_traceback(self, tmp_path):
        # As `qsdcnet run ... | head -c 50` does: the reader closes the pipe
        # while the 1 Mbit report is still being written to it.
        doc = ideal_scenario_dict(seed=13)
        doc["message"] = {"random_bits": 1_000_000}
        scenario_path = write_scenario(tmp_path, doc)
        out = tmp_path / "out"
        child = subprocess.Popen(
            [sys.executable, "-c", "import sys; from qsdcnet import cli; sys.exit(cli.main())",
             "run", "--scenario", scenario_path, "--out", str(out)],
            env={**os.environ, "PYTHONPATH": str(SRC)},
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
        )
        head = child.stdout.read(50)
        child.stdout.close()
        stderr = child.stderr.read()
        child.stderr.close()
        assert child.wait(timeout=60) == cli.EXIT_VALIDATION
        assert stderr == b""
        # Both files were complete before stdout was written.
        report = (out / "report.json").read_bytes()
        assert report.startswith(head) and json.loads(report)["session"]["status"] == "completed"
        last = (out / "transcript.jsonl").read_bytes().splitlines()[-1]
        assert json.loads(last)["event_kind"] == "session_complete"

    def test_transcript_schema(self, tmp_path):
        scenario_path = write_scenario(tmp_path, ideal_scenario_dict(seed=12, message_hex="ff00"))
        out = tmp_path / "out"
        cli.main(["run", "--scenario", scenario_path, "--out", str(out)])
        for line in (out / "transcript.jsonl").read_text().splitlines():
            record = json.loads(line)
            assert list(record) == ["timestamp_s", "event_kind", "payload"]

    def test_seed_override_changes_digest(self, tmp_path):
        doc = ideal_scenario_dict(seed=1)
        doc["message"] = {"random_bits": 128}
        scenario_path = write_scenario(tmp_path, doc)
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        cli.main(["run", "--scenario", scenario_path, "--out", str(out_a)])
        cli.main(["run", "--scenario", scenario_path, "--seed", "2", "--out", str(out_b)])
        digest_a = json.loads((out_a / "report.json").read_text())["scenario_digest"]
        digest_b = json.loads((out_b / "report.json").read_text())["scenario_digest"]
        assert digest_a != digest_b

    @pytest.mark.parametrize("command", ["run", "sweep", "fringe"])
    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_out_of_range_seed_override(self, tmp_path, capsys, command, seed):
        # The text a full scenario parse gives for the seed, exit code 1,
        # and nothing written.
        scenario_path = write_scenario(tmp_path, ideal_scenario_dict(seed=1, message_hex="ab"))
        sweep = ["--param", "eve.fraction", "--values", "0.1"] if command == "sweep" else []
        out = tmp_path / "out"
        code = cli.main(
            [command, "--scenario", scenario_path, "--seed", str(seed), *sweep, "--out", str(out)]
        )
        assert code == cli.EXIT_VALIDATION
        assert capsys.readouterr().err == (
            f"error: seed: must be a 64-bit unsigned integer, got {seed}\n"
        )
        assert not out.exists()

    def test_abort_exit_code(self, tmp_path, capsys):
        doc = ideal_scenario_dict(seed=13, message_hex="abcd")
        doc["eve"] = {"kind": "intercept_resend", "fraction": 1.0}
        scenario_path = write_scenario(tmp_path, doc)
        code = cli.main(["run", "--scenario", scenario_path, "--out", str(tmp_path / "out")])
        assert code == cli.EXIT_ABORT
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert report["session"]["status"] == "aborted"
        assert report["qber"]["e"] > 0.2

    def test_validation_exit_code(self, tmp_path, capsys):
        doc = ideal_scenario_dict(seed=1)
        doc["devices"]["sfg"]["conversion_efficiency"] = 2.0
        scenario_path = write_scenario(tmp_path, doc)
        code = cli.main(["run", "--scenario", scenario_path, "--out", str(tmp_path / "out")])
        assert code == cli.EXIT_VALIDATION
        assert "devices.sfg" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "topology",
        [{"subnets": 0}, {"grid_size": 0}, {"subnets": 6}, {"users_per_subnet": 0}],
        ids=["no_subnets", "empty_grid", "grid_too_small", "no_users"],
    )
    def test_bad_topology_rejected_before_the_session(self, tmp_path, capsys, topology):
        doc = ideal_scenario_dict(seed=16)
        doc["topology"].update(topology)
        scenario_path = write_scenario(tmp_path, doc)
        code = cli.main(["run", "--scenario", scenario_path, "--out", str(tmp_path / "out")])
        assert code == cli.EXIT_VALIDATION
        assert "topology: " in capsys.readouterr().err
        assert not (tmp_path / "out" / "transcript.jsonl").exists()

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    @pytest.mark.parametrize("path", ["devices.alice_fiber.length_km", "eve.fraction"])
    def test_non_finite_number_rejected(self, tmp_path, capsys, path, value):
        doc = ideal_scenario_dict(seed=15)
        *parents, key = path.split(".")
        node = doc
        for name in parents:
            node = node[name]
        node[key] = value
        scenario_path = write_scenario(tmp_path, doc)  # json writes NaN / Infinity
        code = cli.main(["run", "--scenario", scenario_path, "--out", str(tmp_path / "out")])
        assert code == cli.EXIT_VALIDATION
        assert f"{path}: must be finite" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("excess", [1, 10**30])
    @pytest.mark.parametrize(
        "path, ceiling",
        [
            ("message.random_bits", MAX_RANDOM_BITS),
            ("protocol.detection_size", MAX_DETECTION_SIZE),
            ("protocol.block_size", MAX_BLOCK_SIZE),
            ("topology.users_per_subnet", MAX_USERS_PER_SUBNET),
            ("topology.grid_size", MAX_GRID_SIZE),
        ],
    )
    def test_counts_above_their_ceiling_rejected(self, tmp_path, capsys, path, ceiling, excess):
        doc = ideal_scenario_dict(seed=17)
        section, key = path.split(".")
        if section == "message":  # random_bits stands in for the hex payload
            doc["message"] = {}
        doc[section][key] = ceiling + excess
        scenario_path = write_scenario(tmp_path, doc)
        code = cli.main(["run", "--scenario", scenario_path, "--out", str(tmp_path / "out")])
        assert code == cli.EXIT_VALIDATION
        assert f"{path}: must be " in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_removed_extinction_error_key_rejected(self, tmp_path, capsys):
        doc = ideal_scenario_dict(seed=18)
        doc["devices"]["modulator"]["extinction_error"] = 0.0
        out = tmp_path / "out"
        code = cli.main(["run", "--scenario", write_scenario(tmp_path, doc), "--out", str(out)])
        assert code == cli.EXIT_VALIDATION
        err = capsys.readouterr().err
        assert err.endswith("devices.modulator.extinction_error: unknown field\n")
        assert not out.exists()

    @pytest.mark.parametrize(
        "topology, path",
        [
            ({"subnets": 10**6, "users_per_subnet": 3, "grid_size": 10**13}, "topology.grid_size"),
            ({"subnets": 6, "users_per_subnet": MAX_USERS_PER_SUBNET, "grid_size": 21}, "topology.subnets"),
        ],
        ids=["huge_grid", "total_users"],
    )
    def test_topology_above_its_ceilings_rejected(self, tmp_path, capsys, topology, path):
        doc = ideal_scenario_dict(seed=18)
        doc["topology"] = topology
        scenario_path = write_scenario(tmp_path, doc)
        code = cli.main(["run", "--scenario", scenario_path, "--out", str(tmp_path / "out")])
        assert code == cli.EXIT_VALIDATION
        assert f"{path}: must be <= " in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "topology",
        [
            {"subnets": 5, "users_per_subnet": MAX_USERS_PER_SUBNET},
            {"subnets": 140, "users_per_subnet": 35, "grid_size": MAX_GRID_SIZE},
        ],
    )
    def test_topology_at_its_ceilings_builds(self, topology):
        doc = ideal_scenario_dict(seed=18)
        doc["topology"].update(topology)
        assert scenario_from_dict(doc).to_dict()["topology"] == doc["topology"]

    def test_report_json_is_strict(self):
        with pytest.raises(ValueError):
            report_pieces({"session": {"ber": float("nan")}})

    def test_out_dir_env_default(self, tmp_path, monkeypatch):
        monkeypatch.setenv(cli.OUT_DIR_ENV, str(tmp_path / "envout"))
        scenario_path = write_scenario(tmp_path, ideal_scenario_dict(seed=14, message_hex="55"))
        assert cli.main(["run", "--scenario", scenario_path]) == cli.EXIT_OK
        assert (tmp_path / "envout" / "report.json").exists()


def sweep_base_dict(seed=21):
    doc = ideal_scenario_dict(seed=seed)
    doc["devices"]["modulator"]["rate_hz"] = 1e4
    doc["protocol"]["detection_size"] = 8000
    doc["protocol"]["min_samples"] = 500
    doc["message"] = {"random_bits": 4000}
    return doc


class TestSweepCommand:
    @staticmethod
    def sent_messages(monkeypatch, argv) -> list:
        """The message of each row's session, as ``sweep`` passed it."""
        sent = []
        run_qsdc = protocol.run_qsdc

        def recording(message, *arguments):
            sent.append(message)
            return run_qsdc(message, *arguments)

        monkeypatch.setattr(protocol, "run_qsdc", recording)
        assert cli.main(argv) == cli.EXIT_OK
        return sent

    def test_hex_message_is_resolved_once_for_every_row(self, tmp_path, monkeypatch, capsys):
        doc = ideal_scenario_dict(message_hex="c0ffee5")
        argv = ["sweep", "--scenario", write_scenario(tmp_path, doc), "--param",
                "eve.fraction", "--values", "0,0.1,0.2", "--out", str(tmp_path)]
        sent = self.sent_messages(monkeypatch, argv)
        assert len(sent) == 3
        codes = sent[0].codes
        assert all(message.codes is codes for message in sent)
        expected = MessageCodes.from_bytes(bytes.fromhex("c0ffee50"), 28)
        np.testing.assert_array_equal(codes, expected.codes)
        assert {message.bit_count for message in sent} == {28}
        assert not codes.flags.writeable
        with pytest.raises(ValueError):
            codes[0] = 0

    def test_bit_length_sweep_gives_each_row_its_codes(self, tmp_path, monkeypatch, capsys):
        doc = ideal_scenario_dict(message_hex="c0ffee5")
        argv = ["sweep", "--scenario", write_scenario(tmp_path, doc), "--param",
                "message.bit_length", "--values", "5,28,12", "--out", str(tmp_path)]
        sent = self.sent_messages(monkeypatch, argv)
        assert [message.bit_count for message in sent] == [5, 28, 12]
        assert len({id(message.codes) for message in sent}) == 3
        for message in sent:
            expected = MessageCodes.from_bytes(bytes.fromhex("c0ffee50"), message.bit_count)
            np.testing.assert_array_equal(message.codes, expected.codes)

    def test_fiber_length_sweep_monotone(self, tmp_path, capsys):
        scenario_path = write_scenario(tmp_path, sweep_base_dict())
        code = cli.main([
            "sweep", "--scenario", scenario_path,
            "--param", "devices.alice_fiber.length_km",
            "--values", "0,10,20,40", "--out", str(tmp_path),
        ])
        assert code == cli.EXIT_OK
        rows = list(csv.DictReader((tmp_path / "sweep.csv").open()))
        assert [row["value"] for row in rows] == ["0.0", "10.0", "20.0", "40.0"]
        rates = [float(row["info_rate_bits_per_s"]) for row in rows]
        assert all(earlier >= later for earlier, later in zip(rates, rates[1:]))
        assert all(row["status"] == "completed" for row in rows)
        seeds = [int(row["seed"]) for row in rows]
        assert seeds == [21 ^ 0, 21 ^ 1, 21 ^ 2, 21 ^ 3]

    def test_eve_fraction_sweep_follows_quarter_law(self, tmp_path):
        doc = sweep_base_dict(seed=22)
        doc["eve"] = {"kind": "intercept_resend", "fraction": 0.0}
        doc["protocol"]["qber_threshold"] = 0.45
        doc["protocol"]["detection_size"] = 20000
        doc["message"] = {"random_bits": 400}
        scenario_path = write_scenario(tmp_path, doc)
        code = cli.main([
            "sweep", "--scenario", scenario_path,
            "--param", "eve.fraction", "--values", "0,0.5,1", "--out", str(tmp_path),
        ])
        assert code == cli.EXIT_OK
        rows = list(csv.DictReader((tmp_path / "sweep.csv").open()))
        measured = [float(row["qber_e"]) for row in rows]
        for value, expected in zip(measured, (0.0, 0.125, 0.25)):
            assert value == pytest.approx(expected, abs=0.015)

    def test_retransmission_cap_rows_read_aborted(self, tmp_path, capsys):
        # About 60% of pairs are lost on 10 km arms: with no retransmission
        # the first block erases some symbol past the cap.
        doc = ideal_scenario_dict(seed=12)
        doc["devices"]["alice_fiber"]["length_km"] = 10.0
        doc["devices"]["bob_fiber"]["length_km"] = 10.0
        doc["protocol"]["detection_size"] = 4000
        doc["message"] = {"random_bits": 200}
        scenario_path = write_scenario(tmp_path, doc)
        code = cli.main([
            "sweep", "--scenario", scenario_path,
            "--param", "protocol.max_retransmissions", "--values", "0,200",
            "--out", str(tmp_path),
        ])
        assert code == cli.EXIT_OK
        rows = list(csv.DictReader((tmp_path / "sweep.csv").open()))
        assert [row["status"] for row in rows] == ["aborted", "completed"]
        assert [row["ber"] for row in rows] == ["", "0.0"]
        # Only the completed row claims a secrecy bound; both keep a rate.
        assert rows[0]["cs_lower"] == "" and float(rows[1]["cs_lower"]) > 0.0
        assert all(float(row["info_rate_bits_per_s"]) > 0.0 for row in rows)

    def test_empty_values_gives_header_only_csv(self, tmp_path):
        scenario_path = write_scenario(tmp_path, sweep_base_dict())
        code = cli.main([
            "sweep", "--scenario", scenario_path,
            "--param", "devices.alice_fiber.length_km",
            "--values", "", "--out", str(tmp_path),
        ])
        assert code == cli.EXIT_OK
        lines = (tmp_path / "sweep.csv").read_text().strip().splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("index,parameter,value,seed,status")

    def test_negative_values_need_the_equals_form(self, tmp_path, capsys):
        # argparse reads a list that starts with "-" as an option, so README
        # gives the --values=-0.1,0.2 form; the space form is a usage error.
        argv = ["sweep", "--scenario", write_scenario(tmp_path, sweep_base_dict()),
                "--param", "devices.source.noise.phase_offset_rad", "--out", str(tmp_path)]
        assert cli.main([*argv, "--values", "-0.1,0.2"]) == cli.EXIT_VALIDATION
        assert "--values: expected one argument" in capsys.readouterr().err
        assert not (tmp_path / "sweep.csv").exists()
        assert cli.main([*argv, "--values=-0.1,0.2"]) == cli.EXIT_OK
        rows = list(csv.DictReader((tmp_path / "sweep.csv").open()))
        assert [row["value"] for row in rows] == ["-0.1", "0.2"]

    @staticmethod
    def schema_error(doc) -> str:
        with pytest.raises(ScenarioError) as raised:
            scenario_from_dict(doc)
        return str(raised.value)

    def test_bad_parameter_path(self, tmp_path, capsys):
        doc = sweep_base_dict()
        scenario_path = write_scenario(tmp_path, doc)
        code = cli.main([
            "sweep", "--scenario", scenario_path,
            "--param", "devices.pump_laser.power", "--values", "1,2", "--out", str(tmp_path),
        ])
        assert code == cli.EXIT_VALIDATION
        # The error a file with that key gets.
        doc["devices"]["pump_laser"] = {"power": 1.0}
        error = self.schema_error(doc)
        assert error == "devices.pump_laser: unknown field"
        assert capsys.readouterr().err == f"error: devices.pump_laser.power=1.0: {error}\n"

    def test_non_scalar_path_rejected(self, tmp_path, capsys):
        doc = sweep_base_dict()
        scenario_path = write_scenario(tmp_path, doc)
        code = cli.main([
            "sweep", "--scenario", scenario_path,
            "--param", "devices.alice_fiber", "--values", "1", "--out", str(tmp_path),
        ])
        assert code == cli.EXIT_VALIDATION
        doc["devices"]["alice_fiber"] = 1.0
        error = self.schema_error(doc)
        assert error == "devices.alice_fiber: expected an object"
        assert capsys.readouterr().err == f"error: devices.alice_fiber=1.0: {error}\n"

    @pytest.mark.parametrize(
        "unset, param, values",
        [
            # Each row's detection rounds follow its own block size: 2 photons
            # abort at block_size 20, 10,000 complete at 100,000.
            ("detection_size", "protocol.block_size", (20.0, 100000.0)),
            # A leaf the hex message leaves unset.
            ("bit_length", "message.bit_length", (12.0, 40.0)),
        ],
    )
    def test_row_matches_run_of_the_edited_file(self, tmp_path, capsys, unset, param, values):
        doc = ideal_scenario_dict(seed=23)
        doc["protocol"].pop(unset, None)
        assert unset not in doc["protocol"] and unset not in doc["message"]
        scenario_path = write_scenario(tmp_path, doc)
        code = cli.main([
            "sweep", "--scenario", scenario_path, "--param", param,
            "--values", ",".join(map(str, values)), "--out", str(tmp_path / "sweep"),
        ])
        assert code == cli.EXIT_OK
        rows = list(csv.DictReader((tmp_path / "sweep" / "sweep.csv").open()))
        assert len(rows) == len(values)
        section, leaf = param.split(".")
        for index, (row, value) in enumerate(zip(rows, values)):
            edited = json.loads(json.dumps(doc))
            edited[section][leaf] = value
            edited["seed"] = 23 ^ index
            edited_path = write_scenario(tmp_path, edited, f"variant{index}.json")
            out = tmp_path / f"run{index}"
            code = cli.main(["run", "--scenario", edited_path, "--out", str(out)])
            report = json.loads((out / "report.json").read_text())
            status = report["session"]["status"]
            assert code == (cli.EXIT_OK if status == "completed" else cli.EXIT_ABORT)
            qber = report["qber"] or {}
            secrecy = report["secrecy"] or {}
            expected = {
                "status": status,
                "qber_e": qber.get("e"),
                "cs_lower": secrecy.get("cs_lower"),
                "info_rate_bits_per_s": report["throughput"]["info_rate_bits_per_s"],
                "erasure_fraction": report["session"]["erasure_fraction"],
                "ber": report["session"]["ber"],
            }
            got = {
                name: text if name == "status" else (None if text == "" else float(text))
                for name, text in row.items() if name in expected
            }
            assert got == expected, index
        if unset == "detection_size":
            assert [row["status"] for row in rows] == ["aborted", "completed"]

    def test_each_row_says_what_run_says(self, tmp_path, capsys):
        # A full intercept-resend Eve puts the QBER near 25%, over the
        # threshold, so the last row aborts and the others complete.
        doc = ideal_scenario_dict(seed=31)
        doc["eve"] = {"kind": "intercept_resend", "fraction": 0.0}
        values = (0.0, 0.1, 1.0)
        code = cli.main([
            "sweep", "--scenario", write_scenario(tmp_path, doc), "--param", "eve.fraction",
            "--values", ",".join(map(str, values)), "--out", str(tmp_path / "sweep"),
        ])
        assert code == cli.EXIT_OK
        rows = list(csv.DictReader((tmp_path / "sweep" / "sweep.csv").open()))
        assert [row["status"] for row in rows] == ["completed", "completed", "aborted"]
        for index, (row, value) in enumerate(zip(rows, values)):
            doc["eve"]["fraction"] = value
            variant = write_scenario(tmp_path, doc, f"variant{index}.json")
            out = tmp_path / f"run{index}"
            cli.main(["run", "--scenario", variant, "--seed", row["seed"], "--out", str(out)])
            report = json.loads((out / "report.json").read_text())
            expected = {
                "status": report["session"]["status"],
                "qber_e": (report["qber"] or {}).get("e"),
                "cs_lower": (report["secrecy"] or {}).get("cs_lower"),
                "info_rate_bits_per_s": report["throughput"]["info_rate_bits_per_s"],
                "erasure_fraction": report["session"]["erasure_fraction"],
                "ber": report["session"]["ber"],
            }
            # The text csv writes for each value, "" for null.
            assert {name: row[name] for name in expected} == {
                name: "" if want is None else str(want) for name, want in expected.items()
            }, index

    @pytest.mark.parametrize(
        "param, values, error",
        [
            ("eve.fraction", "0.5,1.5", "eve.fraction=1.5: eve.fraction: must be in [0, 1], got 1.5"),
            ("protocol.block_size", "2.5", "protocol.block_size=2.5: protocol.block_size: "
             "expected int, got float"),
            ("protocol.qber_threshold", "0.7", "protocol.qber_threshold=0.7: "
             "protocol.qber_threshold: must be in (0, 0.5), got 0.7"),
            ("devices.source.noise.depolarizing_p", "inf", "devices.source.noise.depolarizing_p=inf: "
             "devices.source.noise.depolarizing_p: must be finite, got inf"),
        ],
    )
    def test_bad_value_names_its_path(self, tmp_path, capsys, param, values, error):
        scenario_path = write_scenario(tmp_path, sweep_base_dict())
        out = tmp_path / "out"
        code = cli.main([
            "sweep", "--scenario", scenario_path,
            "--param", param, "--values", values, "--out", str(out),
        ])
        assert code == cli.EXIT_VALIDATION
        assert capsys.readouterr().err == f"error: {error}\n"
        assert not out.exists()

    def test_seed_parameter_rejected(self, tmp_path, capsys):
        # Row seeds are base ^ index, so a swept seed would be overwritten.
        scenario_path = write_scenario(tmp_path, ideal_scenario_dict(seed=1))
        out = tmp_path / "out"
        code = cli.main([
            "sweep", "--scenario", scenario_path,
            "--param", "seed", "--values", "7,7,99", "--out", str(out),
        ])
        assert code == cli.EXIT_VALIDATION
        assert "set the base seed with --seed" in capsys.readouterr().err
        assert not out.exists()


class TestFringeCommand:
    def test_bell_state_choices_are_the_bell_labels(self):
        assert list(cli.BELL_STATE_CHOICES) == sorted(label.name.lower() for label in BellLabel)

    def test_ideal_phi_plus_fringe(self, tmp_path, capsys):
        scenario_path = write_scenario(tmp_path, ideal_scenario_dict(seed=31, message_hex="aa"))
        code = cli.main([
            "fringe", "--scenario", scenario_path, "--bell-state", "phi_plus",
            "--phases", "32", "--shots-per-phase", "4000", "--out", str(tmp_path),
        ])
        assert code == cli.EXIT_OK
        summary = json.loads(capsys.readouterr().out)
        assert summary["visibility"] == pytest.approx(1.0, abs=0.02)
        assert summary["fidelity_isotropic"] == pytest.approx(1.0, abs=0.02)
        table = list(csv.DictReader((tmp_path / "fringe_phi_plus.csv").open()))
        assert len(table) == 32

    def test_phi_minus_shifted_by_pi(self, tmp_path, capsys):
        scenario_path = write_scenario(tmp_path, ideal_scenario_dict(seed=32, message_hex="aa"))
        thetas = {}
        for label in ("phi_plus", "phi_minus"):
            cli.main([
                "fringe", "--scenario", scenario_path, "--bell-state", label,
                "--phases", "32", "--shots-per-phase", "4000", "--out", str(tmp_path),
            ])
            thetas[label] = json.loads(capsys.readouterr().out)["fringe_theta_rad"]
        shift = abs(thetas["phi_minus"] - thetas["phi_plus"])
        shift = min(shift, 2 * np.pi - shift)
        assert shift == pytest.approx(np.pi, abs=0.05)

    def test_jsonl_format(self, tmp_path):
        scenario_path = write_scenario(tmp_path, ideal_scenario_dict(seed=33, message_hex="aa"))
        cli.main([
            "fringe", "--scenario", scenario_path, "--bell-state", "psi_plus",
            "--phases", "16", "--shots-per-phase", "500",
            "--out", str(tmp_path), "--format", "jsonl",
        ])
        lines = (tmp_path / "fringe_psi_plus.jsonl").read_text().splitlines()
        assert len(lines) == 16
        assert set(json.loads(lines[0])) == {
            "phase_rad", "raw_counts", "expected_accidentals", "corrected_rate",
        }

    @pytest.mark.parametrize(
        "flag, value",
        [
            ("--phases", -1),
            ("--phases", 0),
            ("--phases", cli.MIN_PHASES - 1),  # passes no fit, so is refused before simulating
            ("--phases", cli.MAX_PHASES + 1),
            ("--phases", 10**12),
            ("--shots-per-phase", -1),
            ("--shots-per-phase", cli.MAX_SHOTS_PER_PHASE + 1),
            ("--shots-per-phase", 10**19),
        ],
    )
    def test_counts_outside_their_ceilings_rejected(self, tmp_path, capsys, flag, value):
        scenario_path = write_scenario(tmp_path, ideal_scenario_dict(seed=34))
        out = tmp_path / "out"
        code = cli.main(["fringe", "--scenario", scenario_path, flag, str(value), "--out", str(out)])
        low, high = {
            "--phases": (cli.MIN_PHASES, cli.MAX_PHASES),
            "--shots-per-phase": (1, cli.MAX_SHOTS_PER_PHASE),
        }[flag]
        assert code == cli.EXIT_VALIDATION
        assert capsys.readouterr().err == f"error: {flag} must be in [{low}, {high}], got {value}\n"
        assert not out.exists()


# Each command with the arguments it needs besides --scenario and --out.
COMMANDS = {
    "run": ["run"],
    "sweep": ["sweep", "--param", "eve.fraction", "--values", "0.1,0.2"],
    "fringe": ["fringe", "--phases", "8", "--shots-per-phase", "100"],
}


class TestCommandInputs:
    @pytest.mark.parametrize("command", sorted(COMMANDS))
    def test_scenario_not_utf8_names_its_path(self, tmp_path, capsys, command):
        path = tmp_path / "bad.json"
        path.write_bytes(b'\xff\xfe{"seed": 1}')
        out = tmp_path / "out"
        code = cli.main([*COMMANDS[command], "--scenario", str(path), "--out", str(out)])
        assert code == cli.EXIT_VALIDATION
        assert capsys.readouterr().err == (
            f"error: {path}: not UTF-8 text (byte 0: invalid start byte)\n"
        )
        assert not out.exists()

    def test_scenario_read_as_utf8_in_any_locale(self, tmp_path):
        # In the C locale without UTF-8 mode, open() without an encoding
        # decodes as ASCII and fails on the key's UTF-8 bytes.
        doc = ideal_scenario_dict(seed=1)
        doc["r\u00e9seau"] = 1
        path = tmp_path / "scenario.json"
        path.write_bytes(json.dumps(doc, ensure_ascii=False).encode("utf-8"))
        done = subprocess.run(
            [sys.executable, "-c", "import sys; from qsdcnet import cli; sys.exit(cli.main())",
             "run", "--scenario", str(path), "--out", str(tmp_path / "out")],
            env={**os.environ, "PYTHONPATH": str(SRC), "LC_ALL": "C",
                 "PYTHONCOERCECLOCALE": "0", "PYTHONUTF8": "0"},
            capture_output=True,
        )
        assert done.returncode == cli.EXIT_VALIDATION
        # stderr escapes what the ASCII locale cannot write.
        assert done.stderr == f"error: {path}: r\\xe9seau: unknown field\n".encode()

    @pytest.mark.parametrize("command", sorted(COMMANDS))
    @pytest.mark.parametrize("below", [False, True], ids=["file", "under_file"])
    def test_out_naming_a_file_rejected_first(self, tmp_path, capsys, command, below):
        scenario_path = write_scenario(tmp_path, ideal_scenario_dict(seed=1))
        blocker = tmp_path / "taken"
        blocker.write_text("kept\n")
        out = blocker / "sub" if below else blocker
        before = sorted(tmp_path.iterdir())
        code = cli.main([*COMMANDS[command], "--scenario", scenario_path, "--out", str(out)])
        assert code == cli.EXIT_VALIDATION
        captured = capsys.readouterr()
        assert captured.err == f"error: --out {out}: not a directory\n"
        assert captured.out == ""
        assert sorted(tmp_path.iterdir()) == before
        assert blocker.read_text() == "kept\n"


class TestReportContents:
    def test_fidelity_table_reflects_source_noise(self, tmp_path):
        doc = ideal_scenario_dict(seed=41, message_hex="f0")
        doc["devices"]["source"]["noise"]["depolarizing_p"] = 0.06
        scenario_path = write_scenario(tmp_path, doc)
        out = tmp_path / "out"
        cli.main(["run", "--scenario", scenario_path, "--out", str(out)])
        report = json.loads((out / "report.json").read_text())
        table = {row["bell_state"]: row["fidelity"] for row in report["fidelity_table"]}
        assert set(table) == {label.name.lower() for label in BellLabel}
        for value in table.values():
            assert value == pytest.approx(0.955, abs=1e-9)

    def test_report_embeds_canonical_scenario(self, tmp_path):
        doc = ideal_scenario_dict(seed=42, message_hex="f0")
        scenario_path = write_scenario(tmp_path, doc)
        out = tmp_path / "out"
        cli.main(["run", "--scenario", scenario_path, "--out", str(out)])
        report = json.loads((out / "report.json").read_text())
        assert report["scenario"]["seed"] == 42
        assert report["scenario_digest"] == scenario_from_dict(doc).digest()
        assert report["secrecy"]["cs_lower"] <= 1.0

    @settings(max_examples=100, deadline=None)
    @given(
        fiber_km=st.floats(min_value=0.0, max_value=30.0),
        eve_kind=st.sampled_from(["none", "intercept_resend", "tap"]),
        eve_fraction=st.floats(min_value=0.0, max_value=1.0),
        max_retransmissions=st.integers(min_value=0, max_value=3),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_only_completed_sessions_claim_secrecy(
        self, fiber_km, eve_kind, eve_fraction, max_retransmissions, seed
    ):
        doc = ideal_scenario_dict(seed=seed, message_hex="c0ffee")
        doc["devices"]["alice_fiber"]["length_km"] = fiber_km
        doc["eve"] = {"kind": eve_kind, "fraction": eve_fraction}
        doc["protocol"].update(
            block_size=8, detection_size=200, min_samples=20,
            max_retransmissions=max_retransmissions,
        )
        scenario = scenario_from_dict(doc)
        report = build_report(scenario, *read(run_session(scenario).events), None)
        session = report["session"]
        if session["status"] == "completed":
            assert report["secrecy"] is not None
        else:
            assert (report["secrecy"], session["delivered_bits"], session["ber"]) == (None,) * 3


SRC = Path(__file__).resolve().parent.parent / "src"

# Runs cli.main(argv) with stdout swallowed, then prints [exit code, the
# loaded modules that are numpy, scipy, orjson or in qsdcnet, how many
# Clopper-Pearson intervals were asked for] on its last line. The child
# imports nothing the command does not, so the intervals are read through
# sys.modules, and are 0 where qsdcnet.analysis never loaded.
_COLD_START_CHILD = """
import contextlib, io, json, sys
from qsdcnet import cli
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(json.loads(sys.argv[1]))
loaded = [m for m in sys.modules if m in ("numpy", "scipy", "orjson") or m.startswith("qsdcnet")]
analysis = sys.modules.get("qsdcnet.analysis")
calls = analysis.clopper_pearson.cache_info() if analysis else None
print(json.dumps([code, sorted(loaded), calls.hits + calls.misses if calls else 0]))
"""

# What plan loads: the CLI and the planner.
PLANNER_MODULES = ["qsdcnet", "qsdcnet.cli", "qsdcnet.errors", "qsdcnet.netplan"]
# What a command that rejects its scenario loads: the planner and the reader.
READER_MODULES = sorted([*PLANNER_MODULES, "qsdcnet.scenario"])

# report.json of the intercept-resend run below (interior QBER counts), as
# written before scipy's import moved into the interior branch, and with the
# interval scipy computed (conftest.SCIPY_ERA_INTERVALS).
INTERCEPT_RESEND_REPORT_SHA256 = "45992d320d5d872a141c2cc863985d6091d680c373c5cb0fadbfb844531b4ec6"


class ColdStart(NamedTuple):
    code: int
    loaded: list  # numpy, scipy, orjson and qsdcnet modules, sorted
    intervals: int  # Clopper-Pearson intervals asked for


def fresh_interpreter(code: str, *arguments: str) -> subprocess.CompletedProcess:
    """Python code run in a new interpreter, so that no import made by the
    test process can hide one made by the code."""
    return subprocess.run(
        [sys.executable, "-c", code, *arguments],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True,
        text=True,
        check=True,
    )


def run_in_fresh_interpreter_with_stderr(argv) -> tuple[ColdStart, str]:
    """cli.main(argv) in a new interpreter, and what it wrote to stderr."""
    done = fresh_interpreter(_COLD_START_CHILD, json.dumps(argv))
    return ColdStart(*json.loads(done.stdout.splitlines()[-1])), done.stderr


def run_in_fresh_interpreter(argv) -> ColdStart:
    return run_in_fresh_interpreter_with_stderr(argv)[0]


class TestColdStart:
    """No command loads scipy, only a written report or transcript computes a
    Clopper-Pearson interval, only a run, which writes detection records,
    needs orjson, plan loads neither numpy nor the simulator, and a command
    whose scenario the reader rejects loads no more than plan and the reader."""

    @pytest.mark.parametrize(
        "command", ["plan", "fringe_40km", "run_ideal", "run_40km", "sweep_ideal"]
    )
    def test_error_free_command_never_loads_scipy(self, tmp_path, command):
        out = str(tmp_path / "out")
        forty_km = write_scenario(tmp_path, forty_km_scenario_dict(), "forty_km.json")
        ideal = write_scenario(tmp_path, ideal_scenario_dict())
        argv = {
            "plan": ["plan", "--subnets", "5", "--users-per-subnet", "3"],
            "fringe_40km": ["fringe", "--scenario", forty_km, "--out", out],
            "run_ideal": ["run", "--scenario", ideal, "--out", out],
            "run_40km": ["run", "--scenario", forty_km, "--out", out],
            "sweep_ideal": ["sweep", "--scenario", ideal, "--param",
                            "devices.alice_fiber.length_km", "--values", "0,5", "--out", out],
        }[command]
        writes_records = command.startswith("run")
        code, loaded, intervals = run_in_fresh_interpreter(argv)
        assert code == cli.EXIT_OK
        assert "scipy" not in loaded
        assert ("orjson" in loaded) == writes_records
        assert ("numpy" in loaded) == (command != "plan")
        assert (intervals > 0) == writes_records

    @pytest.mark.parametrize(
        "subnets, users_per_subnet, grid_size", [(5, 3, 15), (140, 35, MAX_GRID_SIZE)],
        ids=["reference", "ceiling"],
    )
    def test_plan_loads_only_the_planner(self, subnets, users_per_subnet, grid_size):
        argv = ["plan", "--subnets", str(subnets), "--users-per-subnet",
                str(users_per_subnet), "--grid-size", str(grid_size)]
        assert run_in_fresh_interpreter(argv) == (cli.EXIT_OK, PLANNER_MODULES, 0)

    def test_run_with_errors_never_loads_scipy_and_writes_the_same_report(self, tmp_path):
        doc = ideal_scenario_dict()
        doc["eve"] = {"kind": "intercept_resend", "fraction": 0.3}
        out = tmp_path / "out"
        argv = ["run", "--scenario", write_scenario(tmp_path, doc), "--out", str(out)]
        code, loaded, intervals = run_in_fresh_interpreter(argv)
        assert code == cli.EXIT_OK
        assert "scipy" not in loaded and "orjson" in loaded
        assert intervals > 0
        report = json.loads((out / "report.json").read_text())
        assert 0 < report["qber"]["e"] < 1
        old_report = report_with_scipy_era_intervals(report)
        digest = hashlib.sha256("".join(report_pieces(old_report)).encode()).hexdigest()
        assert digest == INTERCEPT_RESEND_REPORT_SHA256

    def test_sweep_with_errors_never_loads_scipy(self, tmp_path):
        # A sweep writes no interval, so it computes none for its rows' error
        # counts: each would cost tens to hundreds of microseconds of Python.
        doc = ideal_scenario_dict()
        doc["eve"] = {"kind": "intercept_resend", "fraction": 0.0}
        doc["protocol"]["qber_threshold"] = 0.45
        out = tmp_path / "out"
        argv = ["sweep", "--scenario", write_scenario(tmp_path, doc), "--param",
                "eve.fraction", "--values", "0.3,0.6", "--out", str(out)]
        code, loaded, intervals = run_in_fresh_interpreter(argv)
        assert (code, intervals) == (cli.EXIT_OK, 0)
        assert "scipy" not in loaded and "orjson" not in loaded
        rows = list(csv.DictReader((out / "sweep.csv").open()))
        assert [row["status"] for row in rows] == ["completed", "completed"]
        assert all(0 < float(row["qber_e"]) < 1 for row in rows)

    @pytest.mark.parametrize("command", ["run", "sweep", "fringe"])
    @pytest.mark.parametrize(
        "leaf, value, error",
        [
            ("gain", 1.0, "devices.detector.gain: unknown field"),
            ("efficiency", 1.5, "devices.detector.efficiency: must be in [0, 1], got 1.5"),
        ],
        ids=["unknown_key", "out_of_range"],
    )
    def test_rejected_scenario_loads_only_the_reader(self, tmp_path, command, leaf, value, error):
        doc = ideal_scenario_dict()
        doc["devices"]["detector"][leaf] = value
        path = write_scenario(tmp_path, doc)
        argv = [command, "--scenario", path, "--out", str(tmp_path / "out")]
        if command == "sweep":
            argv += ["--param", "eve.fraction", "--values", "0,0.1"]
        assert run_in_fresh_interpreter_with_stderr(argv) == (
            (cli.EXIT_VALIDATION, READER_MODULES, 0), f"error: {path}: {error}\n"
        )
        assert not (tmp_path / "out").exists()

    # Every value is read before any session runs, wherever the bad one is.
    @pytest.mark.parametrize("values", ["1.5,0.9", "0.9,1.5"])
    def test_rejected_sweep_value_loads_only_the_reader(self, tmp_path, values):
        argv = ["sweep", "--scenario", write_scenario(tmp_path, ideal_scenario_dict()),
                "--param", "devices.detector.efficiency", "--values", values,
                "--out", str(tmp_path / "out")]
        error = "devices.detector.efficiency: must be in [0, 1], got 1.5"
        assert run_in_fresh_interpreter_with_stderr(argv) == (
            (cli.EXIT_VALIDATION, READER_MODULES, 0),
            f"error: devices.detector.efficiency=1.5: {error}\n",
        )

    def test_the_reader_imports_no_numpy(self):
        code = "import json, sys, qsdcnet.scenario; print(json.dumps(sorted(sys.modules)))"
        loaded = json.loads(fresh_interpreter(code).stdout)
        assert "numpy" not in loaded and "orjson" not in loaded
        assert [m for m in loaded if m.startswith("qsdcnet")] == [
            "qsdcnet", "qsdcnet.errors", "qsdcnet.netplan", "qsdcnet.scenario"
        ]

    def test_the_report_module_imports_no_numpy(self):
        code = "import json, sys, qsdcnet.report; print(json.dumps(sorted(sys.modules)))"
        loaded = json.loads(fresh_interpreter(code).stdout)
        assert not {"numpy", "orjson", "argparse", "csv"} & {*loaded}
        assert [m for m in loaded if m.startswith("qsdcnet")] == [
            "qsdcnet", "qsdcnet.analysis", "qsdcnet.errors", "qsdcnet.netplan", "qsdcnet.report"
        ]

    def test_a_digest_loads_the_splicer_alone(self):
        # The canonical JSON's hex is spliced by transcript.spliced_pieces,
        # which needs neither the session, its state model nor orjson.
        code = (
            "import json, sys\n"
            "from qsdcnet.scenario import ideal_scenario_dict, scenario_from_dict\n"
            "digest = scenario_from_dict(ideal_scenario_dict()).digest()\n"
            "print(json.dumps([digest, sorted(sys.modules)]))"
        )
        digest, loaded = json.loads(fresh_interpreter(code).stdout)
        assert digest == scenario_from_dict(ideal_scenario_dict()).digest()
        assert "qsdcnet.transcript" in loaded
        assert not {"qsdcnet.protocol", "qsdcnet.qstate", "qsdcnet.photonics", "orjson"} & {*loaded}

    def test_the_package_imports_nothing(self):
        # Each name comes from its defining module, so importing qsdcnet.cli
        # loads only what cli itself imports.
        tree = ast.parse((SRC / "qsdcnet" / "__init__.py").read_text(encoding="utf-8"))
        assert not [node for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))]

    def test_no_source_file_imports_scipy(self):
        for path in sorted((SRC / "qsdcnet").glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.Import):
                    modules = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom):
                    modules = [node.module or ""]
                else:
                    continue
                assert all(module.split(".")[0] != "scipy" for module in modules), path.name
