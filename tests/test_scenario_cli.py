import csv
import json
import re

import numpy as np
import pytest

from qsdcnet import cli
from qsdcnet.errors import ScenarioError
from qsdcnet.qstate import BellLabel
from qsdcnet.scenario import (
    forty_km_scenario_dict,
    ideal_scenario_dict,
    load_scenario,
    scenario_from_dict,
)


def write_scenario(tmp_path, doc, name="scenario.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc, indent=2))
    return str(path)


class TestScenarioParsing:
    def test_round_trip_and_message_resolution(self):
        scenario = scenario_from_dict(ideal_scenario_dict(seed=3, message_hex="deadbeef"))
        assert scenario.seed == 3
        assert scenario.message_bits() == "11011110101011011011111011101111"
        again = scenario_from_dict(scenario.to_dict())
        assert again.canonical_json() == scenario.canonical_json()

    def test_random_message_is_seed_deterministic(self):
        doc = ideal_scenario_dict(seed=5)
        doc["message"] = {"random_bits": 64}
        first = scenario_from_dict(doc).message_bits()
        second = scenario_from_dict(doc).message_bits()
        assert first == second and len(first) == 64
        doc["seed"] = 6
        assert scenario_from_dict(doc).message_bits() != first

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
        once = scenario.canonical_dict()
        assert json.loads(scenario.canonical_json()) == once

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
        "payload", ["", "ab\n", "a b", "0x1f", "١٢", "１２", "fg"]
    )
    def test_non_hex_message_rejected(self, payload):
        doc = ideal_scenario_dict(seed=1, message_hex=payload)
        with pytest.raises(ScenarioError, match="^message.hex: must be a non-empty hexadecimal string$"):
            scenario_from_dict(doc)

    def test_parse_errors_are_line_precise(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{\n  "seed": 1,\n  "oops"\n}\n')
        with pytest.raises(ScenarioError, match=r"broken\.json:4:1"):
            load_scenario(str(path))


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

    def test_report_json_is_strict(self):
        with pytest.raises(ValueError):
            cli.report_to_json({"session": {"ber": float("nan")}})

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

    def test_bad_parameter_path(self, tmp_path, capsys):
        scenario_path = write_scenario(tmp_path, sweep_base_dict())
        code = cli.main([
            "sweep", "--scenario", scenario_path,
            "--param", "devices.pump_laser.power", "--values", "1,2", "--out", str(tmp_path),
        ])
        assert code == cli.EXIT_VALIDATION
        assert "pump_laser" in capsys.readouterr().err

    def test_non_scalar_path_rejected(self, tmp_path, capsys):
        scenario_path = write_scenario(tmp_path, sweep_base_dict())
        code = cli.main([
            "sweep", "--scenario", scenario_path,
            "--param", "devices.alice_fiber", "--values", "1", "--out", str(tmp_path),
        ])
        assert code == cli.EXIT_VALIDATION


class TestFringeCommand:
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
