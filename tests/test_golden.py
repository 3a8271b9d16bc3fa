"""Frozen output bytes of ``qsdcnet run``, ``qsdcnet sweep`` and ``qsdcnet fringe``.

Each case writes a scenario file, runs the CLI in-process and compares the
SHA-256 of every file it writes with the digest recorded when the case was
added. Together the cases cover FIFO retransmission order, the abort at
the retransmission cap, the pad bit of an odd-length message, BER above
zero, small blocks with frequent re-detection, aborts, a completed session
under a partial intercept-resend Eve, a sweep and a noisy fringe scan. A
refactor that keeps behaviour leaves every digest here unchanged; a
behaviour change keeps the old digests beside the new ones, with a test that
turns the new bytes back into the old.
"""

import dataclasses
import hashlib
import json
import re
from pathlib import Path

import pytest

from qsdcnet import analysis, cli
from qsdcnet.report import build_report, report_pieces, run_session
from qsdcnet.scenario import forty_km_scenario_dict, ideal_scenario_dict, scenario_from_dict

from conftest import (
    fidelity_table_oracle,
    report_with_scipy_era_intervals,
    transcript_with_scipy_era_intervals,
)

README = Path(__file__).resolve().parents[1] / "README.md"


def _criterion_09_scenarios() -> dict[str, dict]:
    noisy = ideal_scenario_dict(seed=903, message_hex="beef" * 4)
    noisy["devices"]["source"]["noise"]["depolarizing_p"] = 0.06
    eve_doc = ideal_scenario_dict(seed=904, message_hex="0123")
    eve_doc["eve"] = {"kind": "intercept_resend", "fraction": 1.0}
    tap_doc = ideal_scenario_dict(seed=905, message_hex="7777")
    tap_doc["eve"] = {"kind": "tap", "fraction": 0.3}
    return {
        "ideal_901": ideal_scenario_dict(seed=901, message_hex="deadbeef" * 4),
        "forty_km_902": forty_km_scenario_dict(seed=902, random_bits=6000),
        "noisy_903": noisy,
        "intercept_resend_904": eve_doc,
        "tap_905": tap_doc,
    }


def _megabit() -> dict:
    doc = ideal_scenario_dict(seed=700)
    doc["message"] = {"random_bits": 1_000_000}
    return doc


def _truncating() -> dict:
    # About 60% of pairs are lost on 10 km arms; with no retransmissions the
    # first block leaves 60 of the 100 symbols over the cap, and the session
    # aborts with reason retransmission_cap after that block's block_sent.
    doc = ideal_scenario_dict(seed=12)
    doc["devices"]["alice_fiber"]["length_km"] = 10.0
    doc["devices"]["bob_fiber"]["length_km"] = 10.0
    doc["protocol"]["max_retransmissions"] = 0
    doc["protocol"]["detection_size"] = 4000
    doc["message"] = {"random_bits": 200}
    return doc


def _odd_noisy() -> dict:
    # 17 bits: the last symbol carries a pad bit, which this seed decodes
    # wrongly; BER must leave it out (3 symbol errors, 2 wrong bits).
    doc = ideal_scenario_dict(seed=24, message_hex="b7e1d", message_bit_length=17)
    doc["devices"]["source"]["noise"]["depolarizing_p"] = 0.3
    doc["protocol"]["qber_threshold"] = 0.25
    return doc


def _small_blocks() -> dict:
    doc = ideal_scenario_dict(seed=1)
    doc["devices"]["sfg"]["conversion_efficiency"] = 0.6
    doc["protocol"]["block_size"] = 257
    doc["protocol"]["redetect_every_blocks"] = 3
    doc["message"] = {"random_bits": 4000}
    return doc


def _eve_tail() -> dict:
    # eve_sweep's link under a 0.3 intercept-resend Eve: the session completes
    # through Eve's blended encoding table, with erasures re-sent in ever
    # smaller tail blocks (6 blocks for 128 symbols) and 23 symbol errors.
    doc = ideal_scenario_dict(seed=906, message_hex="0123456789abcdef" * 4)
    doc["devices"]["alice_fiber"]["length_km"] = 5.0
    doc["devices"]["detector"]["efficiency"] = 0.9
    doc["devices"]["sfg"]["conversion_efficiency"] = 0.85
    doc["protocol"]["detection_size"] = 100
    doc["protocol"]["min_samples"] = 30
    doc["protocol"]["qber_threshold"] = 0.45
    doc["eve"] = {"kind": "intercept_resend", "fraction": 0.3}
    return doc


def _eve_sweep_base() -> dict:
    doc = ideal_scenario_dict(seed=22)
    doc["eve"] = {"kind": "intercept_resend", "fraction": 0.0}
    doc["protocol"]["qber_threshold"] = 0.45
    doc["protocol"]["detection_size"] = 4000
    doc["message"] = {"random_bits": 400}
    return doc


RUN_SCENARIOS = {
    **_criterion_09_scenarios(),
    "forty_km_reference": forty_km_scenario_dict(seed=1),
    "megabit_ideal": _megabit(),
    "truncating_10km": _truncating(),
    "odd_length_noisy": _odd_noisy(),
    "small_blocks": _small_blocks(),
    "eve_tail_906": _eve_tail(),
}

# name -> (exit code, sha256 of transcript.jsonl, sha256 of report.json)
RUN_DIGESTS = {
    "eve_tail_906": (
        cli.EXIT_OK,
        "79a7e55e8305632a5b8d7c15a9c0da1dfeaa043d75207e85cea7aabe52e509f6",
        "8ca21945cf2e10153539a3690575eda65508184e3f3ad6fcc07edaa0b15d8102",
    ),
    "forty_km_902": (
        cli.EXIT_OK,
        "f5d1d2056c03c4f3f2a221d410523e27bf72823dac58b1181a425194b829cee1",
        "e0c03f58a183d402b27a0e432db81eb33852b905bd9d0d862ae671e82b6d9ee6",
    ),
    "forty_km_reference": (
        cli.EXIT_OK,
        "82f503581697e577662ffc98f6332687b19bb2ad1953e0ba439ab2f19e133270",
        "2fec0f46a12afb9845f18c97190efdea4f9b42c852d37829045f7d2120c1e918",
    ),
    "ideal_901": (
        cli.EXIT_OK,
        "3220852eaccd4eb4e14d7c4dbd3418f5f44665288ec86a067a09bd95d7a453ec",
        "9eb2b96558f06b6db20aecfb4d5c307554237c4ec1f8d972ef9fb7707e31d950",
    ),
    "intercept_resend_904": (
        cli.EXIT_ABORT,
        "e096a866b24834cf767bd647d2a845ca02e54792f051828fd7e054a2eb21395b",
        "04f5a41921affd18a959743d4bde349da2073bef462d25bf2176f016c6c4fb87",
    ),
    "megabit_ideal": (
        cli.EXIT_OK,
        "09e54d8f8168a1aa808480ac739e47c6fa67c4add19c067b210594074d2f4f99",
        "6063d826e9ea2d6b7b81a5df7b7d350b8b190370de6a312afe6be2bb2396464c",
    ),
    "noisy_903": (
        cli.EXIT_OK,
        "2559da34295da652eb2ee5142902472e338b15a4d6a69750cf81a8f641457e1c",
        "355c52c11edc89cc9f9394588f7a48b1b4f40878e70bdb9642be3aeddca9e30e",
    ),
    "odd_length_noisy": (
        cli.EXIT_OK,
        "5d5c8df06a95abf1af38b034cdde6daf9113829cafc849a2c278bf4e9e4cdcba",
        "0e1441f7d84c50ddea374780784b37779422339acbd6a8c503dc7e8010cdac85",
    ),
    "small_blocks": (
        cli.EXIT_OK,
        "c25c44e5f8d0e3cc8df9b3d513b7d989391153111745bc1867331c16dd7512d9",
        "f6846db614f3fadc19fd5a8d46a390c057a190e56e2e9aa0514c6c26d70481f5",
    ),
    "tap_905": (
        cli.EXIT_OK,
        "a5c8ee8db0bad48623be1cc89c799e0fd3410badbb617a17394358234b4a9e8d",
        "eb24746379fcdb9f5429b1560c89879e1f641ac4fe7a7545f714cb5f396c9d8f",
    ),
    "truncating_10km": (
        cli.EXIT_ABORT,
        "b6d8a64997e864ebb8a92411d38a317c41f54515ba17a69b34bd8b2100c9597c",
        "afb45113e694f2529de4bf68020135eec88b194f5f0f94318349ccecfff74660",
    ),
}

# name -> (exit code, sha256 of transcript.jsonl, sha256 of report.json) while
# interior interval bounds came from scipy.special.betaincinv and the k = 0
# bound from 1 - (alpha / 2) ** (1 / n). Nothing else in either file changed
# when both became analysis.clopper_pearson's own: putting the old values
# (conftest.SCIPY_ERA_INTERVALS) back gives these bytes again.
SCIPY_INTERVAL_RUN_DIGESTS = {
    "eve_tail_906": (
        cli.EXIT_OK,
        "5889c409c0c41224a07bb84f2ac23df1c01dfee69cb4e360de510c651dd0a7be",
        "030d3a6d5388949ababa705e65b40778423fbb49ae5870c18899a6c245db7d9a",
    ),
    "forty_km_902": (
        cli.EXIT_OK,
        "17e3fe7bd5004fbbd2d4e7da5d32fb59f519f3c633e060a88b27450c7840ffb1",
        "aab322be6676af23f886986e55374a4206eb7799bc0a5da9a31a6c13ff35f793",
    ),
    "forty_km_reference": (
        cli.EXIT_OK,
        "93720bc5b4719f365f49a34b766a98e3076ba768505abe2c158f2104121e09b7",
        "b18156577f45566f89eba8eb8970e7990456f025479fa233b5f7c90522196cab",
    ),
    "ideal_901": (
        cli.EXIT_OK,
        "01a63901f15f57ca38a8f9dedc783801c0bcf12dd057ed4f7933619027a895aa",
        "26f9834f2da0e2829db5c9f03fc789d58bf82cb5848db8ba0dac76004b88e84e",
    ),
    "intercept_resend_904": (
        cli.EXIT_ABORT,
        "d33dd8e0f1cbeedad83fa12d392be8019fe5a5bf2d89baab1b75fb5489dc4c09",
        "e3dd362d7e1178387e7696dd85d5a0c0e8e540daa53426e105e1be33cbbb059d",
    ),
    "megabit_ideal": (
        cli.EXIT_OK,
        "eb6fed89b36805a0455cee65a83878b2f96cfc92cada61975f5a21c949c75a92",
        "c267aa046033d449d524378bef2f2f1e8cb00c9aef292a6c92942ed4ee8f5631",
    ),
    "noisy_903": (
        cli.EXIT_OK,
        "24cfecf9e1bdc4c2cd7a50040c908db2ccab6cdc1fc8036fcfab0d02e53f5da3",
        "32ca0444f7863261628f9d5d2ed1eb288e3627d4a6ce23b0e379dc9046267fe5",
    ),
    "odd_length_noisy": (
        cli.EXIT_OK,
        "5d5c8df06a95abf1af38b034cdde6daf9113829cafc849a2c278bf4e9e4cdcba",
        "0e1441f7d84c50ddea374780784b37779422339acbd6a8c503dc7e8010cdac85",
    ),
    "small_blocks": (
        cli.EXIT_OK,
        "9b135258bc83e8ca46ce2c8c1bb308d6d586677f8f5225a94a753ddf0fc23c61",
        "257dde26f225b3ef9daf69ef24ba0bc25ab4aff3495d1d65717a51ed738d2507",
    ),
    "tap_905": (
        cli.EXIT_OK,
        "400e12c02bc1d455b9606dfc926ebacbe14173e23e7b313b660c2880a2d4e8c1",
        "110f34f6431b12acb747748c0daa8f89313b40f2581b06c281ba57d66f090477",
    ),
    "truncating_10km": (
        cli.EXIT_ABORT,
        "eb74be965c2060b4586c7429fa5d613298134fa9199faef4e1b16b8d84ca95ad",
        "779f8e69f76d43a7b49e26e8757bdc834c0d3242430c7fe5b6c41ac0e559e247",
    ),
}

# name -> sha256 of report.json while the fidelity table came from 4x4
# density matrices (``conftest.fidelity_table_oracle``); nothing else in the
# report changed when it became closed-form. truncating_10km is left out: it
# has aborted at the retransmission cap since then, so its whole report
# changed.
DENSITY_MATRIX_REPORT_DIGESTS = {
    "forty_km_902": "b842650bb66a0f44c72ed80a5b170a652e9be9390baa4224dddec73f35cae72a",
    "forty_km_reference": "f3f545b7af6b35f448188d571dceb821c3a5d57cc28a2279377b9f188c062386",
    "ideal_901": "6c83f97881a86d82c7d87fd46cab50b3ee81133386d6a7b88106981d4c94c11f",
    "intercept_resend_904": "a72344f380cd20730fb88fb1c0fb2c43b227c6f495ff642d40ef3efc0d9ea1bb",
    "megabit_ideal": "35f25862d55b870519d9e8ef9dca7e0fe096802528a8add5d250e2f441bb2dbf",
    "noisy_903": "d655bbc4ac1570b746a5d68bd22dabcdf623718f71f440c86b17bba7b58cf5e8",
    "odd_length_noisy": "a0ee3fb5b7cbbfaa7e8ed11bda582883ba422ed461a73652db72016f379036a6",
    "small_blocks": "483886f7098b71acd55d3cec95f75f4604f1771f621a9d933b1c1ba406c75517",
    "tap_905": "189780b444874f47e779f43c849e35637b968a50f43a205bbb098de8d7d2b9e5",
}

# name -> sha256 of report.json while the schema still had
# devices.modulator.extinction_error; every scenario here left it at 0.0.
# Reports carried it in the embedded scenario and its digest, and nothing else.
# truncating_10km is left out, as above.
PRE_REMOVAL_REPORT_DIGESTS = {
    "forty_km_902": "134da06ea29846cc22249882c162ded996dee25f5fff7489d00917753dc8a447",
    "forty_km_reference": "0df0b272514dd670e71f402c97e6839efbb48f4712f738e7632d40a20fcdac34",
    "ideal_901": "325c7f6be5a24f1d751eba553b379f39c42a15c22550016e9c9e852a79cd8108",
    "intercept_resend_904": "1aafd8c63e22da4306413c26d0610ac23396dbeffb5a5278a792612322e3a0d1",
    "megabit_ideal": "62b47592d344ad9cdc881941915fdebf701ff3e80fe4290804e89d20741865ea",
    "noisy_903": "7363f53cec2c76c70d1f8ae0fd9aca41e1686f4da1f101c24576a9b49819bc04",
    "odd_length_noisy": "3ef81f74b7ccfdce508154f44e07c7a0ada98d453be6224dac6d6818d62649c2",
    "small_blocks": "c361481e8c3cb81853d7bf175e0c9cdf9a4be887c1494c0b8b3e48b4b34df138",
    "tap_905": "880c2eb37300e92f98963dcfce72694921abe0c395022c2d25f92cd6b883e9ea",
}

# name -> sha256 of report.json while aborted sessions still claimed a
# secrecy bound, built from the pooled QBER and the erasure fraction as for a
# completed one; nothing else in those reports changed when it became null.
SECRECY_CLAIMING_REPORT_DIGESTS = {
    "intercept_resend_904": "0c767da3478f35b4250b33aaa857fbe64f2b9cad8bc764ccbc950dfe6a82745b",
    "truncating_10km": "ac8f5911961b58fafd8463d7b19275aaf510082e2717b0dc3d84f0176af6b5c4",
}

SWEEP_ARGS = ["--param", "eve.fraction", "--values", "0,0.25,0.5,1"]
SWEEP_DIGEST = "1f74bf2da04eb73aef38373ae1cd6197f6a3fcbadb31f2ee94d2a4639947764e"


def _sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _write_scenario(tmp_path, doc) -> str:
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc, indent=2))
    return str(path)


def run_outputs(tmp_path, doc) -> tuple[int, str, str]:
    out = tmp_path / "out"
    code = cli.main(["run", "--scenario", _write_scenario(tmp_path, doc), "--out", str(out)])
    return code, _sha256(out / "transcript.jsonl"), _sha256(out / "report.json")


def sweep_output(tmp_path) -> str:
    out = tmp_path / "out"
    code = cli.main(
        ["sweep", "--scenario", _write_scenario(tmp_path, _eve_sweep_base()), *SWEEP_ARGS,
         "--out", str(out)]
    )
    assert code == cli.EXIT_OK
    return _sha256(out / "sweep.csv")


@pytest.mark.parametrize("name", sorted(RUN_SCENARIOS))
def test_run_outputs_are_frozen(name, tmp_path, capsys):
    assert run_outputs(tmp_path, RUN_SCENARIOS[name]) == RUN_DIGESTS[name]


@pytest.mark.parametrize("name", sorted(RUN_SCENARIOS))
def test_run_outputs_are_the_scipy_era_outputs_but_for_the_interval(name, tmp_path, capsys):
    # Each interval value written is within conftest.SCIPY_ERA_RTOL of the one
    # written while scipy computed it; put back, the old values give the old bytes.
    code = run_outputs(tmp_path, RUN_SCENARIOS[name])[0]
    transcript = (tmp_path / "out" / "transcript.jsonl").read_text()
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert (
        code,
        hashlib.sha256(transcript_with_scipy_era_intervals(transcript).encode()).hexdigest(),
        _sha256_of_report(report_with_scipy_era_intervals(report)),
    ) == SCIPY_INTERVAL_RUN_DIGESTS[name]


def readme_transcript_schema() -> dict[str, list[str]]:
    """README's "Transcript schema" table: each event kind's payload keys in
    written order. A key's parenthesised note, such as qber's own keys, is
    not a payload key."""
    text = README.read_text(encoding="utf-8")
    section = text[text.index("## Transcript schema") :]
    rows = section.split("| --- | --- |\n", 1)[1].split("\n\n", 1)[0].splitlines()
    schema = {}
    for row in rows:
        kind, fields = row.strip("|").split("|")
        schema[kind.strip().strip("`")] = re.findall(r"`(\w+)`", re.sub(r"\([^)]*\)", "", fields))
    return schema


@pytest.mark.parametrize("name", sorted(RUN_SCENARIOS))
def test_transcript_payload_keys_are_sorted(name, tmp_path, capsys):
    # The transcript writes each payload in the order its log call passed it:
    # sorted, and the README's schema row for its event kind, which must have one.
    schema = readme_transcript_schema()
    run_outputs(tmp_path, RUN_SCENARIOS[name])
    with open(tmp_path / "out" / "transcript.jsonl") as handle:
        for line in handle:
            event = json.loads(line)
            keys = list(event["payload"])
            assert keys == sorted(keys), line[:120]
            assert keys == schema.get(event["event_kind"]), line[:120]


@pytest.mark.parametrize("name", sorted(RUN_SCENARIOS))
def test_phase_transitions_chain_from_idle_to_the_status(name, tmp_path, capsys):
    # The order of the phase_transition lines that README's "Transcript
    # schema" states: run_qsdc alone makes it, and nothing else checks it.
    run_outputs(tmp_path, RUN_SCENARIOS[name])
    with open(tmp_path / "out" / "transcript.jsonl") as handle:
        moves = [
            event["payload"] for event in map(json.loads, handle)
            if event["event_kind"] == "phase_transition"
        ]
    session = json.loads((tmp_path / "out" / "report.json").read_text())["session"]
    assert moves[0]["from_phase"] == "idle"
    for before, move in zip(moves, moves[1:]):
        assert move["from_phase"] == before["to_phase"]
    for move in moves:
        if move["to_phase"] == "block_transmission":
            assert move["from_phase"] == "security_detection"
        if move["to_phase"] != "aborted":
            assert move["reason"] is None
    assert (moves[-1]["to_phase"], moves[-1]["reason"]) == (
        session["status"], session["abort_reason"]
    )


@pytest.mark.parametrize("name", sorted(RUN_SCENARIOS))
def test_run_writes_what_it_builds(name, tmp_path, capsys):
    # run writes the report and transcript as pieces it never joins; joined,
    # they are the texts that json.dumps and the transcript's chunks give.
    doc = RUN_SCENARIOS[name]
    capsys.readouterr()
    run_outputs(tmp_path, doc)
    stdout = capsys.readouterr().out
    written = (tmp_path / "out" / "report.json").read_bytes()
    assert stdout.encode() == written
    scenario = scenario_from_dict(doc)
    transcript = run_session(scenario)
    transcript_text = "".join(transcript.chunks())
    assert (tmp_path / "out" / "transcript.jsonl").read_bytes() == transcript_text.encode()
    report = build_report(scenario, transcript, "transcript.jsonl")
    joined = "".join(report_pieces(report))
    assert joined == json.dumps(report, sort_keys=True, indent=2, allow_nan=False) + "\n"
    assert joined.encode() == written


def _sha256_of_report(report: dict) -> str:
    return hashlib.sha256("".join(report_pieces(report)).encode()).hexdigest()


def _with_secrecy_put_back(report: dict) -> dict:
    """The report with the secrecy bound every session once claimed."""
    # The estimate's fields; its interval is no field but is computed from them.
    qber = analysis.QberEstimate(
        **{field.name: report["qber"][field.name] for field in dataclasses.fields(analysis.QberEstimate)}
    )
    assert qber.to_dict() == report["qber"]
    erasure_fraction = report["session"]["erasure_fraction"]
    secrecy = analysis.session_secrecy_report(qber, erasure_fraction)
    return {**report, "secrecy": secrecy}


@pytest.mark.parametrize("name", sorted(SECRECY_CLAIMING_REPORT_DIGESTS))
def test_aborted_report_is_the_old_report_less_secrecy(name, tmp_path, capsys):
    run_outputs(tmp_path, RUN_SCENARIOS[name])
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["session"]["status"] == "aborted"
    assert report["secrecy"] is None
    assert report["throughput"]["info_rate_bits_per_s"] >= 0.0
    report = report_with_scipy_era_intervals(_with_secrecy_put_back(report))
    assert _sha256_of_report(report) == SECRECY_CLAIMING_REPORT_DIGESTS[name]


@pytest.mark.parametrize("name", sorted(PRE_REMOVAL_REPORT_DIGESTS))
def test_report_is_the_pre_removal_report_less_one_key(name, tmp_path, capsys):
    run_outputs(tmp_path, RUN_SCENARIOS[name])
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    # These digests predate null secrecy for aborted sessions, and the in-repo interval.
    report = report_with_scipy_era_intervals(_with_secrecy_put_back(report))
    scenario = report["scenario"]
    noise = scenario_from_dict(scenario).devices.source.noise
    report["fidelity_table"] = fidelity_table_oracle(noise)
    assert _sha256_of_report(report) == DENSITY_MATRIX_REPORT_DIGESTS[name]
    scenario["devices"]["modulator"]["extinction_error"] = 0.0
    # The canonical JSON: sorted keys and (",", ":") separators, so no spaces.
    canonical = json.dumps(scenario, sort_keys=True, separators=(",", ":"))
    report["scenario_digest"] = hashlib.sha256(canonical.encode()).hexdigest()
    assert _sha256_of_report(report) == PRE_REMOVAL_REPORT_DIGESTS[name]


def test_sweep_output_is_frozen(tmp_path, capsys):
    assert sweep_output(tmp_path) == SWEEP_DIGEST


def _noisy_phi_minus_fringe() -> dict:
    doc = ideal_scenario_dict(seed=31)
    doc["devices"]["source"]["noise"] = {
        "depolarizing_p": 0.05,
        "dephasing_q": 0.02,
        "phase_offset_rad": 0.1,
    }
    return doc


# sha256 of fringe_phi_minus.csv and of the printed summary, recorded when
# the fringe probabilities became closed-form. The density-matrix path gave
# the same bytes for this case: no binomial draw met a 1-ulp difference.
FRINGE_DIGESTS = (
    "5dc05c55d7eefc636a0fbe32559356d5290a92d776f5d9670a4adea500f2045a",
    "44e16c235bc22d528e84431dd0de53644fb832299ee35dc03677c09501829ced",
)


def test_fringe_outputs_are_frozen(tmp_path, capsys):
    out = tmp_path / "out"
    code = cli.main(
        ["fringe", "--scenario", _write_scenario(tmp_path, _noisy_phi_minus_fringe()),
         "--bell-state", "phi_minus", "--out", str(out)]
    )
    assert code == cli.EXIT_OK
    summary = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert (_sha256(out / "fringe_phi_minus.csv"), summary) == FRINGE_DIGESTS
