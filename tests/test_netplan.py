import json
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qsdcnet.errors import CapacityExceeded, DomainError
from qsdcnet.netplan import (
    IntraLink,
    Topology,
    WavelengthPlan,
    build_plan,
    itu_name,
    pairs_required,
    verify_full_connectivity,
)


def brute_force_uncovered(plan, k, m):
    """Independent oracle: enumerate every user pair against raw plan maps."""
    users = [(s, u) for s in range(k) for u in range(m)]
    missing = []
    for (s1, u1), (s2, u2) in combinations(users, 2):
        if s1 == s2:
            link = plan.intra_links.get(s1)
            ok = (
                link is not None
                and u1 in link.tdm_slots
                and u2 in link.tdm_slots
                and link.tdm_slots[u1] != link.tdm_slots[u2]
            )
        else:
            ok = (min(s1, s2), max(s1, s2)) in plan.inter_links
        if not ok:
            missing.append(((s1, u1), (s2, u2)))
    return missing


def _broken(plan, inter_links=None, intra_links=None):
    """The plan with some of its link maps replaced."""
    return WavelengthPlan(
        topology=plan.topology,
        inter_links=plan.inter_links if inter_links is None else inter_links,
        intra_links=plan.intra_links if intra_links is None else intra_links,
    )


def _with_slots(plan, subnet, slots):
    intra = dict(plan.intra_links)
    intra[subnet] = IntraLink(pair_index=intra[subnet].pair_index, tdm_slots=slots)
    return _broken(plan, intra_links=intra)


def _uncovered(report):
    return report["user_pairs"] - report["covered_pairs"]


def _itu_names(plan):
    """Every ITU channel name the plan's document writes, one per link side."""
    document = plan.to_dict()
    links = document["inter_subnet_links"] + document["intra_subnet_links"]
    return [name for link in links for name in (link["signal"], link["idler"])]


class TestBuildPlan:
    def test_reference_network_five_by_three(self):
        plan = build_plan(Topology(5, 3))
        assert len(plan.inter_links) == 10
        assert len(plan.intra_links) == 5
        assert plan.to_dict()["itu_channels"] == 30
        # Inter-subnet links take indices 1..10, intra links 11..15.
        assert sorted(plan.inter_links.values()) == list(range(1, 11))
        assert sorted(l.pair_index for l in plan.intra_links.values()) == list(range(11, 16))

    def test_smallest_network(self):
        plan = build_plan(Topology(1, 2))
        assert len(plan.inter_links) == 0
        assert len(plan.intra_links) == 1
        assert plan.to_dict()["itu_channels"] == 2
        assert plan.intra_links[0].tdm_slots == {0: 0, 1: 1}

    def test_three_by_three(self):
        plan = build_plan(Topology(3, 3))
        assert len(plan.inter_links) + len(plan.intra_links) == 6
        assert plan.to_dict()["itu_channels"] == 12

    def test_grid_exhaustion(self):
        with pytest.raises(CapacityExceeded, match="narrower-band DWDM"):
            build_plan(Topology(6, 3))  # 15 + 6 = 21 pairs > 15

    def test_larger_grid_accepts_six_subnets(self):
        plan = build_plan(Topology(6, 3, grid_size=21))
        assert plan.to_dict()["itu_channels"] == 42

    def test_bad_arguments(self):
        with pytest.raises(DomainError):
            build_plan(Topology(0, 3))
        with pytest.raises(DomainError):
            build_plan(Topology(3, 0))

    def test_deterministic_byte_for_byte(self):
        assert build_plan(Topology(5, 3)).to_document() == build_plan(Topology(5, 3)).to_document()
        assert build_plan(Topology(4, 2)).to_document() == build_plan(Topology(4, 2)).to_document()


class TestConnectivity:
    def test_reference_network_fully_connected(self):
        plan = build_plan(Topology(5, 3))
        report = verify_full_connectivity(plan)
        assert report["user_pairs"] == 105
        assert report["fully_connected"]
        assert brute_force_uncovered(plan, 5, 3) == []

    def test_missing_inter_link_uncovers_nine_pairs(self):
        plan = build_plan(Topology(5, 3))
        inter = dict(plan.inter_links)
        del inter[(1, 3)]
        broken = _broken(plan, inter_links=inter)
        report = verify_full_connectivity(broken)
        assert not report["fully_connected"]
        assert _uncovered(report) == len(brute_force_uncovered(broken, 5, 3)) == 9

    def test_missing_inter_link_matches_oracle_pair_by_pair(self):
        plan = build_plan(Topology(4, 3))
        inter = dict(plan.inter_links)
        del inter[(0, 2)]
        del inter[(2, 3)]
        broken = _broken(plan, inter_links=inter)
        report = verify_full_connectivity(broken)
        assert _uncovered(report) == len(brute_force_uncovered(broken, 4, 3)) == 18

    def test_duplicate_tdm_slot_matches_oracle_pair_by_pair(self):
        plan = build_plan(Topology(3, 4))
        broken = _with_slots(plan, 1, {0: 0, 1: 2, 2: 2, 3: 0})
        report = verify_full_connectivity(broken)
        # Members 0 and 3 share slot 0, and 1 and 2 share slot 2.
        assert _uncovered(report) == len(brute_force_uncovered(broken, 3, 4)) == 2

    def test_member_without_slot_matches_oracle_pair_by_pair(self):
        plan = build_plan(Topology(3, 4))
        broken = _with_slots(plan, 2, {0: 0, 1: 1, 3: 3, 7: 7})
        report = verify_full_connectivity(broken)
        # Member 2 has no slot, so it reaches none of the other three.
        assert _uncovered(report) == len(brute_force_uncovered(broken, 3, 4)) == 3

    def test_missing_intra_link_matches_oracle_pair_by_pair(self):
        plan = build_plan(Topology(3, 3))
        intra = dict(plan.intra_links)
        del intra[0]
        broken = _broken(plan, intra_links=intra)
        report = verify_full_connectivity(broken)
        assert _uncovered(report) == len(brute_force_uncovered(broken, 3, 3)) == 3

    @settings(max_examples=60, deadline=None)
    @given(
        k=st.integers(1, 4),
        m=st.integers(1, 4),
        data=st.data(),
    )
    def test_any_breakage_matches_oracle_pair_by_pair(self, k, m, data):
        plan = build_plan(Topology(k, m))
        inter = {
            key: pair for key, pair in plan.inter_links.items() if data.draw(st.booleans())
        }
        intra = {}
        for subnet, link in plan.intra_links.items():
            if data.draw(st.booleans()):
                slots = data.draw(
                    st.dictionaries(st.integers(0, m), st.integers(0, m), max_size=m + 1)
                )
                intra[subnet] = IntraLink(pair_index=link.pair_index, tdm_slots=slots)
            elif data.draw(st.booleans()):
                intra[subnet] = link
        broken = _broken(plan, inter_links=inter, intra_links=intra)
        report = verify_full_connectivity(broken)
        assert _uncovered(report) == len(brute_force_uncovered(broken, k, m))
        assert report["user_pairs"] == k * m * (k * m - 1) // 2

    def test_no_inter_links_leaves_only_the_subnets(self):
        # Closed form: only the C(35, 2) pairs inside each of 40 subnets.
        plan = build_plan(Topology(40, 35, grid_size=820))
        report = verify_full_connectivity(_broken(plan, inter_links={}))
        assert report["user_pairs"] == 1400 * 1399 // 2
        assert report["covered_pairs"] == 40 * (35 * 34 // 2) == 23800

    def test_single_user_trivially_connected(self):
        report = verify_full_connectivity(build_plan(Topology(1, 1)))
        assert report["user_pairs"] == 0
        assert report["fully_connected"]


class TestChannelsRequired:
    @pytest.mark.parametrize(
        "k,m,expected", [(5, 3, 30), (1, 1, 2), (1, 7, 2), (4, 2, 20), (3, 3, 12)]
    )
    def test_formula(self, k, m, expected):
        assert 2 * pairs_required(k, m) == expected

    @settings(max_examples=40, deadline=None)
    @given(k=st.integers(1, 5), m=st.integers(1, 4))
    def test_matches_distinct_channels_in_plan(self, k, m):
        plan = build_plan(Topology(k, m))
        names = set(_itu_names(plan))
        assert len(names) == 2 * pairs_required(k, m) == plan.to_dict()["itu_channels"]


class TestItuNaming:
    def test_reference_points(self):
        assert itu_name(1, "signal") == "CH17"
        assert itu_name(15, "idler") == "CH47"
        assert itu_name(11, "signal") == "CH27"
        assert itu_name(11, "idler") == "CH43"

    def test_full_grid_rule(self):
        for n in range(1, 16):
            assert itu_name(n, "signal") == f"CH{16 + n}"
            assert itu_name(n, "idler") == f"CH{32 + n}"

    def test_ch32_never_assigned(self):
        names = {itu_name(n, side) for n in range(1, 16) for side in ("signal", "idler")}
        assert "CH32" not in names
        assert len(names) == 30

    def test_out_of_grid(self):
        with pytest.raises(CapacityExceeded):
            itu_name(16, "signal")
        with pytest.raises(CapacityExceeded):
            itu_name(0, "idler")
        with pytest.raises(DomainError):
            itu_name(3, "pump")


class TestPlanProperties:
    @settings(max_examples=40, deadline=None)
    @given(k=st.integers(1, 5), m=st.integers(1, 4))
    def test_no_channel_assigned_twice(self, k, m):
        plan = build_plan(Topology(k, m))
        names = _itu_names(plan)
        assert len(names) == len(set(names))

    @settings(max_examples=40, deadline=None)
    @given(k=st.integers(1, 5), m=st.integers(1, 4))
    def test_every_successful_plan_is_fully_connected(self, k, m):
        plan = build_plan(Topology(k, m))
        assert verify_full_connectivity(plan)["fully_connected"]
        assert brute_force_uncovered(plan, k, m) == []

    def test_every_subnet_pair_appears_exactly_once(self):
        plan = build_plan(Topology(5, 3))
        assert set(plan.inter_links) == set(combinations(range(5), 2))

    def test_document_is_valid_json_with_expected_sections(self):
        doc = json.loads(build_plan(Topology(5, 3)).to_document())
        assert doc["itu_channels"] == 30
        assert len(doc["inter_subnet_links"]) == 10
        assert len(doc["intra_subnet_links"]) == 5
        assert doc["intra_subnet_links"][0]["signal"] == "CH27"

    @pytest.mark.parametrize("k, m, grid", [(5, 3, 15), (1, 1, 15), (3, 12, 15), (6, 2, 40)])
    def test_dict_is_the_document_parsed(self, k, m, grid):
        # report.json embeds to_dict() where it once embedded the parsed document.
        plan = build_plan(Topology(k, m, grid))
        assert plan.to_dict() == json.loads(plan.to_document())
