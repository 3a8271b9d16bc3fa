import json
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qsdcnet.errors import CapacityExceeded, DomainError
from qsdcnet.netplan import (
    IntraLink,
    UserId,
    WavelengthPlan,
    build_plan,
    channels_required,
    itu_name,
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
        subnets=plan.subnets,
        users_per_subnet=plan.users_per_subnet,
        grid_size=plan.grid_size,
        inter_links=plan.inter_links if inter_links is None else inter_links,
        intra_links=plan.intra_links if intra_links is None else intra_links,
        total_channels=plan.total_channels,
    )


def _with_slots(plan, subnet, slots):
    intra = dict(plan.intra_links)
    intra[subnet] = IntraLink(pair=intra[subnet].pair, tdm_slots=slots)
    return _broken(plan, intra_links=intra)


def _as_tuples(report):
    return [((a.subnet, a.member), (b.subnet, b.member)) for a, b in report.uncovered]


class TestBuildPlan:
    def test_reference_network_five_by_three(self):
        plan = build_plan(5, 3)
        assert len(plan.inter_links) == 10
        assert len(plan.intra_links) == 5
        assert plan.total_channels == 30
        # Inter-subnet links take indices 1..10, intra links 11..15.
        assert sorted(p.index for p in plan.inter_links.values()) == list(range(1, 11))
        assert sorted(l.pair.index for l in plan.intra_links.values()) == list(range(11, 16))

    def test_smallest_network(self):
        plan = build_plan(1, 2)
        assert len(plan.inter_links) == 0
        assert len(plan.intra_links) == 1
        assert plan.total_channels == 2
        assert plan.intra_links[0].tdm_slots == {0: 0, 1: 1}

    def test_three_by_three(self):
        plan = build_plan(3, 3)
        assert len(plan.inter_links) + len(plan.intra_links) == 6
        assert plan.total_channels == 12

    def test_grid_exhaustion(self):
        with pytest.raises(CapacityExceeded, match="narrower-band DWDM"):
            build_plan(6, 3)  # 15 + 6 = 21 pairs > 15

    def test_larger_grid_accepts_six_subnets(self):
        plan = build_plan(6, 3, grid_size=21)
        assert plan.total_channels == 42

    def test_bad_arguments(self):
        with pytest.raises(DomainError):
            build_plan(0, 3)
        with pytest.raises(DomainError):
            build_plan(3, 0)

    def test_deterministic_byte_for_byte(self):
        assert build_plan(5, 3).to_document() == build_plan(5, 3).to_document()
        assert build_plan(4, 2).to_document() == build_plan(4, 2).to_document()


class TestConnectivity:
    def test_reference_network_fully_connected(self):
        plan = build_plan(5, 3)
        report = verify_full_connectivity(plan)
        assert report.total_user_pairs == 105
        assert report.is_fully_connected
        assert brute_force_uncovered(plan, 5, 3) == []

    def test_missing_inter_link_uncovers_nine_pairs(self):
        plan = build_plan(5, 3)
        inter = dict(plan.inter_links)
        del inter[(1, 3)]
        broken = _broken(plan, inter_links=inter)
        report = verify_full_connectivity(broken)
        assert not report.is_fully_connected
        assert len(report.uncovered) == 9
        assert len(brute_force_uncovered(broken, 5, 3)) == 9
        for first, second in report.uncovered:
            assert {first.subnet, second.subnet} == {1, 3}

    def test_missing_inter_link_matches_oracle_pair_by_pair(self):
        plan = build_plan(4, 3)
        inter = dict(plan.inter_links)
        del inter[(0, 2)]
        del inter[(2, 3)]
        broken = _broken(plan, inter_links=inter)
        report = verify_full_connectivity(broken)
        assert _as_tuples(report) == brute_force_uncovered(broken, 4, 3)
        assert report.covered_pairs == report.total_user_pairs - 18

    def test_duplicate_tdm_slot_matches_oracle_pair_by_pair(self):
        plan = build_plan(3, 4)
        broken = _with_slots(plan, 1, {0: 0, 1: 2, 2: 2, 3: 0})
        report = verify_full_connectivity(broken)
        assert _as_tuples(report) == brute_force_uncovered(broken, 3, 4)
        assert _as_tuples(report) == [((1, 0), (1, 3)), ((1, 1), (1, 2))]

    def test_member_without_slot_matches_oracle_pair_by_pair(self):
        plan = build_plan(3, 4)
        broken = _with_slots(plan, 2, {0: 0, 1: 1, 3: 3, 7: 7})
        report = verify_full_connectivity(broken)
        assert _as_tuples(report) == brute_force_uncovered(broken, 3, 4)
        assert _as_tuples(report) == [((2, 0), (2, 2)), ((2, 1), (2, 2)), ((2, 2), (2, 3))]

    def test_missing_intra_link_matches_oracle_pair_by_pair(self):
        plan = build_plan(3, 3)
        intra = dict(plan.intra_links)
        del intra[0]
        broken = _broken(plan, intra_links=intra)
        report = verify_full_connectivity(broken)
        assert _as_tuples(report) == brute_force_uncovered(broken, 3, 3)
        assert len(report.uncovered) == 3

    @settings(max_examples=60, deadline=None)
    @given(
        k=st.integers(1, 4),
        m=st.integers(1, 4),
        data=st.data(),
    )
    def test_any_breakage_matches_oracle_pair_by_pair(self, k, m, data):
        plan = build_plan(k, m)
        inter = {
            key: pair for key, pair in plan.inter_links.items() if data.draw(st.booleans())
        }
        intra = {}
        for subnet, link in plan.intra_links.items():
            if data.draw(st.booleans()):
                slots = data.draw(
                    st.dictionaries(st.integers(0, m), st.integers(0, m), max_size=m + 1)
                )
                intra[subnet] = IntraLink(pair=link.pair, tdm_slots=slots)
            elif data.draw(st.booleans()):
                intra[subnet] = link
        broken = _broken(plan, inter_links=inter, intra_links=intra)
        report = verify_full_connectivity(broken)
        assert _as_tuples(report) == brute_force_uncovered(broken, k, m)
        assert report.total_user_pairs == k * m * (k * m - 1) // 2

    def test_single_user_trivially_connected(self):
        report = verify_full_connectivity(build_plan(1, 1))
        assert report.total_user_pairs == 0
        assert report.is_fully_connected


class TestChannelsRequired:
    @pytest.mark.parametrize(
        "k,m,expected", [(5, 3, 30), (1, 1, 2), (1, 7, 2), (4, 2, 20), (3, 3, 12)]
    )
    def test_formula(self, k, m, expected):
        assert channels_required(k, m) == expected

    @settings(max_examples=40, deadline=None)
    @given(k=st.integers(1, 5), m=st.integers(1, 4))
    def test_matches_distinct_channels_in_plan(self, k, m):
        plan = build_plan(k, m)
        names = set()
        for pair in plan.inter_links.values():
            names.update((pair.signal_itu, pair.idler_itu))
        for link in plan.intra_links.values():
            names.update((link.pair.signal_itu, link.pair.idler_itu))
        assert len(names) == channels_required(k, m) == plan.total_channels


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
        plan = build_plan(k, m)
        names = []
        for pair in plan.inter_links.values():
            names.extend((pair.signal_itu, pair.idler_itu))
        for link in plan.intra_links.values():
            names.extend((link.pair.signal_itu, link.pair.idler_itu))
        assert len(names) == len(set(names))

    @settings(max_examples=40, deadline=None)
    @given(k=st.integers(1, 5), m=st.integers(1, 4))
    def test_every_successful_plan_is_fully_connected(self, k, m):
        plan = build_plan(k, m)
        assert verify_full_connectivity(plan).is_fully_connected
        assert brute_force_uncovered(plan, k, m) == []

    def test_every_subnet_pair_appears_exactly_once(self):
        plan = build_plan(5, 3)
        assert set(plan.inter_links) == set(combinations(range(5), 2))

    def test_document_is_valid_json_with_expected_sections(self):
        doc = json.loads(build_plan(5, 3).to_document())
        assert doc["itu_channels"] == 30
        assert len(doc["inter_subnet_links"]) == 10
        assert len(doc["intra_subnet_links"]) == 5
        assert doc["intra_subnet_links"][0]["signal"] == "CH27"

    @pytest.mark.parametrize("k, m, grid", [(5, 3, 15), (1, 1, 15), (3, 12, 15), (6, 2, 40)])
    def test_dict_is_the_document_parsed(self, k, m, grid):
        # report.json embeds to_dict() where it once embedded the parsed document.
        plan = build_plan(k, m, grid)
        assert plan.to_dict() == json.loads(plan.to_document())
