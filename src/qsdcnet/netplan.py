"""DWDM/TDM wavelength allocation for a fully connected multi-subnet network.

The default grid carries 15 correlated channel pairs n/-n: signal channels
CH17..CH31 are numbered 1..15 and idler channels CH33..CH47 are their
negative partners (CH32 is never assigned). A plan gives every unordered
subnet pair one channel pair for inter-subnet links, plus one channel pair
per subnet that a 1xm splitter with per-member TDM delay slots shares among
the subnet's users.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass
from itertools import combinations, count
from operator import mul

from .errors import CapacityExceeded, DomainError, check_range

DEFAULT_GRID_SIZE = 15

_CAPACITY_HINT = (
    "increase ITU international wavelength channels or utilize narrower-band DWDMs"
)


def itu_name(pair_index: int, side: str, grid_size: int = DEFAULT_GRID_SIZE) -> str:
    """ITU channel name for one side of pair n/-n.

    On the default 15-pair grid, signal n maps to CH(16+n) = CH17..CH31 and
    idler n to CH(32+n) = CH33..CH47. Larger grids extend the same layout:
    signal block CH17..CH(16+G), one guard channel, then the idler block.
    """
    if side not in ("signal", "idler"):
        raise DomainError(f"side must be 'signal' or 'idler', got {side!r}")
    check_range("grid_size", grid_size, 1)
    if not 1 <= pair_index <= grid_size:
        raise CapacityExceeded(
            f"pair index {pair_index} is outside the {grid_size}-pair grid; "
            + _CAPACITY_HINT
        )
    if side == "signal":
        return f"CH{16 + pair_index}"
    return f"CH{16 + grid_size + 1 + pair_index}"


@dataclass(frozen=True)
class IntraLink:
    """One subnet's shared channel pair and its TDM delay slot per member."""

    pair_index: int
    tdm_slots: dict[int, int]


@dataclass(frozen=True)
class WavelengthPlan:
    topology: Topology
    inter_links: dict[tuple[int, int], int]
    intra_links: dict[int, IntraLink]

    def to_dict(self) -> dict:
        """The plan as a JSON-ready document, keys in a fixed order."""
        pairs = len(self.inter_links) + len(self.intra_links)
        topology = self.topology

        def channels(index: int) -> dict:
            return {
                "pair_index": index,
                "signal": itu_name(index, "signal", topology.grid_size),
                "idler": itu_name(index, "idler", topology.grid_size),
            }

        return {
            "subnets": topology.subnets,
            "users_per_subnet": topology.users_per_subnet,
            "grid_size": topology.grid_size,
            "channel_pairs": pairs,
            "itu_channels": 2 * pairs,  # a signal and an idler channel each
            "inter_subnet_links": [
                {"subnets": list(key), **channels(index)}
                for key, index in sorted(self.inter_links.items())
            ],
            "intra_subnet_links": [
                {
                    "subnet": subnet,
                    **channels(link.pair_index),
                    "tdm_slots": {str(m): s for m, s in sorted(link.tdm_slots.items())},
                }
                for subnet, link in sorted(self.intra_links.items())
            ],
        }

    def to_document(self) -> str:
        """Stable structured-text export of the plan (JSON, fixed key order)."""
        return json.dumps(self.to_dict(), indent=2) + "\n"


def pairs_required(k: int, m: int, grid_size: int = DEFAULT_GRID_SIZE) -> int:
    """Channel pairs a plan for k subnets of m users takes from the grid:
    C(k, 2) + k, one per subnet pair and one per subnet.

    Independent of m: each subnet shares one intra pair through its splitter
    and TDM slots, so extra members cost delay slots, not channels. Raises
    CapacityExceeded when the grid has fewer than that.
    """
    check_range("subnet count", k, 1)
    check_range("users per subnet", m, 1)
    pairs_needed = k * (k - 1) // 2 + k
    if pairs_needed > grid_size:
        raise CapacityExceeded(
            f"network needs {pairs_needed} channel pairs but the grid has "
            f"{grid_size}; " + _CAPACITY_HINT
        )
    return pairs_needed


# Ceilings on counts that size arrays or loops: each subnet member gets a TDM
# slot in the plan, the plan builds up to grid_size channel pairs, and the
# connectivity check walks C(k, 2) subnet pairs and k*m slots.
MAX_USERS_PER_SUBNET = 1000
MAX_USERS = 5000
MAX_GRID_SIZE = 10**4


@dataclass(frozen=True)
class Topology:
    subnets: int = 5
    users_per_subnet: int = 3
    grid_size: int = DEFAULT_GRID_SIZE

    def __post_init__(self):
        check_range("grid_size", self.grid_size, high=MAX_GRID_SIZE)
        check_range("users_per_subnet", self.users_per_subnet, high=MAX_USERS_PER_SUBNET)
        # The plan's own check, so no session runs on a topology no plan fits.
        pairs_required(self.subnets, self.users_per_subnet, self.grid_size)
        if self.subnets * self.users_per_subnet > MAX_USERS:
            raise DomainError(
                f"subnets must be <= {MAX_USERS // self.users_per_subnet} with "
                f"{self.users_per_subnet} users per subnet "
                f"(at most {MAX_USERS} users), got {self.subnets}"
            )


def build_plan(topology: Topology) -> WavelengthPlan:
    """Deterministically allocate channel pairs to every link of the network.

    Inter-subnet links take pair indices 1..C(k,2) in lexicographic order
    over subnet pairs, then each subnet takes the next index for its intra
    link. The topology has already checked that the grid holds them all.
    """
    k, m = topology.subnets, topology.users_per_subnet
    pairs = count(1)
    inter_links = {key: next(pairs) for key in combinations(range(k), 2)}
    intra_links = {s: IntraLink(next(pairs), {u: u for u in range(m)}) for s in range(k)}
    return WavelengthPlan(topology, inter_links, intra_links)


def verify_full_connectivity(plan: WavelengthPlan) -> dict:
    """Count the plan's unordered user pairs that have a connecting resource,
    as ``plan`` prints them: user_pairs, covered_pairs and fully_connected.

    Users in different subnets need the inter-subnet channel pair, which
    covers all m^2 pairs of the two subnets. Users in the same subnet need
    that subnet's intra channel pair plus distinct TDM slots for both
    members: of the h members holding a slot, C(h, 2) pairs less the C(c, 2)
    pairs among each c members that share one slot, which is
    (h^2 - sum of c^2) / 2. Failures are counted, not raised.
    """
    k, m = plan.topology.subnets, plan.topology.users_per_subnet
    covered = m * m * sum(map(plan.inter_links.__contains__, combinations(range(k), 2)))
    for link in map(plan.intra_links.get, range(k)):
        if link is not None:
            sharing = Counter(map(link.tdm_slots.get, range(m)))
            held = m - sharing.pop(None, 0)  # members without a slot reach no one
            counts = sharing.values()
            covered += (held * held - sum(map(mul, counts, counts))) // 2
    user_pairs = k * m * (k * m - 1) // 2
    return {
        "user_pairs": user_pairs,
        "covered_pairs": covered,
        "fully_connected": covered == user_pairs,
    }
