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
from dataclasses import dataclass
from itertools import combinations

from .errors import CapacityExceeded, DomainError

DEFAULT_GRID_SIZE = 15

_CAPACITY_HINT = (
    "increase ITU international wavelength channels or utilize narrower-band DWDMs"
)


@dataclass(frozen=True)
class UserId:
    """A user addressed by (subnet index, member index within the subnet)."""

    subnet: int
    member: int


@dataclass(frozen=True)
class ChannelPair:
    """A correlated signal/idler channel pair, denoted n/-n."""

    index: int
    signal_itu: str
    idler_itu: str


def itu_name(pair_index: int, side: str, grid_size: int = DEFAULT_GRID_SIZE) -> str:
    """ITU channel name for one side of pair n/-n.

    On the default 15-pair grid, signal n maps to CH(16+n) = CH17..CH31 and
    idler n to CH(32+n) = CH33..CH47. Larger grids extend the same layout:
    signal block CH17..CH(16+G), one guard channel, then the idler block.
    """
    if side not in ("signal", "idler"):
        raise DomainError(f"side must be 'signal' or 'idler', got {side!r}")
    if grid_size < 1:
        raise DomainError(f"grid_size must be >= 1, got {grid_size}")
    if not 1 <= pair_index <= grid_size:
        raise CapacityExceeded(
            f"pair index {pair_index} is outside the {grid_size}-pair grid; "
            + _CAPACITY_HINT
        )
    if side == "signal":
        return f"CH{16 + pair_index}"
    return f"CH{16 + grid_size + 1 + pair_index}"


def channel_pair(index: int, grid_size: int = DEFAULT_GRID_SIZE) -> ChannelPair:
    return ChannelPair(
        index=index,
        signal_itu=itu_name(index, "signal", grid_size),
        idler_itu=itu_name(index, "idler", grid_size),
    )


@dataclass(frozen=True)
class IntraLink:
    """One subnet's shared channel pair and its TDM delay slot per member."""

    pair: ChannelPair
    tdm_slots: dict[int, int]


@dataclass(frozen=True)
class WavelengthPlan:
    subnets: int
    users_per_subnet: int
    grid_size: int
    inter_links: dict[tuple[int, int], ChannelPair]
    intra_links: dict[int, IntraLink]
    total_channels: int

    def to_dict(self) -> dict:
        """The plan as a JSON-ready document, keys in a fixed order."""
        return {
            "subnets": self.subnets,
            "users_per_subnet": self.users_per_subnet,
            "grid_size": self.grid_size,
            "channel_pairs": len(self.inter_links) + len(self.intra_links),
            "itu_channels": self.total_channels,
            "inter_subnet_links": [
                {
                    "subnets": list(key),
                    "pair_index": pair.index,
                    "signal": pair.signal_itu,
                    "idler": pair.idler_itu,
                }
                for key, pair in sorted(self.inter_links.items())
            ],
            "intra_subnet_links": [
                {
                    "subnet": subnet,
                    "pair_index": link.pair.index,
                    "signal": link.pair.signal_itu,
                    "idler": link.pair.idler_itu,
                    "tdm_slots": {str(m): s for m, s in sorted(link.tdm_slots.items())},
                }
                for subnet, link in sorted(self.intra_links.items())
            ],
        }

    def to_document(self) -> str:
        """Stable structured-text export of the plan (JSON, fixed key order)."""
        return json.dumps(self.to_dict(), indent=2) + "\n"


def channels_required(k: int, m: int) -> int:
    """Distinct ITU channels needed for k subnets of m users: 2*(C(k,2) + k).

    Independent of m: each subnet shares one intra pair through its splitter
    and TDM slots, so extra members cost delay slots, not channels.
    """
    if k < 1:
        raise DomainError(f"subnet count must be >= 1, got {k}")
    if m < 1:
        raise DomainError(f"users per subnet must be >= 1, got {m}")
    return 2 * (k * (k - 1) // 2 + k)


def pairs_required(k: int, m: int, grid_size: int = DEFAULT_GRID_SIZE) -> int:
    """Channel pairs a plan for k subnets of m users takes from the grid.

    Raises CapacityExceeded when the grid has fewer than that.
    """
    pairs_needed = channels_required(k, m) // 2
    if pairs_needed > grid_size:
        raise CapacityExceeded(
            f"network needs {pairs_needed} channel pairs but the grid has "
            f"{grid_size}; " + _CAPACITY_HINT
        )
    return pairs_needed


# Ceilings on counts that size arrays or loops: each subnet member gets a TDM
# slot in the plan, the plan builds up to grid_size channel pairs, and the
# connectivity check visits every user pair.
MAX_USERS_PER_SUBNET = 1000
MAX_USERS = 5000
MAX_GRID_SIZE = 10**4


@dataclass(frozen=True)
class Topology:
    subnets: int = 5
    users_per_subnet: int = 3
    grid_size: int = DEFAULT_GRID_SIZE

    def __post_init__(self):
        if self.grid_size > MAX_GRID_SIZE:
            raise DomainError(f"grid_size must be <= {MAX_GRID_SIZE}, got {self.grid_size}")
        if self.users_per_subnet > MAX_USERS_PER_SUBNET:
            raise DomainError(
                f"users_per_subnet must be <= {MAX_USERS_PER_SUBNET}, "
                f"got {self.users_per_subnet}"
            )
        # The plan's own check, so no session runs on a topology no plan fits.
        pairs_required(self.subnets, self.users_per_subnet, self.grid_size)
        if self.subnets * self.users_per_subnet > MAX_USERS:
            raise DomainError(
                f"subnets must be <= {MAX_USERS // self.users_per_subnet} with "
                f"{self.users_per_subnet} users per subnet "
                f"(at most {MAX_USERS} users), got {self.subnets}"
            )


def build_plan(k: int, m: int, grid_size: int = DEFAULT_GRID_SIZE) -> WavelengthPlan:
    """Deterministically allocate channel pairs to every link of the network.

    Inter-subnet links take pair indices 1..C(k,2) in lexicographic order
    over subnet pairs, then each subnet takes the next index for its intra
    link. Raises CapacityExceeded when the grid has too few pairs.
    """
    pairs_needed = pairs_required(k, m, grid_size)
    inter_links: dict[tuple[int, int], ChannelPair] = {}
    next_index = 1
    for a, b in combinations(range(k), 2):
        inter_links[(a, b)] = channel_pair(next_index, grid_size)
        next_index += 1
    intra_links: dict[int, IntraLink] = {}
    for subnet in range(k):
        slots = {member: member for member in range(m)}
        intra_links[subnet] = IntraLink(pair=channel_pair(next_index, grid_size), tdm_slots=slots)
        next_index += 1
    return WavelengthPlan(
        subnets=k,
        users_per_subnet=m,
        grid_size=grid_size,
        inter_links=inter_links,
        intra_links=intra_links,
        total_channels=2 * pairs_needed,
    )


@dataclass(frozen=True)
class ConnectivityReport:
    total_user_pairs: int
    covered_pairs: int
    uncovered: tuple[tuple[UserId, UserId], ...]

    @property
    def is_fully_connected(self) -> bool:
        return self.covered_pairs == self.total_user_pairs


def _intra_failures(link: IntraLink | None, m: int) -> dict[int, list[int]]:
    """Members u2 > u1 that member u1 of a subnet cannot reach, by u1.

    Empty for a healthy link: present, with a TDM slot for every member and
    no slot shared by two members. Only a link that fails walks its pairs.
    """
    slots = [None] * m if link is None else [link.tdm_slots.get(u) for u in range(m)]
    if None not in slots and len(set(slots)) == m:
        return {}
    failures: dict[int, list[int]] = {}
    for u1, u2 in combinations(range(m), 2):
        if slots[u1] is None or slots[u2] is None or slots[u1] == slots[u2]:
            failures.setdefault(u1, []).append(u2)
    return failures


def verify_full_connectivity(plan: WavelengthPlan) -> ConnectivityReport:
    """Check every unordered user pair of the plan has a connecting resource.

    Users in the same subnet need that subnet's intra channel pair plus
    distinct TDM slots for both members; users in different subnets need the
    inter-subnet channel pair. A healthy intra link covers its C(m, 2) pairs
    and a present inter link its m^2 pairs, so user pairs are listed only for
    links that fail, in the order of ``combinations`` over users sorted by
    (subnet, member). Failures are reported, not raised.
    """
    k, m = plan.subnets, plan.users_per_subnet
    total = k * m * (k * m - 1) // 2
    uncovered: list[tuple[UserId, UserId]] = []
    for s1 in range(k):
        intra = _intra_failures(plan.intra_links.get(s1), m)
        missing = [s2 for s2 in range(s1 + 1, k) if (s1, s2) not in plan.inter_links]
        if not intra and not missing:
            continue
        for u1 in range(m):
            first = UserId(s1, u1)
            uncovered.extend((first, UserId(s1, u2)) for u2 in intra.get(u1, ()))
            for s2 in missing:
                uncovered.extend((first, UserId(s2, u2)) for u2 in range(m))
    return ConnectivityReport(
        total_user_pairs=total,
        covered_pairs=total - len(uncovered),
        uncovered=tuple(uncovered),
    )
