"""Three-step partition heuristic.

Step 1 buckets packets into subsets keyed by sorted receiver tuples: a
receiver's key is itself plus everyone who both demands one of its
side-information packets and already holds the receiver's own packet.  (The
packet-initialized variant gives each packet one key, the union over its
receivers.)  A key's level is its length, and keys order lexicographically
as tuples.  Step 2 repeatedly promotes any subset that is worthless to one
of its key members — zero residual information — into higher-level subsets
until every subset is equally useful to all its key members.  Step 3
compresses co-bucketed packet groups to single XOR rows and charges each
subset its worst-case residual information, realized with one deterministic
matrix of MDS-combined transmissions; no other coefficients are tried.
"""

from __future__ import annotations

from heapq import heappop, heappush
from operator import attrgetter, itemgetter
from typing import Iterable

from .gf import CodingMatrix, bit_row, mds_rows, residual_rank, unit_row
from .model import GicInstance, UserId
from .partition import SchemeSolution

__all__ = [
    "SubsetKey",
    "initial_subsets_user",
    "initial_subsets_packet",
    "step2_merge",
    "step3_rate",
    "run_heuristic",
]


#: The sorted receivers owning a working subset.
SubsetKey = tuple[UserId, ...]

#: A working subset's contents as packet groups: packets of one group shared
#: a Step-1 key and will collapse to a single XOR row in Step 3.
Groups = tuple[frozenset[int], ...]


def _receiver_keys(inst: GicInstance) -> tuple[tuple[UserId, ...], list[int]]:
    """The receivers, in user order, and the Step-1 key of each as a
    receiver bitmask, bit r for the r-th receiver: its own bit plus every
    demander of one of its side packets that holds its own packet, that is
    the OR of its side packets' demanders ANDed with its packet's holders.
    A `UserId` listed twice counts once, with its last side set, as in
    `GicInstance.side_map` and the side masks of steps 2 and 3.  A demanded
    or side packet outside 1..m raises ValueError, from
    `GicInstance.packet_masks`."""
    inst.packet_masks  # the range checks; the side sets below are then in 1..m
    users = inst.side_map.items()
    demanders = [0] * (inst.m + 1)
    holders = [0] * (inst.m + 1)
    for r, (uid, side) in enumerate(users):
        bit = 1 << r
        demanders[uid.packet] |= bit
        for p in side:
            holders[p] |= bit
    keys = []
    for r, (uid, side) in enumerate(users):
        near = 0  # the demanders of its side packets
        for p in side:
            near |= demanders[p]
        keys.append(1 << r | near & holders[uid.packet])
    return tuple(inst.side_map), keys


def _seeds(ids: tuple[UserId, ...], masks: Iterable[int], packets: Iterable[int]) -> dict[SubsetKey, Groups]:
    """One working subset per key, in first-seen key order, holding the
    packets inserted under it as a single group: each packet goes under the
    receivers of its key mask, bit r for ids[r], as a sorted `UserId` tuple
    made once per distinct mask."""
    buckets: dict[int, set[int]] = {}
    for mask, packet in zip(masks, packets):
        buckets.setdefault(mask, set()).add(packet)
    seeds: dict[SubsetKey, Groups] = {}
    for mask, group in buckets.items():
        members = []
        while mask:
            low = mask & -mask
            members.append(ids[low.bit_length() - 1])
            mask ^= low
        seeds[tuple(sorted(members))] = (frozenset(group),)
    return seeds


def initial_subsets_user(inst: GicInstance) -> dict[SubsetKey, Groups]:
    """One insertion of packet i per receiver of i, under that receiver's
    key; packets meeting at a key form a single group."""
    ids, keys = _receiver_keys(inst)
    return _seeds(ids, keys, map(attrgetter("packet"), ids))


def initial_subsets_packet(inst: GicInstance) -> dict[SubsetKey, Groups]:
    """Packet-initialized variant: each packet inserted once, keyed by the
    union of its receivers' keys."""
    ids, keys = _receiver_keys(inst)
    union = [0] * (inst.m + 1)
    for uid, key in zip(ids, keys):
        union[uid.packet] |= key
    return _seeds(ids, union[1:], range(1, inst.m + 1))


def _side_masks(inst: GicInstance) -> dict[UserId, int]:
    """Each receiver's side mask from the view, bit p - 1 for packet p; a
    `UserId` listed twice keeps its last one."""
    return dict(zip(inst.user_ids, map(itemgetter(1), inst.packet_masks)))


def step2_merge(
    inst: GicInstance, subsets: dict[SubsetKey, Groups]
) -> tuple[dict[SubsetKey, Groups], tuple[str, ...]]:
    """Promote subsets until, for every subset, all key members see the same
    strictly positive residual information.

    Promotion of a level-v subset moves its groups into the lexicographically
    smallest subset at level v+1 when one exists; otherwise its key grows by
    the smallest absent receiver tuple, merging on key collision.  Candidates
    are processed in ascending (level, key) order, zero-residual subsets
    first; a subset whose key already spans every receiver cannot grow and is
    left as is.

    A promotion changes only the subset it grows or merges into, so only
    that one is classified again (zero-residual, unequal or settled).  The
    candidates sit in one heap ordered by (class, level, key), zero-residual
    first, and the keys in one heap per level, ordered by key; a candidate
    whose key has since left or changed class is dropped when it reaches
    the top.  Each promotion costs one classification and a few heap
    operations, not a scan of every subset.  Each subset's packets are kept
    as one mask next to it, ORed into the subset it merges into, so a key
    member's residual information is the popcount of that mask less the
    member's side mask.  Each key's trace label is joined once per call,
    from receiver labels formatted once, at the first promotion."""
    return _merge(inst, subsets, _side_masks(inst))


def _merge(
    inst: GicInstance, subsets: dict[SubsetKey, Groups], side: dict[UserId, int]
) -> tuple[dict[SubsetKey, Groups], tuple[str, ...]]:
    """`step2_merge` on the receivers' side masks."""
    subs = dict(subsets)
    all_users = inst.user_ids
    pmask = {}
    for key, groups in subs.items():
        pkts = 0  # bit p for packet p, then shifted to the side masks' bit p - 1
        for group in groups:
            for p in group:
                pkts |= 1 << p
        pmask[key] = pkts >> 1
    names: dict[UserId, str] = {}
    labels: dict[SubsetKey, str] = {}
    trace: list[str] = []
    ZERO, UNEQUAL = 0, 1
    cls: dict[SubsetKey, int | None] = {}
    cands: list[tuple[int, int, SubsetKey]] = []  # (class, level, key) heap
    levels: dict[int, list[SubsetKey]] = {}  # level -> heap of the keys there

    def classify(key: SubsetKey) -> None:
        pkts = pmask[key]
        ents = {(pkts & ~side[u]).bit_count() for u in key}
        c = ZERO if 0 in ents else UNEQUAL if len(ents) > 1 else None
        cls[key] = c
        if c is not None:
            heappush(cands, (c, len(key), key))

    def label(key: SubsetKey) -> str:
        if key not in labels:
            if not names:  # the first label: every receiver's, once
                names.update(zip(all_users, map(UserId.label, all_users)))
            labels[key] = "".join(map(names.__getitem__, key))
        return labels[key]

    for key in subs:
        classify(key)
        heappush(levels.setdefault(len(key), []), key)
    while cands:
        c, v, key = heappop(cands)
        if cls.get(key) != c:
            continue
        if v == len(all_users):
            cls[key] = None  # it cannot grow; taking it again would change nothing
            continue
        groups = subs.pop(key)
        pkts = pmask.pop(key)
        del cls[key]
        higher = levels.get(v + 1, [])
        while higher and higher[0] not in subs:
            heappop(higher)
        if higher:
            grown = higher[0]
        else:
            missing = next(u for u in all_users if u not in key)
            grown = tuple(sorted(key + (missing,)))
        step = f"promote {label(key)} level {v} -> {v + 1}"
        if grown in subs:
            subs[grown] += groups
            pmask[grown] |= pkts
            step += f" merge into {label(grown)}"
        else:
            subs[grown] = groups
            pmask[grown] = pkts
            heappush(levels.setdefault(v + 1, []), grown)
        classify(grown)
        trace.append(step)
    return subs, tuple(trace)


def step3_rate(
    inst: GicInstance, subsets: dict[SubsetKey, Groups], scheme: str, trace: tuple[str, ...] = ()
) -> SchemeSolution:
    """Charge each final subset the worst residual information among its key
    members and realize that rate with one deterministic matrix: the plain
    MDS combinations of each subset's compressed rows, one XOR row per
    packet group with duplicates dropped, over the field
    `CodingMatrix.of_packed` reads off them.  The residual ranks are one
    `residual_rank` per subset, on its group masks as bit rows and its key
    members' side masks.  The matrix is returned as built; nothing retries
    other coefficients."""
    return _rate(inst, subsets, _side_masks(inst), scheme, trace)


def _rate(
    inst: GicInstance, subsets: dict[SubsetKey, Groups], side: dict[UserId, int], scheme: str, trace: tuple[str, ...]
) -> SchemeSolution:
    """`step3_rate` on the receivers' side masks."""
    solution_rows = []
    for key in sorted(subsets, key=lambda k: (len(k), k)):
        rows = list(dict.fromkeys(sum(map(unit_row, g)) for g in subsets[key]))
        rho = residual_rank([bit_row(row, inst.m) for row in rows], map(side.__getitem__, key), inst.m)
        if rho:
            solution_rows += mds_rows(rows, rho)
    matrix = CodingMatrix.of_packed(inst.m, solution_rows)
    return SchemeSolution(scheme, matrix.nrows, None, matrix, trace=trace)


def run_heuristic(inst: GicInstance, init: str = "user") -> SchemeSolution:
    """Full pipeline with the chosen initialization ('user' or 'packet')."""
    if init == "user":
        start = initial_subsets_user(inst)
    elif init == "packet":
        start = initial_subsets_packet(inst)
    else:
        raise ValueError(f"init must be 'user' or 'packet', got {init!r}")
    side = _side_masks(inst)
    merged, trace = _merge(inst, start, side)
    return _rate(inst, merged, side, f"heuristic-{init}", trace)
