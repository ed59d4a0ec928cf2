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
from typing import Iterable

from .gf import CodingMatrix, mds_rows, residual_rank, unit_row
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


def _receiver_keys(inst: GicInstance) -> dict[UserId, SubsetKey]:
    """Step-1 key per receiver: itself plus every demander of one of its
    side packets that holds the receiver's own packet.  A receiver
    demanding a packet outside 1..m raises ValueError; a side packet
    outside 1..m does in step 3, from `GicInstance.packet_masks`."""
    side, demanders = inst.side_map, inst.users_of_packet
    keys = {}
    for uid, s in inst.users:
        i = uid.packet
        if not 0 < i <= inst.m:
            raise ValueError(f"receiver {uid.label()} demands packet {i} outside 1..{inst.m}")
        keys[uid] = tuple(sorted({uid} | {v for p in s for v in demanders.get(p, ()) if i in side[v]}))
    return keys


def _seeds(pairs: Iterable[tuple[SubsetKey, int]]) -> dict[SubsetKey, Groups]:
    """One working subset per key, in first-seen key order, holding the
    packets inserted under it as a single group."""
    buckets: dict[SubsetKey, set[int]] = {}
    for key, packet in pairs:
        buckets.setdefault(key, set()).add(packet)
    return {k: (frozenset(v),) for k, v in buckets.items()}


def initial_subsets_user(inst: GicInstance) -> dict[SubsetKey, Groups]:
    """One insertion of packet i per receiver of i, under that receiver's
    key; packets meeting at a key form a single group."""
    return _seeds((key, uid.packet) for uid, key in _receiver_keys(inst).items())


def initial_subsets_packet(inst: GicInstance) -> dict[SubsetKey, Groups]:
    """Packet-initialized variant: each packet inserted once, keyed by the
    union of its receivers' keys."""
    rkeys, demanders = _receiver_keys(inst), inst.users_of_packet
    return _seeds(
        (tuple(sorted({v for uid in demanders.get(i, ()) for v in rkeys[uid]})), i)
        for i in range(1, inst.m + 1)
    )


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
    operations, not a scan of every subset."""
    subs = dict(subsets)
    all_users = inst.user_ids
    side = inst.side_map
    trace: list[str] = []
    ZERO, UNEQUAL = 0, 1
    cls: dict[SubsetKey, int | None] = {}
    cands: list[tuple[int, int, SubsetKey]] = []  # (class, level, key) heap
    levels: dict[int, list[SubsetKey]] = {}  # level -> heap of the keys there

    def classify(key: SubsetKey) -> None:
        pkts = frozenset().union(*subs[key])
        ents = {len(pkts - side[u]) for u in key}
        c = ZERO if 0 in ents else UNEQUAL if len(ents) > 1 else None
        cls[key] = c
        if c is not None:
            heappush(cands, (c, len(key), key))

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
        del cls[key]
        higher = levels.get(v + 1, [])
        while higher and higher[0] not in subs:
            heappop(higher)
        if higher:
            grown = higher[0]
        else:
            missing = next(u for u in all_users if u not in key)
            grown = tuple(sorted(key + (missing,)))
        step = f"promote {''.join(u.label() for u in key)} level {v} -> {v + 1}"
        if grown in subs:
            subs[grown] += groups
            step += f" merge into {''.join(u.label() for u in grown)}"
        else:
            subs[grown] = groups
            heappush(levels.setdefault(v + 1, []), grown)
        classify(grown)
        trace.append(step)
    return subs, tuple(trace)


def _subset_rows(groups: Groups) -> list[int]:
    """Post-compression content rows, packed as by `pack_row`: one XOR row
    per packet group, duplicates dropped."""
    return list(dict.fromkeys(sum(map(unit_row, g)) for g in groups))


def step3_rate(
    inst: GicInstance, subsets: dict[SubsetKey, Groups], scheme: str, trace: tuple[str, ...] = ()
) -> SchemeSolution:
    """Charge each final subset the worst residual information among its key
    members and realize that rate with one deterministic matrix: the plain
    MDS combinations of each subset's compressed rows, over the field
    `CodingMatrix.of_packed` reads off them.  The matrix is returned as
    built; nothing retries other coefficients."""
    side = dict(zip(inst.user_ids, (s for _, s in inst.packet_masks)))
    solution_rows = []
    for key in sorted(subsets, key=lambda k: (len(k), k)):
        rows = _subset_rows(subsets[key])
        rho = max(residual_rank(rows, side[u], inst.m) for u in key)
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
    merged, trace = step2_merge(inst, start)
    return step3_rate(inst, merged, f"heuristic-{init}", trace)
