"""Three-step partition heuristic.

Step 1 buckets packets into subsets keyed by receiver tuples: a receiver's
key is itself plus everyone who both demands one of its side-information
packets and already holds the receiver's own packet.  (The packet-initialized
variant gives each packet one key, the union over its receivers.)  Step 2
repeatedly promotes any subset that is worthless to one of its key members —
zero residual information — into higher-level subsets until every subset is
equally useful to all its key members.  Step 3 compresses co-bucketed packet
groups to single XOR rows and charges each subset its worst-case residual
information, realized with one deterministic matrix of MDS-combined
transmissions; no other coefficients are tried.
"""

from __future__ import annotations

from dataclasses import dataclass

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


@dataclass(frozen=True, order=True)
class SubsetKey:
    """Sorted tuple of receivers owning a working subset; level is the tuple
    length, and ordering is lexicographic on the members."""

    members: tuple[UserId, ...]

    @staticmethod
    def of(users) -> "SubsetKey":
        return SubsetKey(tuple(sorted(set(users))))

    @property
    def level(self) -> int:
        return len(self.members)

    def extended(self, uid: UserId) -> "SubsetKey":
        return SubsetKey(tuple(sorted(self.members + (uid,))))

    def fmt(self) -> str:
        return "".join(u.label() for u in self.members)


#: A working subset's contents as packet groups: packets of one group shared
#: a Step-1 key and will collapse to a single XOR row in Step 3.
Groups = tuple[frozenset[int], ...]


def _receiver_keys(inst: GicInstance) -> dict[UserId, SubsetKey]:
    """Step-1 key per receiver: itself plus (demanders of its side packets
    intersected with holders of its own packet)."""
    holders: dict[int, set[UserId]] = {i: set() for i in range(1, inst.m + 1)}
    for uid, side in inst.users:
        for p in side:
            holders[p].add(uid)
    keys = {}
    for uid, side in inst.users:
        demanders = {v for p in side for v in inst.users_of_packet.get(p, ())}
        keys[uid] = SubsetKey.of({uid} | (demanders & holders[uid.packet]))
    return keys


def initial_subsets_user(inst: GicInstance) -> dict[SubsetKey, Groups]:
    """One insertion of packet i per receiver of i, under that receiver's
    key; packets meeting at a key form a single group."""
    buckets: dict[SubsetKey, set[int]] = {}
    for uid, key in _receiver_keys(inst).items():
        buckets.setdefault(key, set()).add(uid.packet)
    return {k: (frozenset(v),) for k, v in buckets.items()}


def initial_subsets_packet(inst: GicInstance) -> dict[SubsetKey, Groups]:
    """Packet-initialized variant: each packet inserted once, keyed by the
    union of its receivers' keys."""
    rkeys = _receiver_keys(inst)
    buckets: dict[SubsetKey, set[int]] = {}
    for i in range(1, inst.m + 1):
        merged: set[UserId] = set()
        for uid in inst.users_of_packet.get(i, ()):
            merged |= set(rkeys[uid].members)
        buckets.setdefault(SubsetKey.of(merged), set()).add(i)
    return {k: (frozenset(v),) for k, v in buckets.items()}


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
    left as is."""
    subs = dict(subsets)
    all_users = inst.user_ids
    side = inst.side_map
    trace: list[str] = []
    stuck: set[SubsetKey] = set()
    while True:
        zero: list[SubsetKey] = []
        unequal: list[SubsetKey] = []
        for key, groups in subs.items():
            pkts: set[int] = set()
            for g in groups:
                pkts |= g
            ents = [len(pkts - side[u]) for u in key.members]
            if any(e == 0 for e in ents):
                zero.append(key)
            elif len(set(ents)) > 1:
                unequal.append(key)
        zero = [k for k in zero if k not in stuck]
        unequal = [k for k in unequal if k not in stuck]
        cands = zero or unequal
        if not cands:
            break
        key = min(cands, key=lambda k: (k.level, k))
        v = key.level
        if v == len(all_users):
            stuck.add(key)
            continue
        higher = [k2 for k2 in subs if k2 != key and k2.level == v + 1]
        if higher:
            target = min(higher)
            subs[target] = subs[target] + subs.pop(key)
            trace.append(f"promote {key.fmt()} level {v} -> {v + 1} merge into {target.fmt()}")
            continue
        missing = next(u for u in all_users if u not in key.members)
        grown = key.extended(missing)
        groups = subs.pop(key)
        if grown in subs:
            subs[grown] = subs[grown] + groups
            trace.append(f"promote {key.fmt()} level {v} -> {v + 1} merge into {grown.fmt()}")
        else:
            subs[grown] = groups
            trace.append(f"promote {key.fmt()} level {v} -> {v + 1}")
    return subs, tuple(trace)


def _subset_rows(groups: Groups) -> list[int]:
    """Post-compression content rows, packed as by `pack_row`: one XOR row
    per packet group, duplicates dropped."""
    rows: list[int] = []
    for g in groups:
        row = sum(unit_row(p) for p in g)
        if row not in rows:
            rows.append(row)
    return rows


def step3_rate(
    inst: GicInstance, subsets: dict[SubsetKey, Groups], scheme: str, trace: tuple[str, ...] = ()
) -> SchemeSolution:
    """Charge each final subset the worst residual information among its key
    members and realize that rate with one deterministic matrix: the plain
    MDS combinations of each subset's compressed rows, over the field
    `CodingMatrix.of_packed` reads off them.  The matrix is returned as
    built; nothing retries other coefficients."""
    solution_rows = []
    for key in sorted(subsets, key=lambda k: (k.level, k)):
        rows = _subset_rows(subsets[key])
        rho = max(residual_rank(rows, inst.side_map[u], inst.m) for u in key.members)
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
