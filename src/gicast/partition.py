"""Partition-based multicast schemes and exhaustive minimization.

Two scheme families share one block-cost table builder: packet partitions
(each block multicast with an MDS code sized by the worst-informed demander)
and user partitions (blocks of receivers, coded over the packets the block
demands); a packet block costs what the user block of its demanders costs.
The builder computes every block's cost at once on big-int lanes, one byte
per block, as the largest count of the block's packets that one of its
receivers lacks.
Stacking the user-partition transmissions and dropping linearly
dependent rows gives the rank-reduced variant.  The packet- and
user-partition rates are sums of block costs, so their exhaustive searches
are a subset DP in O(3^n), in two passes: small-int totals, where a set's
optimum is its optimum without its lowest member or one more, and only a
block that costs what its other members cost at best can give the lower
value; then the witness, read top-down along the optimal blocks only.  The
rank-reduced search is a depth-first search over blocks, pruned by rank
plus a lower bound on what the rest must add.  It takes each level's blocks
in the order of their branches' first strings, so once it holds a partition
on the acyclic lower bound it ends each level at the first branch that
starts after that partition.
All three return the first optimum in restricted-growth-string order.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Sequence

from .gf import CodingMatrix, Echelon, mds_rows, row_basis, unit_row
from .model import GicInstance, UserId

__all__ = [
    "DEFAULT_CAP",
    "PartitionCapError",
    "PacketPartition",
    "UserPartition",
    "SchemeSolution",
    "group_partition",
    "ppm_rate",
    "upm_rate",
    "ppm_as_upm",
    "build_transmissions",
    "iupm_rate",
    "acyclic_lower_bound",
    "acyclic_bound",
    "exhaustive_ppm",
    "exhaustive_upm",
    "exhaustive_iupm",
]

#: Largest ground set searched by default.  There are Bell(n) partitions
#: (Bell(13) is ~27.6 million) and the PPM/UPM subset DP is O(3^n); on
#: random instances of 13/14/15/16 users over 8 packets, `exhaustive_upm`
#: takes 0.007/0.017/0.05/0.09 s (median of 5), nearly all of it the DP:
#: the cost table takes under 1 ms at 13 users and about 6 ms at 16.  The
#: bound-pruned IUPM search takes 0.0004-0.013 s (median 0.005 s) on 20
#: random 12-user instances over 7 packets and 0.0006-0.25 s (median
#: 0.005 s) on 20 13-user ones over 6 packets (2-vCPU VM).
DEFAULT_CAP = 13


class PartitionCapError(ValueError):
    """Ground set too large for exhaustive enumeration."""


def _canon(blocks: Iterable[Iterable]) -> tuple[frozenset, ...]:
    return tuple(sorted((frozenset(b) for b in blocks), key=min))


@dataclass(frozen=True)
class PacketPartition:
    """Disjoint nonempty packet blocks covering 1..m, ordered by smallest
    member."""

    blocks: tuple[frozenset[int], ...]

    @staticmethod
    def of(blocks: Iterable[Iterable[int]]) -> "PacketPartition":
        return PacketPartition(_canon(blocks))

    def check(self, m: int) -> None:
        seen: set[int] = set()
        for b in self.blocks:
            if not b:
                raise ValueError("empty block")
            if b & seen:
                raise ValueError(f"overlapping blocks at {sorted(b & seen)}")
            seen |= b
        if seen != set(range(1, m + 1)):
            raise ValueError(f"blocks do not cover 1..{m}")


@dataclass(frozen=True)
class UserPartition:
    """Disjoint nonempty receiver blocks covering all users, ordered by
    smallest member."""

    blocks: tuple[frozenset[UserId], ...]

    @staticmethod
    def of(blocks: Iterable[Iterable[UserId]]) -> "UserPartition":
        return UserPartition(_canon(blocks))

    def check(self, inst: GicInstance) -> None:
        seen: set[UserId] = set()
        for b in self.blocks:
            if not b:
                raise ValueError("empty block")
            if b & seen:
                raise ValueError("overlapping blocks")
            seen |= b
        if seen != set(inst.user_ids):
            raise ValueError("blocks do not cover the user set")


@dataclass(frozen=True)
class SchemeSolution:
    """A complete achievable scheme: its rate always equals the number of
    transmitted coded symbols."""

    scheme: str
    rate: int
    partition: PacketPartition | UserPartition | None
    matrix: CodingMatrix
    policy: str = "deterministic"
    trace: tuple[str, ...] = ()

    def __post_init__(self):
        if self.rate != self.matrix.nrows:
            raise ValueError(f"rate {self.rate} != {self.matrix.nrows} transmitted rows")


# ---------------------------------------------------------------- block rates

def _block_codes(inst: GicInstance, part: UserPartition) -> list[tuple[list[int], int]]:
    """Per receiver block W: the packets Y it demands, ascending, and its
    overlap c = min over W of |A cap Y|, counted on the side masks of
    `GicInstance.side_masks`.  The block is served by an (|Y|, |Y| - c)
    MDS code."""
    part.check(inst)
    side = inst.side_masks
    codes = []
    for W in part.blocks:
        Y = {uid.packet for uid in W}
        ymask = sum(1 << (p - 1) for p in Y)
        codes.append((sorted(Y), min((side[uid] & ymask).bit_count() for uid in W)))
    return codes


def upm_rate(inst: GicInstance, part: UserPartition) -> tuple[int, tuple[int, ...]]:
    """Rate of a user partition and the per-block overlap counts: block W
    demands Y = {packets of W} and costs |Y| - min over W of |A cap Y|."""
    codes = _block_codes(inst, part)
    return sum(len(Y) - c for Y, c in codes), tuple(c for _, c in codes)


def ppm_rate(inst: GicInstance, part: PacketPartition) -> tuple[int, tuple[int, ...]]:
    """Rate of a packet partition and the per-block guaranteed-overlap counts:
    block T costs |T| - min over demanders of packets in T of |A cap T|.
    That is the user-partition rate of `ppm_as_upm`, since UPM subsumes PPM."""
    return upm_rate(inst, ppm_as_upm(inst, part))


def ppm_as_upm(inst: GicInstance, part: PacketPartition) -> UserPartition:
    """A packet partition viewed as a user partition: block T becomes all
    receivers demanding a packet of T.  Rates coincide."""
    part.check(inst.m)
    return UserPartition.of(
        frozenset(uid for uid in inst.user_ids if uid.packet in T) for T in part.blocks
    )


def group_partition(inst: GicInstance) -> UserPartition:
    """Cluster receivers whose demanded-plus-known packet set coincides.

    On the k-group family with k >= 3 this recovers the group structure;
    for k = 2 the two receivers share a signature and collapse into one
    block, so family-specific callers should build the partition from the
    generator's GroupStructure instead.  The sets are read as masks off
    `GicInstance.packet_masks`."""
    byset: dict[int, set[UserId]] = {}
    for uid, (demand, side) in zip(inst.user_ids, inst.packet_masks):
        byset.setdefault(demand | side, set()).add(uid)
    return UserPartition.of(byset.values())


# ---------------------------------------------------------------- transmissions

def build_transmissions(inst: GicInstance, part: UserPartition) -> CodingMatrix:
    """Stack per-block MDS transmissions: block Y with overlap c sends the
    `mds_rows` of its unit rows, b = |Y| - c of them: its parity when b = 1,
    its unit rows when b = |Y|, Cauchy or Reed-Solomon rows in between, and
    none when b = 0, which only a receiver listing its own packet allows.  The
    stack is over the field `CodingMatrix.of_packed` reads off its rows:
    GF(2) unless some block sends rows of the in-between kind."""
    codes = _block_codes(inst, part)
    rows = [row for Y, c in codes if c < len(Y) for row in mds_rows([unit_row(p) for p in Y], len(Y) - c)]
    return CodingMatrix.of_packed(inst.m, rows)


def iupm_rate(inst: GicInstance, part: UserPartition) -> tuple[int, CodingMatrix, str]:
    """Rank-reduced rate of a user partition: stack the block transmissions,
    drop dependent rows, transmit the basis.  Returns (rate, basis matrix,
    coefficient policy label); the coefficients are always the deterministic
    ones of `build_transmissions`."""
    basis = row_basis(build_transmissions(inst, part))
    return basis.nrows, basis, "deterministic"


# ---------------------------------------------------------------- exhaustive search
#
# Every search returns the lexicographically first optimal restricted growth
# string (RGS): a[t] is the index of the block holding element t, blocks
# numbered by smallest member.  Strings are compared as packed ints, one
# `width`-bit digit per element with element 0 most significant; a partial
# string leaves its unassigned elements at digit 0.


@lru_cache(maxsize=None)
def _packing(n: int) -> tuple[int, tuple[int, ...]]:
    """Digit width for labels 0..n-1 and ones[mask], the packed string with
    digit 1 at every element of mask.  Depends on n alone, so it is built
    once per n.  PartitionCapError when it does not fit in memory; the
    cache keeps no exception, so a later call tries again."""
    width = max(1, (n - 1).bit_length())
    try:
        ones = _table(n)
        for mask in range(1, 1 << n):
            low = mask & -mask
            t = low.bit_length() - 1
            ones[mask] = ones[mask ^ low] + (1 << (width * (n - 1 - t)))
        return width, tuple(ones)
    except MemoryError:
        raise PartitionCapError(f"packed strings of 2^{n} sets do not fit in memory") from None


def _unpack(code: int, n: int, width: int) -> list[int]:
    digit = (1 << width) - 1
    return [(code >> (width * (n - 1 - t))) & digit for t in range(n)]


def _totals(n: int, cost: Sequence[int]) -> list[int]:
    """Pass 1 of `_min_partition_sum`: f[S], the least sum of cost[block]
    over the partitions of S, for the full set and every set without
    element 0, the only ones that are ever a rest.  Other entries stay 0.

    f(S) = min over blocks B holding low = min(S) of cost[B] + f(S - B), and
    f(S) lies in [f(S - low), f(S - low) + cost[low]]: the block {low} alone
    gives the upper end, and for B = low | s, cost[B] >= cost[s] >= f(s) and
    f(s) + f(S - B) >= f(S - low), as the union of two partitions is a
    partition.  As cost[low] <= 1, f(S) is f(S - low) when some block is
    tight, cost[B] + f(S - B) = f(S - low), and one more otherwise.  A tight
    block needs equality in both steps, so only the good s, those with
    cost[low | s] = f(s), can give one.  Every set starts at the upper end,
    and each good s lowers its supersets S - low = s | r where f(s) + f(r)
    = f(s | r).  The full set, the one set that holds element 0, is
    scanned block by block up to its first tight block instead: listing its
    good blocks reads as much.

    Sets are taken by lowest element, highest first; the sets low | R with
    R above low read only final values, cost[low::2*low] and f[0::2*low],
    both indexed by R / (2*low)."""
    full = (1 << n) - 1
    f = [0] * (1 << n)
    for t in range(n - 1, -1, -1):
        low = 1 << t
        step = low << 1
        c = cost[low::step]
        g = f[0::step]
        top = len(g) - 1
        if not t:  # the group of element 0 needs only the full set
            total = g[top]
            if c[0]:
                for s in range(1, top + 1):
                    if c[s] + g[top ^ s] == total:
                        break
                else:
                    total += 1
            f[full] = total
        elif not c[0]:  # a free singleton: f(low | R) = f(R)
            f[low::step] = g
        else:
            h = [x + 1 for x in g]
            for s in range(1, top + 1):
                gs = g[s]
                if c[s] != gs:
                    continue
                rest = top ^ s
                r = rest
                while True:
                    k = s | r
                    if gs + g[r] == g[k]:
                        h[k] = g[k]
                    if not r:
                        break
                    r = (r - 1) & rest
            f[low::step] = h
    return f


def _min_partition_sum(n: int, cost: Sequence[int]) -> tuple[int, list[int]]:
    """Minimize the sum of cost[block] over all set partitions of n elements;
    returns the total and the lexicographically first optimal RGS.

    Precondition: cost is monotone, cost[B | t] >= cost[B] for every block B
    and element t, and every singleton costs at most 1.  Both cost tables
    are: a block's worst-served receiver only loses by a wider block.

    Pass 1, `_totals`, computes every total f(S) the witness needs.

    Pass 2, the witness, top-down from the full set: with block B at label
    0, the string of R is the rest's string with every label raised by one,
    packed(rest) + ones[rest], so the order among the rest's strings carries
    over.  R's lex-first optimal string is the least of these over the
    tight blocks, cost[B] + f(R - B) = f(R), the candidates of the keyed
    single-pass DP that tie at its minimum.  A rest is solved, and
    memoized, only while ones[rest], a lower bound on its candidate, is
    below the best candidate so far."""
    width, ones = _packing(n)
    full = (1 << n) - 1
    f = _totals(n, cost)
    lexfirst = {0: 0}  # packed lex-first optimal string of each set solved

    def solve(R: int) -> int:
        code = lexfirst.get(R)
        if code is None:
            low = R & -R
            rest = R ^ low
            target = f[R]
            tight = []
            sub = rest
            while True:
                left = rest ^ sub
                if cost[sub | low] + f[left] == target:
                    tight.append((ones[left], left))
                if not sub:
                    break
                sub = (sub - 1) & rest
            tight.sort()
            for lift, left in tight:
                if code is not None and lift >= code:
                    break
                cand = solve(left) + lift
                if code is None or cand < code:
                    code = cand
            lexfirst[R] = code
        return code

    return f[full], _unpack(solve(full), n, width)


def _table(n: int, fill: int = 0) -> list[int]:
    """2^n copies of fill, the storage of a table over every subset of n
    members, claimed before any work: PartitionCapError when it does not
    fit."""
    try:
        return [fill] * (1 << n)
    except (MemoryError, OverflowError):
        raise PartitionCapError(f"block tables of 2^{n} entries do not fit in memory") from None


def _block_demands(demand: Sequence[int]) -> list[int]:
    """ymask[mask], the union of demand[t] over the members t of mask, by
    slice doubling: the masks with top member t are those below 2^t with t
    added."""
    ymask = _table(len(demand))
    for t, d in enumerate(demand):
        low = 1 << t
        ymask[low : low << 1] = [y | d for y in ymask[:low]]
    return ymask


def _cost_table(demand: Sequence[int], holders: Sequence[int], sides: Sequence[int]) -> list[int]:
    """Block costs over every subset of members.  Member t demands the
    packets in demand[t] and stands for the receivers in holders[t];
    receiver h holds the packets in sides[h].  Block mask demands Y, the
    union of its members' demands, and costs cost[mask] = |Y| minus the
    smallest |sides[h] & Y| over the receivers it stands for, the rule of
    `_block_codes`.  The table is claimed before any work: PartitionCapError
    when it does not fit.  It is computed whole by `_cost_lanes`, one byte
    per subset, whose lanes are freed before the table is filled.  It comes
    back as a list, which the searches index faster than bytes."""
    n = len(demand)
    cost = _table(n)
    cost[:] = _cost_lanes(demand, holders, sides).to_bytes(1 << n, "little")
    return cost


def _cost_lanes(demand: Sequence[int], holders: Sequence[int], sides: Sequence[int]) -> int:
    """The cost table of `_cost_table` as one int, one byte lane per subset:
    byte `mask` is cost[mask].  It uses the identity |Y| - min_h |sides[h] &
    Y| = max_h |Y - sides[h]|.

    ind[p] has a 1 in each lane whose block demands packet p: the OR, over
    p's demanders t, of the lanes whose block holds t.  For receiver h of
    member t, the sum of ind[p] over the packets p outside sides[h] is |Y -
    sides[h]| in every lane.  Kept on the lanes holding t, it is folded
    into a lane-wise max, once per distinct side set of t's receivers.
    Every lane value counts packets, fewer than 0x80, so with a 0x80 guard
    bit in every lane, (acc | guard) - x borrows across no lane and keeps a
    lane's guard bit exactly where acc >= x.  Lanes of members are built
    when used, so the peak is one lane int per packet and a few more, each
    2^n bytes."""
    size = 1 << len(demand)

    def lanes(t: int, byte: bytes) -> int:
        # `byte` in every lane whose block holds member t, 0 elsewhere
        low = 1 << t
        return int.from_bytes((bytes(low) + byte * low) * (size >> (t + 1)), "little")

    ind: dict[int, int] = {}  # packet bit -> lanes
    for t, d in enumerate(demand):
        held = lanes(t, b"\x01")
        while d:
            p = d & -d
            ind[p] = ind.get(p, 0) | held
            d ^= p
    assert len(ind) < 0x80, "a lane value must fit below the guard bit"
    guard = int.from_bytes(b"\x80" * size, "little")
    acc = 0
    for t, hs in enumerate(holders):
        held = lanes(t, b"\xff")
        lacks = set()  # the packets each receiver of t lacks, as ~side
        while hs:
            lb = hs & -hs
            hs ^= lb
            lacks.add(~sides[lb.bit_length() - 1])
        for lack in lacks:
            x = sum(v for p, v in ind.items() if lack & p) & held
            keep = (((acc | guard) - x) & guard) >> 7  # 1 in the lanes where acc >= x
            acc = x ^ ((acc ^ x) & keep * 0xFF)
    return acc


def _user_cost_table(inst: GicInstance) -> list[int]:
    """`_cost_table` over receiver blocks: member t is user t."""
    masks = inst.packet_masks
    return _cost_table([d for d, _ in masks], [1 << t for t in range(len(masks))], [s for _, s in masks])


def _packet_cost_table(inst: GicInstance) -> list[int]:
    """`_cost_table` over packet blocks: member t is packet t + 1 and
    stands for its demanders, as in `ppm_as_upm`."""
    masks = inst.packet_masks  # first, so a demanded packet outside 1..m raises its ValueError
    holders = [0] * inst.m
    for t, uid in enumerate(inst.user_ids):
        holders[uid.packet - 1] |= 1 << t
    return _cost_table([1 << t for t in range(inst.m)], holders, [side for _, side in masks])


def _rgs_to_blocks(a: Sequence[int]) -> list[list[int]]:
    blocks: list[list[int]] = [[] for _ in range(max(a) + 1)]
    for t, b in enumerate(a):
        blocks[b].append(t)
    return blocks


def _user_partition(ids: Sequence[UserId], a: Sequence[int]) -> UserPartition:
    return UserPartition.of([ids[t] for t in blk] for blk in _rgs_to_blocks(a))


def exhaustive_ppm(inst: GicInstance, cap: int = DEFAULT_CAP) -> SchemeSolution:
    """Minimum-rate packet partition (the first optimum in enumeration
    order) by subset DP, with its MDS transmissions."""
    if inst.m > cap:
        raise PartitionCapError(f"{inst.m} packets exceed enumeration cap {cap}")
    cost = _packet_cost_table(inst)
    total, a = _min_partition_sum(inst.m, cost)
    part = PacketPartition.of([x + 1 for x in blk] for blk in _rgs_to_blocks(a))
    matrix = build_transmissions(inst, ppm_as_upm(inst, part))
    return SchemeSolution("ppm-exhaustive", total, part, matrix)


def exhaustive_upm(inst: GicInstance, cap: int = DEFAULT_CAP) -> SchemeSolution:
    """Minimum-rate user partition (the first optimum in enumeration order)
    by subset DP, with its MDS transmissions."""
    ids = inst.user_ids
    if len(ids) > cap:
        raise PartitionCapError(f"{len(ids)} users exceed enumeration cap {cap}")
    cost = _user_cost_table(inst)
    total, a = _min_partition_sum(len(ids), cost)
    part = _user_partition(ids, a)
    matrix = build_transmissions(inst, part)
    return SchemeSolution("upm-exhaustive", total, part, matrix)


# IUPM's objective, the rank of the stacked block rows, is not a sum of block
# costs.  A block's deterministic rows depend only on its users, so each block
# mask's rows are built once and inserted into one Echelon as the search picks
# the block of the lowest unassigned user, and undone on the way back.  Rank
# does not change under a field extension, so the GF(256) echelon scores
# every partition, whichever field `CodingMatrix.of_packed` gives its rows.
# Rank only grows as blocks are added, by at least `acyclic_lower_bound` of
# the users left, which bounds every completion, and by `acyclic_bound`, the
# bound with every user left, which bounds every partition.  A search block
# by block cannot meet the partitions in restricted-growth order, since the
# strings below one block interleave with those below its siblings.  But the
# siblings' first strings ascend, so once the incumbent is on
# `acyclic_bound`, the first sibling that starts after it ends the loop: no
# later one can hold an earlier string.


def acyclic_lower_bound(fresh: int, pending: Iterable[tuple[int, int]]) -> int:
    """Lower bound on the rank that any completion of a partial code still
    adds.  `pending` holds the (demand, side) packet masks of the receivers
    not yet served, and `fresh` masks the packets they demand on which no
    row sent so far is nonzero.  A mask may give each packet any fixed bit:
    the searches here and `minrank_gf2` use bit p - 1.

    Grows a set D of fresh packets in ascending packet order, keeping packet
    q when D | q stays acyclic: its packets can be peeled one at a time, each
    by a pending demander whose side set misses the packets not yet peeled.
    Returns |D|: 0 without fresh packets, else at least 1, as a fresh packet
    alone is acyclic.

    The maximum-acyclic-induced-subgraph bound (Bar-Yossef, Birk, Jayram &
    Kol 2006), on the fresh columns: project the final span onto D, where
    the rows sent so far are zero.  The demander of the j-th packet peeled
    decodes it from the span and a side set that misses the packets peeled
    after it, so the projection holds e_j plus a combination of the packets
    peeled before: a triangular set of |D| vectors, all from the rows still
    to come."""
    kept = fresh & -fresh  # the lowest fresh packet alone is acyclic
    rest = fresh ^ kept
    if not rest:
        return 1 if fresh else 0
    demanders = [(demand, side & fresh) for demand, side in pending if demand & fresh]
    while rest:
        q = rest & -rest
        rest ^= q
        left = kept | q  # peel it: the order packets peel in does not matter
        while left:
            for demand, side in demanders:
                if demand & left and not side & left:
                    left ^= demand
                    break
            else:
                break
        if not left:
            kept |= q
    return kept.bit_count()


def acyclic_bound(inst: GicInstance) -> int:
    """`acyclic_lower_bound` with every packet fresh and every receiver
    pending: the size of a maximal acyclic packet set grown in packet order.
    Every index code for the instance, linear or not and over any field,
    sends at least this many symbols."""
    return acyclic_lower_bound((1 << inst.m) - 1, inst.packet_masks)


def exhaustive_iupm(inst: GicInstance, cap: int = DEFAULT_CAP) -> SchemeSolution:
    """Minimum rank-reduced rate over every user partition (the first optimum
    in restricted-growth order); the witness keeps the reduced basis as its
    transmissions.

    A depth-first search over blocks.  Bit n - 1 - t stands for user t, so
    the lowest unassigned user is the top bit of the users left, and the
    blocks that hold it come by descending submask: their branches' first
    strings (every user left after the block in one more block) ascend.  A
    branch gets a rank limit: the incumbent's rank while its first string
    precedes the incumbent's, one less after.  Every partition's rank is at
    least the root bound, `acyclic_bound`, so once the incumbent is there the
    first branch that starts after it ends the search at its level: neither
    it nor a later sibling can beat or tie the incumbent.  Otherwise the
    limit drops by `acyclic_lower_bound` of the users left, computed on a
    mask's first use.  The block is skipped before its first insert when the
    rank plus the least its rows add exceeds the limit: they are MDS rows, of
    rank min(rows, |S|) on any set S of its packets, earlier rows are zero on
    its packets that no placed block demands, and the users left count none
    of those as fresh, so the two bounds add.  Otherwise the branch is cut as
    soon as its rank exceeds the limit."""
    ids = inst.user_ids
    n = len(ids)
    if n > cap:
        raise PartitionCapError(f"{n} users exceed enumeration cap {cap}")
    users = inst.packet_masks[::-1]
    demand = [d for d, _ in users]
    cost = _cost_table(demand, [1 << t for t in range(n)], [s for _, s in users])
    ymask = _block_demands(demand)
    full = (1 << n) - 1
    floor = acyclic_bound(inst)
    bounds = _table(n, -1)  # acyclic_lower_bound of each mask of users left, once used
    # Strings packed as above, user 0 most significant: bit i, user n - 1 - i,
    # is digit i.  The packed string with digit 1 at every member of a mask
    # is lo[mask & low_bits] + hi[mask >> half], two tables of 2^(n/2).
    width = max(1, (n - 1).bit_length())
    half = n // 2
    low_bits = (1 << half) - 1
    lo, hi = [0], [0]
    for t in range(n):
        table = lo if t < half else hi
        table += [x + (1 << (width * t)) for x in table]
    block_rows: dict[int, list[int]] = {}
    best = [inst.m + 1, 0]  # rank and packed string of the incumbent; none yet
    basis = Echelon(inst.m)
    pivots, insert = basis.pivots, basis.insert

    def rows_of(B: int) -> list[int]:
        rows = block_rows.get(B)
        if rows is None:
            units = [unit_row(p + 1) for p in range(inst.m) if ymask[B] >> p & 1]
            rows = block_rows[B] = mds_rows(units, cost[B])
        return rows

    def bound(left: int) -> int:
        # the other users' blocks are placed: their MDS rows are nonzero on
        # exactly the packets those users demand, ymask of the placed mask
        b = bounds[left]
        if b < 0:
            pending = [u for t, u in enumerate(users) if left >> t & 1]
            b = bounds[left] = acyclic_lower_bound(ymask[left] & ~ymask[full ^ left], pending)
        return b

    def search(U: int, label: int, code: int) -> None:
        if not U:
            if [len(pivots), code] < best:
                best[:] = len(pivots), code
            return
        low = 1 << (U.bit_length() - 1)
        rest = U ^ low
        untouched = ~ymask[full ^ U]  # the packets no placed block demands
        # the first string below block B gives B this label and the rest of
        # U the next one: base plus the ones of U - B
        base = code + label * (lo[U & low_bits] + hi[U >> half])
        sub = rest
        while True:
            B = sub | low
            left = U ^ B
            limit = best[0]  # the highest rank worth extending
            if base + lo[left & low_bits] + hi[left >> half] >= best[1]:
                limit -= 1
                if limit < floor:
                    return
            # the users left get their bound only once the cheaper check passes
            need = len(pivots) + min(cost[B], (ymask[B] & untouched).bit_count())
            if need <= limit and need + bound(left) <= limit:
                limit -= bound(left)
                added = []
                for row in rows_of(B):
                    if len(pivots) > limit:
                        break
                    pivot = insert(row)
                    if pivot is not None:
                        added.append(pivot)
                if len(pivots) <= limit:
                    search(left, label + 1, code + label * (lo[B & low_bits] + hi[B >> half]))
                for pivot in added:
                    del pivots[pivot]
            if not sub:
                return
            sub = (sub - 1) & rest

    search(full, 0, 0)
    part = _user_partition(ids, _unpack(best[1], n, width))
    rate, basis, label = iupm_rate(inst, part)
    return SchemeSolution("iupm-exhaustive", rate, part, basis, policy=label)
