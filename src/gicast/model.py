"""Groupcast index-coding instances.

A server holds packets 1..m; user u_i^j (j-th receiver demanding packet i)
holds a side-information set A_i^j of other packets.  This module defines the
instance value type, validation, the k-group family where every packet is
demanded by exactly two users, and a line-oriented text format.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Mapping, NamedTuple

from . import gf

__all__ = [
    "UserId",
    "GicInstance",
    "GroupStructure",
    "InstanceFormatError",
    "InvalidInstanceError",
    "validate",
    "position_index",
    "generate_k2",
    "parse_instance",
    "load_instance",
    "save_instance",
]


class UserId(NamedTuple):
    """Receiver identity (packet, copy); tuple order is the canonical user
    order used everywhere (sort by demanded packet, then copy index)."""

    packet: int
    copy: int

    def label(self) -> str:
        return f"({self.packet},{self.copy})"


@dataclass(frozen=True)
class GicInstance:
    """Packets 1..m plus an ordered list of (user, side-info) pairs."""

    m: int
    users: tuple[tuple[UserId, frozenset[int]], ...]

    @staticmethod
    def make(m: int, side_info: Mapping[UserId, Iterable[int]] | Iterable[tuple[UserId, Iterable[int]]]) -> "GicInstance":
        """Build an instance from any (user -> side info) association,
        normalizing container types and user order."""
        items = side_info.items() if isinstance(side_info, Mapping) else side_info
        users = tuple(sorted((UserId(*uid), frozenset(side)) for uid, side in items))
        return GicInstance(m, users)

    @cached_property
    def user_ids(self) -> tuple[UserId, ...]:
        return tuple(uid for uid, _ in self.users)

    @cached_property
    def side_map(self) -> dict[UserId, frozenset[int]]:
        return dict(self.users)

    @cached_property
    def packet_masks(self) -> tuple[tuple[int, int], ...]:
        """Each receiver's (demand, side) packet masks, bit p - 1 for packet
        p, in the canonical user order: the `pending` format of
        `acyclic_lower_bound`.  Built once, each side set by
        `gf._known_columns`: a demanded or side packet outside 1..m raises
        ValueError."""
        m, known = self.m, gf._known_columns
        masks = []
        for uid, side in self.users:
            if not 1 <= uid.packet <= m:
                raise ValueError(f"receiver {uid.label()} demands packet {uid.packet} outside 1..{m}")
            masks.append((1 << (uid.packet - 1), known(side, m)))
        return tuple(masks)

    def side_of(self, uid: UserId) -> frozenset[int]:
        return self.side_map[uid]


def validate(inst: GicInstance) -> list[str]:
    """All invariant violations, empty when the instance is well formed."""
    out = []
    if inst.m < 1:
        out.append(f"packet count must be positive, got {inst.m}")
        return out
    if not inst.users:
        out.append("instance has no users")
        return out
    ids = inst.user_ids
    for a, b in zip(ids, ids[1:]):
        if not a < b:
            out.append(f"users out of order: {a.label()} before {b.label()}")
    m = inst.m
    for uid, side in inst.users:
        if uid.packet in side:
            out.append(f"self-inclusion: user {uid.label()} lists its own packet {uid.packet}")
        for p in side:
            if not 1 <= p <= m:
                out.append(f"user {uid.label()}: side-info packet {p} outside 1..{m}")
    seen: dict[int, list[int]] = {}
    for uid in ids:
        seen.setdefault(uid.packet, []).append(uid.copy)
    # Walk the demanded packets only, so the cost follows the users, not m;
    # each gap before one of them, or before m + 1, is one violation.
    prev = 0
    for i in sorted(p for p in seen if 1 <= p <= inst.m) + [inst.m + 1]:
        if i == prev + 2:
            out.append(f"undemanded packet: {prev + 1}")
        elif i > prev + 2:
            out.append(f"undemanded packets: {prev + 1}..{i - 1}")
        prev = i
        if i > inst.m:
            break
        copies = sorted(seen[i])
        if copies != list(range(1, len(copies) + 1)):
            out.append(f"packet {i}: copy indices {copies} not contiguous from 1")
    for i in seen:
        if not 1 <= i <= inst.m:
            out.append(f"demanded packet {i} outside 1..{inst.m}")
    return out


# ---------------------------------------------------------------- k-group family

def position_index(k: int, l: int, a: int, variant: int) -> int:
    """Packet index at offset a of group l's first-copy (variant 1) or
    second-copy (variant 2) slice, for the k-group two-users-per-packet
    family."""
    if k < 2:
        raise ValueError(f"need k >= 2, got {k}")
    if not 1 <= l <= k:
        raise ValueError(f"group index {l} outside 1..{k}")
    if variant == 1:
        if not 1 <= a <= k - l:
            raise ValueError(f"offset {a} outside 1..{k - l} for group {l} variant 1")
        return (l - 1) * k + a - l * (l - 1) // 2
    if variant == 2:
        if not 1 <= a <= l - 1:
            raise ValueError(f"offset {a} outside 1..{l - 1} for group {l} variant 2")
        return (a - 1) * k + l - a * (a + 1) // 2
    raise ValueError(f"variant must be 1 or 2, got {variant}")


@dataclass(frozen=True)
class GroupStructure:
    """Index sets of the k-group family: group l covers first_sets[l-1] via
    first copies and second_sets[l-1] via second copies."""

    k: int
    first_sets: tuple[frozenset[int], ...]
    second_sets: tuple[frozenset[int], ...]

    @property
    def packet_sets(self) -> tuple[frozenset[int], ...]:
        return tuple(f | s for f, s in zip(self.first_sets, self.second_sets))

    def user_groups(self) -> tuple[frozenset[UserId], ...]:
        """Group l as a set of receivers: first-copy users of first_sets[l-1]
        plus second-copy users of second_sets[l-1]."""
        out = []
        for f, s in zip(self.first_sets, self.second_sets):
            out.append(frozenset(UserId(i, 1) for i in f) | frozenset(UserId(i, 2) for i in s))
        return tuple(out)


def generate_k2(k: int) -> tuple[GicInstance, GroupStructure]:
    """The k-group instance with m = k(k-1)/2 packets, two users per packet:
    every pair of groups shares exactly one packet, and each user's side
    information is the rest of its group's packets."""
    if k < 2:
        raise ValueError(f"need k >= 2, got {k}")
    first = tuple(
        frozenset(position_index(k, l, a, 1) for a in range(1, k - l + 1)) for l in range(1, k + 1)
    )
    second = tuple(
        frozenset(position_index(k, l, a, 2) for a in range(1, l)) for l in range(1, k + 1)
    )
    gs = GroupStructure(k, first, second)
    m = k * (k - 1) // 2
    side: dict[UserId, frozenset[int]] = {}
    for l in range(1, k + 1):
        packets = gs.packet_sets[l - 1]
        for j, members in ((1, first[l - 1]), (2, second[l - 1])):
            for i in members:
                side[UserId(i, j)] = packets - {i}
    return GicInstance.make(m, side), gs


# ---------------------------------------------------------------- text format

class InstanceFormatError(ValueError):
    """Malformed instance text; carries the 1-based offending line."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


class InvalidInstanceError(ValueError):
    """Parsed but invariant-violating instance; carries all violations."""

    def __init__(self, violations: list[str]):
        super().__init__("invalid instance: " + "; ".join(violations))
        self.violations = violations


def parse_instance(text: str) -> GicInstance:
    """Parse instance text without validating instance invariants beyond
    what the grammar itself requires."""
    m = None
    users: list[tuple[UserId, frozenset[int]]] = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        # int() also takes "0_2", "+1" and non-ASCII digits; the grammar does not
        if not line.isascii() or "_" in line or "+" in line:
            raise InstanceFormatError(lineno, f"indices must be ASCII decimal integers: {line!r}")
        if m is None:
            parts = line.split()
            if len(parts) != 2 or parts[0] != "gic":
                raise InstanceFormatError(lineno, f"expected 'gic <m>' header, got {line!r}")
            try:
                m = int(parts[1])
            except ValueError:
                raise InstanceFormatError(lineno, f"packet count {parts[1]!r} is not an integer") from None
            continue
        if ":" not in line:
            raise InstanceFormatError(lineno, f"user line missing ':': {line!r}")
        head, _, tail = line.partition(":")
        parts = head.split()
        if len(parts) != 3 or parts[0] != "user":
            raise InstanceFormatError(lineno, f"expected 'user <i> <j> : ...', got {line!r}")
        try:
            i, j = int(parts[1]), int(parts[2])
            side = frozenset(map(int, tail.split()))
        except ValueError:
            raise InstanceFormatError(lineno, f"non-integer index on user line: {line!r}") from None
        uid = UserId(i, j)
        if users and not users[-1][0] < uid:
            last = users[-1][0]
            raise InstanceFormatError(
                lineno,
                f"duplicate user {uid.label()}" if uid == last
                else f"user {uid.label()} out of order after {last.label()}",
            )
        users.append((uid, side))
    if m is None:
        raise InstanceFormatError(1, "missing 'gic <m>' header")
    return GicInstance(m, tuple(users))


def load_instance(text: str) -> GicInstance:
    """Parse and validate; raises InvalidInstanceError listing every
    violation when the parsed instance is malformed."""
    inst = parse_instance(text)
    violations = validate(inst)
    if violations:
        raise InvalidInstanceError(violations)
    return inst


def save_instance(inst: GicInstance) -> str:
    """Canonical text: header line, then one 'user i j : ...' line per user
    in canonical order with ascending side-info indices."""
    lines = [f"gic {inst.m}"]
    for uid, side in inst.users:
        tail = " " + " ".join(str(p) for p in sorted(side)) if side else ""
        lines.append(f"user {uid.packet} {uid.copy} :{tail}")
    return "\n".join(lines) + "\n"
