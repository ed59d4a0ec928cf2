"""Reference values the benchmark computes itself from the definitions.

- PPM and UPM optima: both rates are sums of per-block costs, so the best
  partition follows from the subset recursion
  f(S) = min over blocks B of S holding S's lowest element of cost(B) + f(S - B),
  O(3^n) steps; gicast walks every partition instead.
- The maximum-acyclic-induced-subgraph bound (Bar-Yossef et al.): if packets
  d_1..d_t have receivers u_1..u_t such that u_j knows none of d_j..d_t,
  a genie holding every other packet decodes all t from the transmissions,
  so every code, over any field, sends at least t symbols.
"""

from __future__ import annotations

from checker import Instance

#: Largest packet count for which the acyclic bound is exact; above it a
#: greedily grown maximal acyclic set gives a smaller-or-equal bound.
EXACT_ACYCLIC_MAX_M = 12


def _mask(packets) -> int:
    out = 0
    for p in packets:
        out |= 1 << (p - 1)
    return out


def min_partition_sum(n: int, cost: list[int]) -> int:
    f = [0] * (1 << n)
    for s in range(1, 1 << n):
        low = s & -s
        rest = s ^ low
        best = cost[s]
        sub = rest
        while sub:
            sub = (sub - 1) & rest
            b = sub | low
            v = cost[b] + f[s ^ b]
            if v < best:
                best = v
        f[s] = best
    return f[-1]


def ppm_optimum(inst: Instance) -> int:
    """Block T of packets costs |T| minus the smallest overlap |A cap T| over
    the receivers demanding a packet of T."""
    m = inst.m
    sides: list[list[int]] = [[] for _ in range(m)]
    for r in inst.receivers:
        sides[r.packet - 1].append(_mask(r.side))
    cost = [0] * (1 << m)
    for t in range(1, 1 << m):
        worst = m
        for i in range(m):
            if t >> i & 1:
                for s in sides[i]:
                    worst = min(worst, (s & t).bit_count())
        cost[t] = t.bit_count() - worst
    return min_partition_sum(m, cost)


def upm_optimum(inst: Instance) -> int:
    """Block W of receivers demands Y, the packets of W, and costs |Y| minus
    the smallest overlap |A cap Y| over W."""
    rs = inst.receivers
    n = len(rs)
    pbit = [1 << (r.packet - 1) for r in rs]
    sides = [_mask(r.side) for r in rs]
    cost = [0] * (1 << n)
    for w in range(1, 1 << n):
        y = 0
        for u in range(n):
            if w >> u & 1:
                y |= pbit[u]
        worst = min((sides[u] & y).bit_count() for u in range(n) if w >> u & 1)
        cost[w] = y.bit_count() - worst
    return min_partition_sum(n, cost)


def _acyclic(t: int, demanders: list[list[int]]) -> bool:
    """Peel packets whose some receiver knows nothing else of the set."""
    while t:
        for i in range(t.bit_length()):
            if t >> i & 1 and any(s & t == 0 for s in demanders[i]):
                t ^= 1 << i
                break
        else:
            return False
    return True


def _demanders(inst: Instance) -> list[list[int]]:
    out: list[list[int]] = [[] for _ in range(inst.m)]
    for r in inst.receivers:
        out[r.packet - 1].append(_mask(r.side))
    return out


def acyclic_exact(inst: Instance) -> int:
    """Largest acyclic packet set, by a pass over all 2^m subsets."""
    demanders = _demanders(inst)
    ok = bytearray(1 << inst.m)
    ok[0] = 1
    best = 0
    for t in range(1, 1 << inst.m):
        for i in range(inst.m):
            bit = 1 << i
            if t & bit and ok[t ^ bit] and any(s & t == 0 for s in demanders[i]):
                ok[t] = 1
                best = max(best, t.bit_count())
                break
    return best


def acyclic_greedy(inst: Instance) -> int:
    """Size of a maximal acyclic packet set grown in packet order."""
    demanders = _demanders(inst)
    t = 0
    for i in range(inst.m):
        if _acyclic(t | 1 << i, demanders):
            t |= 1 << i
    return t.bit_count()


def acyclic_bound(inst: Instance) -> int:
    if inst.m <= EXACT_ACYCLIC_MAX_M:
        return acyclic_exact(inst)
    return acyclic_greedy(inst)
