"""Independent W1 oracles for the transport tests.

The successive-shortest-path min-cost flow that was softmatch's exact W1
solver before the network simplex, kept unchanged as an independent exact
oracle; and two brute-force oracles for small instances: factorial
enumeration over permutations (N <= 8), and LCM replication for uniform
measures of unequal sizes (lcm(N, M) <= 12)."""

import heapq
import math
from fractions import Fraction

import numpy as np
from scipy.optimize import linear_sum_assignment

from softmatch.errors import InvalidInput
from softmatch.measures import EmpiricalMeasure, PointCloud
from softmatch.transport import _check_pair, _dyadic_ints, _is_uniform, cost_matrix_l1


class SizeMismatch(ValueError):
    """The permutation oracle was given clouds of different sizes."""


class OracleTooLarge(ValueError):
    """A brute-force oracle was asked to exceed its stated size limit."""


def _min_cost_flow(cost: list, supply: list, demand: list):
    """Exact min-cost transportation flow.

    cost[i][j] are nonnegative ints, supply/demand are balanced ints.
    Returns (flow, pi) with flow an int matrix and pi integer potentials
    such that reduced costs are nonnegative everywhere and zero on arcs
    carrying flow (the usual optimality certificate).
    """
    n, m = len(supply), len(demand)
    size = n + m
    max_c = max((max(row) for row in cost), default=0)
    inf = max_c * (size + 2) + 1

    pi = [0] * size
    for j in range(m):
        pi[n + j] = min(cost[i][j] for i in range(n))
    flow = [[0] * m for _ in range(n)]
    rem_s = list(supply)
    rem_d = list(demand)
    remaining = sum(rem_s)
    guard = n * m + 4 * size + 16

    while remaining > 0:
        guard -= 1
        if guard < 0:
            raise RuntimeError("min-cost flow exceeded its iteration guard")
        dist = [inf] * size
        parent = [-1] * size
        heap = []
        for i in range(n):
            if rem_s[i] > 0:
                dist[i] = 0
                heap.append((0, i))
        heapq.heapify(heap)
        settled = [False] * size
        sink = -1
        while heap:
            d, node = heapq.heappop(heap)
            if settled[node] or d > dist[node]:
                continue
            settled[node] = True
            if node >= n and rem_d[node - n] > 0:
                sink = node
                break
            if node < n:
                row = cost[node]
                base = d + pi[node]
                for j in range(m):
                    w = n + j
                    if settled[w]:
                        continue
                    nd = base + row[j] - pi[w]
                    if nd < dist[w]:
                        dist[w] = nd
                        parent[w] = node
                        heapq.heappush(heap, (nd, w))
            else:
                j = node - n
                base = d + pi[node]
                for i in range(n):
                    if settled[i] or flow[i][j] <= 0:
                        continue
                    nd = base - cost[i][j] - pi[i]
                    if nd < dist[i]:
                        dist[i] = nd
                        parent[i] = node
                        heapq.heappush(heap, (nd, i))
        if sink < 0:
            raise RuntimeError("min-cost flow: no augmenting path (unbalanced?)")
        d_sink = dist[sink]
        for v in range(size):
            pi[v] += dist[v] if dist[v] < d_sink else d_sink

        # walk back to the originating source, collecting the bottleneck
        amount = rem_d[sink - n]
        node = sink
        while parent[node] != -1:
            prev = parent[node]
            if prev >= n:  # back arc node->prev means flow[node][prev-n]
                amount = min(amount, flow[node][prev - n])
            node = prev
        amount = min(amount, rem_s[node])

        node = sink
        while parent[node] != -1:
            prev = parent[node]
            if prev < n:  # forward arc prev->node
                flow[prev][node - n] += amount
            else:  # back arc prev(sink)->node(source): reduce flow[node][prev-n]
                flow[node][prev - n] -= amount
            node = prev
        rem_s[node] -= amount
        rem_d[sink - n] -= amount
        remaining -= amount

    return flow, pi


def _exact_mean(values: np.ndarray, n: int) -> float:
    """sum(values) / n evaluated in exact rational arithmetic, rounded once.

    l1 costs tie exactly in real arithmetic surprisingly often (nested
    intervals in 1-d transport); exact evaluation makes the value identical
    across any optimal matching the solver happens to pick, and therefore
    exactly symmetric in the two inputs.
    """
    ints, shift = _dyadic_ints(values)
    return float(Fraction(sum(ints), n << shift))


def w1_oracle_permutations(x: PointCloud, y: PointCloud) -> float:
    """Factorial brute force: min over all N! matchings of the mean cost."""
    from itertools import permutations

    if x.n != y.n:
        raise SizeMismatch(f"permutation oracle got sizes {x.n} and {y.n}")
    if x.n > 8:
        raise OracleTooLarge(f"{x.n}! permutations is past the oracle limit")
    c = cost_matrix_l1(x.points, y.points)
    idx = np.arange(x.n)
    best = math.inf
    for perm in permutations(range(x.n)):
        total = float(c[idx, list(perm)].sum())
        if total < best:
            best = total
    return best / x.n


def w1_oracle_lcm(mu: EmpiricalMeasure, nu: EmpiricalMeasure) -> float:
    """Replicate both uniform supports to lcm(N, M) points and assign.

    Exact for uniform empirical measures. Limited to lcm(N, M) <= 12.
    """
    _check_pair(mu, nu)
    if not (_is_uniform(mu) and _is_uniform(nu)):
        raise InvalidInput("LCM oracle needs uniform weights on both sides")
    n, m = mu.n, nu.n
    lcm = n * m // math.gcd(n, m)
    if lcm > 12:
        raise OracleTooLarge(f"lcm({n}, {m}) = {lcm} exceeds the oracle limit 12")
    xs = np.repeat(mu.support.points, lcm // n, axis=0)
    ys = np.repeat(nu.support.points, lcm // m, axis=0)
    c = cost_matrix_l1(xs, ys)
    rows, cols = linear_sum_assignment(c)
    return _exact_mean(c[rows, cols], lcm)
