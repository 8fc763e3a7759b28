"""The successive-shortest-path min-cost flow that was softmatch's exact W1
solver before the network simplex, kept unchanged as an independent exact
oracle for the transport tests."""

import heapq


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
