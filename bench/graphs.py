"""The benchmark's own graph and dice helpers.

Nothing here imports ``strongext``: the checks that judge the program's
output must not trust the program.  Graphs are ``(n, edges)`` pairs with
``edges`` a set of ``(u, v)`` tuples.
"""

from __future__ import annotations

import itertools


def serialize(n: int, edges) -> str:
    """Edge-list text in the program's input format."""
    lines = [f"n {n}"]
    lines.extend(f"{u} {v}" for u, v in sorted(edges))
    return "\n".join(lines) + "\n"


def parse(text: str) -> tuple[int, set]:
    """Read the edge-list format the benchmark writes (header, then edges)."""
    n = None
    edges = set()
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        a, b = line.split()
        if n is None:
            if a != "n":
                raise ValueError(f"expected header, got {raw!r}")
            n = int(b)
        else:
            edges.add((int(a), int(b)))
    if n is None:
        raise ValueError("missing header")
    return n, edges


def strictness_problem(n: int, edges) -> str | None:
    """Why ``edges`` is not a strict digraph on n vertices, or None."""
    for u, v in edges:
        if u == v:
            return f"loop at {u}"
        if not (0 <= u < n and 0 <= v < n):
            return f"edge {u} {v} out of range"
        if (v, u) in edges:
            return f"antiparallel pair {u} {v}"
    return None


def _reaches_all(n: int, adj: list[list[int]]) -> bool:
    seen = [False] * n
    seen[0] = True
    stack = [0]
    count = 1
    while stack:
        for w in adj[stack.pop()]:
            if not seen[w]:
                seen[w] = True
                count += 1
                stack.append(w)
    return count == n


def is_strong(n: int, edges) -> bool:
    """Strong connectivity by a forward and a backward search from vertex 0."""
    if n == 0:
        return False
    out = [[] for _ in range(n)]
    inn = [[] for _ in range(n)]
    for u, v in edges:
        out[u].append(v)
        inn[v].append(u)
    return _reaches_all(n, out) and _reaches_all(n, inn)


def scc_ids(n: int, edges) -> list[int]:
    """Strong component id of each vertex (Kosaraju, iterative)."""
    out = [[] for _ in range(n)]
    inn = [[] for _ in range(n)]
    for u, v in edges:
        out[u].append(v)
        inn[v].append(u)
    seen = [False] * n
    order = []
    for root in range(n):
        if seen[root]:
            continue
        seen[root] = True
        stack = [(root, iter(out[root]))]
        while stack:
            v, it = stack[-1]
            for w in it:
                if not seen[w]:
                    seen[w] = True
                    stack.append((w, iter(out[w])))
                    break
            else:
                stack.pop()
                order.append(v)
    comp = [-1] * n
    count = 0
    for root in reversed(order):
        if comp[root] != -1:
            continue
        comp[root] = count
        stack = [root]
        while stack:
            for w in inn[stack.pop()]:
                if comp[w] == -1:
                    comp[w] = count
                    stack.append(w)
        count += 1
    return comp


def weak_ids(n: int, edges) -> list[int]:
    """Weak component root of each vertex (union-find)."""
    parent = list(range(n))

    def root(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for u, v in edges:
        ru, rv = root(u), root(v)
        if ru != rv:
            parent[ru] = rv
    return [root(v) for v in range(n)]


def structure(n: int, edges) -> dict:
    """Component counts: r strong, s sources, t sinks, c weak, and whether
    every weak component is a single strong component."""
    comp = scc_ids(n, edges)
    weak = weak_ids(n, edges)
    r = max(comp) + 1 if n else 0
    has_in, has_out = set(), set()
    for u, v in edges:
        if comp[u] != comp[v]:
            has_out.add(comp[u])
            has_in.add(comp[v])
    strong_per_weak: dict[int, set] = {}
    for v in range(n):
        strong_per_weak.setdefault(weak[v], set()).add(comp[v])
    return {
        "r": r,
        "s": r - len(has_in),
        "t": r - len(has_out),
        "c": len(strong_per_weak),
        "all_weak_strong": all(len(g) == 1 for g in strong_per_weak.values()),
    }


def score_dicut(n: int, edges) -> list[int] | None:
    """A complete dicut side by the score test, or None when there is none.

    With d(v) = out(v) - in(v), every vertex set X has
    sum_X d = e(X -> X^c) - e(X^c -> X) <= |X| * |X^c|, with equality
    exactly when X is a complete dicut.  Any complete dicut of size k makes
    the top-k prefix by d reach the bound too, so the prefixes are the only
    candidates.
    """
    d = [0] * n
    for u, v in edges:
        d[u] += 1
        d[v] -= 1
    order = sorted(range(n), key=lambda v: -d[v])
    total = 0
    for k in range(1, n):
        total += d[order[k - 1]]
        if total == k * (n - k):
            return sorted(order[:k])
    return None


def is_complete_dicut(n: int, edges, side) -> bool:
    """Every edge from ``side`` to the rest is present (set lookups)."""
    side = set(side)
    if not side or len(side) >= n or any(not 0 <= v < n for v in side):
        return False
    rest = [v for v in range(n) if v not in side]
    return all((x, y) in edges for x in side for y in rest)


def has_cycle(n: int, edges) -> bool:
    return max(scc_ids(n, edges), default=-1) + 1 < n


# ---------------------------------------------------------------- dice


def win_counts(dice) -> list[list[int]]:
    """count[i][j]: face pairs die i wins against die j."""
    return [
        [0 if i == j else sum(1 for x in a for y in b if x > y) for j, b in enumerate(dice)]
        for i, a in enumerate(dice)
    ]


def _canonical_deals(n: int, k: int):
    """Deals of faces 1..n*k into n unlabelled dice of k faces each; dice
    are listed in order of their smallest face."""
    dice: list[list[int]] = []

    def deal(value):
        if value > n * k:
            yield [tuple(die) for die in dice]
            return
        for die in dice:
            if len(die) < k:
                die.append(value)
                yield from deal(value + 1)
                die.pop()
        if len(dice) < n:
            dice.append([value])
            yield from deal(value + 1)
            dice.pop()

    yield from deal(1)


def realizable_targets(n: int, k: int) -> frozenset[frozenset]:
    """Beats tournaments (winner-to-loser, as edge sets over all labellings)
    of balanced non-transitive sets of n k-sided dice with p > 1/2.

    A target digraph is realizable at k exactly when its edge set lies in
    one of them.  Found by enumerating the whole (small) space of deals.
    """
    half = k * k
    found = set()
    for dice in _canonical_deals(n, k):
        counts = win_counts(dice)
        tops = {max(counts[i][j], half - counts[i][j]) for i, j in itertools.combinations(range(n), 2)}
        if len(tops) != 1 or 2 * tops.pop() <= half:
            continue
        beats = {(i, j) for i in range(n) for j in range(n) if 2 * counts[i][j] > half}
        if not has_cycle(n, beats):
            continue
        for perm in itertools.permutations(range(n)):
            found.add(frozenset((perm[i], perm[j]) for i, j in beats))
    return frozenset(found)


def oriented_graph_classes(n: int) -> list[frozenset]:
    """One representative edge set per isomorphism class of strict digraphs
    on n vertices, in a fixed order."""
    pairs = list(itertools.combinations(range(n), 2))
    perms = list(itertools.permutations(range(n)))
    seen = set()
    classes = []
    for states in itertools.product(range(3), repeat=len(pairs)):
        edges = [(a, b) if s == 1 else (b, a) for (a, b), s in zip(pairs, states) if s]
        canon = min(tuple(sorted((p[a], p[b]) for a, b in edges)) for p in perms)
        if canon not in seen:
            seen.add(canon)
            classes.append(frozenset(canon))
    return classes
