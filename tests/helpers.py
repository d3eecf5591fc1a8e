"""Shared oracles and graph builders for the test suite.

The oracles here are deliberately naive and independent of the library's
algorithms: reachability by bitmask closure, weak components by search over
the underlying graph, complete dicuts by scanning every subset.  They exist
to cross-check the clever implementations, and are the reference
implementations the library's docstrings point to.
"""

from __future__ import annotations

import heapq
import itertools
import sys
from fractions import Fraction
from random import Random

from strongext import (
    BudgetError,
    Condensation,
    DiceSet,
    ExtensionPlan,
    InvalidDiceError,
    StrictDigraph,
    beats_digraph,
    is_balanced,
    is_strong,
    strong_components,
    win_matrix,
)

# Largest vertex count brute_force_complete_dicut scans: 2^n subsets.
SUBSET_BUDGET_VERTICES = 22


def _closure_masks(n: int, edges) -> list[int]:
    reach = [1 << v for v in range(n)]
    for u, v in edges:
        reach[u] |= 1 << v
    changed = True
    while changed:
        changed = False
        for u in range(n):
            acc = reach[u]
            rest = acc
            while rest:
                low = rest & -rest
                acc |= reach[low.bit_length() - 1]
                rest ^= low
            if acc != reach[u]:
                reach[u] = acc
                changed = True
    return reach


def edge_set(g: StrictDigraph) -> frozenset[tuple[int, int]]:
    """The edges of g as a frozenset of (u, v) tuples."""
    return frozenset(g.sorted_edges())


def reverse(g: StrictDigraph) -> StrictDigraph:
    """g with every edge turned around."""
    return StrictDigraph(g.n, frozenset((v, u) for u, v in g.sorted_edges()))


def adjacent(g: StrictDigraph, u: int, v: int) -> bool:
    """Whether g has an edge between u and v, either way; false for a
    vertex outside g."""
    return g.has_edge(u, v) or g.has_edge(v, u)


def quotient_edges(cond: Condensation) -> frozenset[tuple[int, int]]:
    """Edges (a, b) of the quotient, one per pair of joined components."""
    return frozenset(
        (a, b) for a, targets in enumerate(cond.successors) for b in targets
    )


def win_probability(a, b) -> Fraction:
    """Probability that a roll of ``a`` strictly exceeds a roll of ``b``;
    the two dice must form a valid dice set, checked as ``DiceSet`` does."""
    d = DiceSet((a, b))
    return Fraction(win_matrix(d)[0][1], d.sides * d.sides)


def realizes(d: DiceSet, h: StrictDigraph) -> bool:
    """Whether every edge of ``h`` is an edge of the beats digraph of ``d``."""
    if h.n != d.count:
        raise InvalidDiceError(
            f"target has {h.n} vertices but the set has {d.count} dice"
        )
    return edge_set(h) <= edge_set(beats_digraph(d))


def oracle_is_strong(g: StrictDigraph) -> bool:
    if g.n == 0:
        return False
    full = (1 << g.n) - 1
    return all(m == full for m in _closure_masks(g.n, g.sorted_edges()))


def weak_components(g: StrictDigraph) -> tuple[tuple[int, ...], ...]:
    """Vertex sets of the connected components of the underlying graph,
    each sorted, ordered by smallest member; a plain graph search."""
    neighbours: list[set[int]] = [set() for _ in range(g.n)]
    for u, v in g.sorted_edges():
        neighbours[u].add(v)
        neighbours[v].add(u)
    seen = [False] * g.n
    blocks = []
    for start in range(g.n):
        if seen[start]:
            continue
        seen[start] = True
        block, stack = [start], [start]
        while stack:
            for w in neighbours[stack.pop()]:
                if not seen[w]:
                    seen[w] = True
                    block.append(w)
                    stack.append(w)
        blocks.append(tuple(sorted(block)))
    return tuple(blocks)


def _oracle_tarjan(n: int, adj: list[list[int]]) -> list[list[int]]:
    """Iterative Tarjan strongly connected components, resuming each vertex
    by the index of its next neighbour."""
    index = [-1] * n
    low = [0] * n
    on_stack = [False] * n
    stack: list[int] = []
    sccs: list[list[int]] = []
    counter = 0
    for root in range(n):
        if index[root] != -1:
            continue
        work = [(root, 0)]
        while work:
            v, pi = work[-1]
            if pi == 0:
                index[v] = low[v] = counter
                counter += 1
                stack.append(v)
                on_stack[v] = True
            descended = False
            for i in range(pi, len(adj[v])):
                w = adj[v][i]
                if index[w] == -1:
                    work[-1] = (v, i + 1)
                    work.append((w, 0))
                    descended = True
                    break
                if on_stack[w]:
                    low[v] = min(low[v], index[w])
            if descended:
                continue
            if low[v] == index[v]:
                comp = []
                while True:
                    w = stack.pop()
                    on_stack[w] = False
                    comp.append(w)
                    if w == v:
                        break
                sccs.append(comp)
            work.pop()
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[v])
    return sccs


def _union_find_roots(k: int, pairs) -> list[int]:
    """Root of each of k items after joining every pair; a root is the
    smallest item of its class."""
    parent = list(range(k))

    def find(a: int) -> int:
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for a, b in pairs:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)
    return [find(a) for a in range(k)]


def oracle_strong_components(g: StrictDigraph) -> Condensation:
    """The condensation by separate passes: Tarjan on sorted adjacency
    lists, a second walk over the edges for the quotient, a heap for the
    numbering, and union-find over the quotient edges for weak components.
    The reference that the library's single-pass condensation must match
    field for field."""
    adj: list[list[int]] = [[] for _ in range(g.n)]
    for u, v in g.sorted_edges():
        adj[u].append(v)
    raw = _oracle_tarjan(g.n, adj)
    raw_of = [0] * g.n
    for i, comp in enumerate(raw):
        for v in comp:
            raw_of[v] = i
    k = len(raw)
    succ: list[set[int]] = [set() for _ in range(k)]
    for u, v in g.sorted_edges():
        a, b = raw_of[u], raw_of[v]
        if a != b:
            succ[a].add(b)
    indeg = [0] * k
    for targets in succ:
        for b in targets:
            indeg[b] += 1
    heap = [min(raw[i]) for i in range(k) if indeg[i] == 0]
    heapq.heapify(heap)
    order: list[int] = []
    while heap:
        i = raw_of[heapq.heappop(heap)]
        order.append(i)
        for j in succ[i]:
            indeg[j] -= 1
            if indeg[j] == 0:
                heapq.heappush(heap, min(raw[j]))
    new_id = [0] * k
    for pos, i in enumerate(order):
        new_id[i] = pos
    component_of = tuple(new_id[raw_of[v]] for v in range(g.n))
    quotient = frozenset((new_id[a], new_id[b]) for a in range(k) for b in succ[a])
    successors: list[set[int]] = [set() for _ in range(k)]
    for a, b in quotient:
        successors[a].add(b)
    has_in = {b for _, b in quotient}
    has_out = {a for a, _ in quotient}
    roots = _union_find_roots(k, quotient)
    wid_of_root: dict[int, int] = {}
    for v in range(g.n):
        root = roots[component_of[v]]
        if root not in wid_of_root:
            wid_of_root[root] = len(wid_of_root)
    groups: list[list[int]] = [[] for _ in wid_of_root]
    for cid in range(k):
        groups[wid_of_root[roots[cid]]].append(cid)
    return Condensation(
        component_of=component_of,
        components=tuple(tuple(sorted(raw[i])) for i in order),
        successors=tuple(map(frozenset, successors)),
        source_components=frozenset(i for i in range(k) if i not in has_in),
        sink_components=frozenset(i for i in range(k) if i not in has_out),
        weak_groups=tuple(tuple(group) for group in groups),
    )


def tournament_has_cycle(t: StrictDigraph) -> bool:
    """Whether a tournament has a directed cycle.

    An acyclic tournament is transitive, with out-degrees 0, 1, ..., n - 1;
    conversely n distinct out-degrees must be those, and the vertex of
    out-degree n - 1 beats every other, so induction gives a transitive
    order.  Hence a cycle exists iff two out-degrees are equal.  This is the
    leaf rule of the library's dice search.
    """
    out = [0] * t.n
    for u, _ in t.sorted_edges():
        out[u] += 1
    return len(set(out)) < t.n


def _out_masks(g: StrictDigraph) -> list[int]:
    out = [0] * g.n
    for u, v in g.sorted_edges():
        out[u] |= 1 << v
    return out


def _mask_vertices(mask: int):
    """The set bits of mask, in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _iter_subsets_lex(n: int):
    """Nonempty subset bitmasks, ordered by their sorted vertex lists."""
    stack = [(1 << k, k) for k in range(n - 1, -1, -1)]
    while stack:
        mask, last = stack.pop()
        yield mask
        for k in range(n - 1, last, -1):
            stack.append((mask | (1 << k), k))


def _check_budget(n: int):
    if n > SUBSET_BUDGET_VERTICES:
        raise BudgetError(
            f"subset enumeration supports at most {SUBSET_BUDGET_VERTICES} "
            f"vertices, got {n}"
        )


def brute_force_complete_dicut(g: StrictDigraph) -> tuple[int, ...] | None:
    """Side of the first complete dicut in lexicographic subset order, as a
    sorted tuple, by scanning every proper nonempty subset; the tie-break
    the library's detector matches."""
    _check_budget(g.n)
    if g.n <= 1:
        return None
    out = _out_masks(g)
    full = (1 << g.n) - 1
    for mask in _iter_subsets_lex(g.n):
        if mask == full:
            continue
        comp = full ^ mask
        if _is_complete_dicut_mask(out, mask, comp):
            return tuple(_mask_vertices(mask))
    return None


def _is_complete_dicut_mask(out: list[int], mask: int, comp: int) -> bool:
    m = mask
    while m:
        b = m & -m
        if out[b.bit_length() - 1] & comp != comp:
            return False
        m ^= b
    m = comp
    while m:
        b = m & -m
        if out[b.bit_length() - 1] & mask:
            return False
        m ^= b
    return True


def oracle_find_complete_dicut(g: StrictDigraph) -> tuple[int, ...] | None:
    """Complete-dicut detector by merging blocks that must share a side.

    Non-adjacent vertices must share a side of any complete dicut, so start
    from the connected components of the complement of the underlying graph.
    Two blocks joined by edges in both directions must also share a side;
    merge such blocks until none remain.  Every surviving pair of blocks is
    then fully adjacent in a single direction, so the block quotient is a
    tournament.  A complete dicut exists exactly when that tournament is not
    strong, and the candidate sides are the topological prefixes of its
    condensation; the one with lexicographically smallest vertex list is
    returned as that sorted tuple, matching the brute-force oracle.  This
    is the reference that the library's score-sequence detector must match
    certificate for certificate above the brute-force budget.
    """
    if g.n <= 1:
        return None
    parent = list(range(g.n))

    def find_root(a: int) -> int:
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    def union(a: int, b: int):
        ra, rb = find_root(a), find_root(b)
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)

    for u in range(g.n):
        for v in range(u + 1, g.n):
            if not adjacent(g, u, v):
                union(u, v)
    while True:
        directions: dict[tuple[int, int], set[bool]] = {}
        for u, v in g.sorted_edges():
            ru, rv = find_root(u), find_root(v)
            if ru == rv:
                continue
            key = (min(ru, rv), max(ru, rv))
            directions.setdefault(key, set()).add(ru < rv)
        merged = False
        for (a, b), dirs in directions.items():
            if len(dirs) == 2:
                union(a, b)
                merged = True
        if not merged:
            break
    roots = sorted({find_root(v) for v in range(g.n)})
    if len(roots) == 1:
        return None
    block_id = {root: i for i, root in enumerate(roots)}
    blocks: list[list[int]] = [[] for _ in roots]
    for v in range(g.n):
        blocks[block_id[find_root(v)]].append(v)
    quotient_edges = {
        (block_id[find_root(u)], block_id[find_root(v)])
        for u, v in g.sorted_edges()
        if find_root(u) != find_root(v)
    }
    q = len(roots)
    if len(quotient_edges) != q * (q - 1) // 2:
        raise AssertionError("block quotient is not a tournament")
    cond = strong_components(StrictDigraph(q, frozenset(quotient_edges)))
    if cond.r == 1:
        return None
    best: tuple[int, ...] | None = None
    side: list[int] = []
    for cid in range(cond.r - 1):
        for b in cond.components[cid]:
            side.extend(blocks[b])
        candidate = tuple(sorted(side))
        if best is None or candidate < best:
            best = candidate
    return best


def all_strict_digraphs(n: int):
    """Every strict digraph on n labeled vertices, 3^C(n,2) of them."""
    pairs = list(itertools.combinations(range(n), 2))
    for states in itertools.product((0, 1, 2), repeat=len(pairs)):
        edges = set()
        for (u, v), state in zip(pairs, states):
            if state == 1:
                edges.add((u, v))
            elif state == 2:
                edges.add((v, u))
        yield StrictDigraph(n, frozenset(edges))


def isomorphism_class_representatives(n: int) -> list[StrictDigraph]:
    """One strict digraph on n vertices per isomorphism class, the first
    of its class in all_strict_digraphs order."""
    perms = list(itertools.permutations(range(n)))
    found: dict[tuple, StrictDigraph] = {}
    for g in all_strict_digraphs(n):
        edges = g.sorted_edges()
        key = min(tuple(sorted((p[u], p[v]) for u, v in edges)) for p in perms)
        found.setdefault(key, g)
    return list(found.values())


def all_tournaments(n: int):
    pairs = list(itertools.combinations(range(n), 2))
    for states in itertools.product((1, 2), repeat=len(pairs)):
        edges = set()
        for (u, v), state in zip(pairs, states):
            edges.add((u, v) if state == 1 else (v, u))
        yield StrictDigraph(n, frozenset(edges))


def tournament_completions(g: StrictDigraph):
    """Every tournament on g's vertices containing g: one per orientation
    of the non-adjacent pairs."""
    pairs = g.nonadjacent_pairs()
    for states in itertools.product((1, 2), repeat=len(pairs)):
        edges = set(g.sorted_edges())
        for (u, v), state in zip(pairs, states):
            edges.add((u, v) if state == 1 else (v, u))
        yield StrictDigraph(g.n, frozenset(edges))


def has_strong_completion(g: StrictDigraph) -> bool:
    """Whether some strict supergraph on the same vertices is strong.

    Strongness is monotone under edge addition, so it is enough to try
    every orientation of the non-adjacent pairs.
    """
    return any(map(oracle_is_strong, tournament_completions(g)))


def oracle_has_cyclic_completion(g: StrictDigraph) -> bool:
    """Whether some tournament containing g has a directed cycle, by trying
    every one."""
    return any(map(tournament_has_cycle, tournament_completions(g)))


def random_digraph(rng: Random, n: int, density: float) -> StrictDigraph:
    edges = set()
    for u, v in itertools.combinations(range(n), 2):
        if rng.random() < density:
            edges.add((u, v) if rng.random() < 0.5 else (v, u))
    return StrictDigraph(n, frozenset(edges))


def random_strong_blob(rng: Random, vertices: list[int]) -> set[tuple[int, int]]:
    """Directed cycle through the given vertices plus a few chords.

    A single vertex is a valid (trivially strong) blob; two vertices are not,
    so sizes must avoid 2.
    """
    k = len(vertices)
    assert k == 1 or k >= 3
    if k == 1:
        return set()
    order = vertices[:]
    rng.shuffle(order)
    edges = {(order[i], order[(i + 1) % k]) for i in range(k)}
    for u, v in itertools.combinations(vertices, 2):
        if (u, v) in edges or (v, u) in edges:
            continue
        if rng.random() < 0.3:
            edges.add((u, v) if rng.random() < 0.5 else (v, u))
    return edges


def random_all_strong_disconnected(rng: Random, max_n: int = 8) -> StrictDigraph:
    """Disjoint union of at least two strong weak components."""
    budget = rng.randint(4, max_n)
    sizes: list[int] = []
    while budget:
        room = budget - 1 if not sizes else budget
        size = rng.choice([s for s in (1, 3, 4, 5) if s <= room] or [1])
        sizes.append(size)
        budget -= size
    edges = set()
    base = 0
    for size in sizes:
        edges |= random_strong_blob(rng, list(range(base, base + size)))
        base += size
    assert len(sizes) >= 2
    return StrictDigraph(base, frozenset(edges))


def random_mixed_disconnected(rng: Random, max_n: int = 8) -> StrictDigraph:
    """A non-strong weakly connected dicut-free part plus a strong blob."""
    while True:
        part = rng.randint(3, max_n - 1)
        g = random_digraph(rng, part, rng.choice([0.3, 0.5, 0.7]))
        if brute_force_complete_dicut(g) is not None or oracle_is_strong(g):
            continue
        if len(weak_components(g)) != 1:
            continue
        blob = rng.choice([s for s in (1, 3, 4) if part + s <= max_n] or [1])
        edges = set(g.sorted_edges()) | random_strong_blob(
            rng, list(range(part, part + blob))
        )
        return StrictDigraph(part + blob, frozenset(edges))


def random_dicut_free(rng: Random, max_n: int = 8) -> StrictDigraph:
    while True:
        g = random_digraph(rng, rng.randint(3, max_n), rng.choice([0.2, 0.4, 0.6]))
        if brute_force_complete_dicut(g) is None:
            return g


def criterion_sample(seed: int, count: int = 1000) -> list[StrictDigraph]:
    """Mixed dicut-free sample: random, all-strong disconnected, mixed."""
    rng = Random(seed)
    sample = []
    for i in range(count):
        if i % 4 == 2:
            sample.append(random_all_strong_disconnected(rng))
        elif i % 4 == 3:
            sample.append(random_mixed_disconnected(rng))
        else:
            sample.append(random_dicut_free(rng))
    return sample


def quotient_reachable(cond, cid: int) -> frozenset[int]:
    """Component ids reachable from cid by a nonempty quotient path."""
    adj: dict[int, list[int]] = {}
    for a, b in quotient_edges(cond):
        adj.setdefault(a, []).append(b)
    seen: set[int] = set()
    stack = list(adj.get(cid, []))
    while stack:
        x = stack.pop()
        if x not in seen:
            seen.add(x)
            stack.extend(adj.get(x, []))
    return frozenset(seen)


def oracle_extend(g: StrictDigraph, grow=None) -> tuple[tuple, StrictDigraph]:
    """The extension construction, recomputing everything after every step.

    Each round recomputes the condensation of the current digraph, applies
    the source-cut step rule to it and builds a new validated digraph.  It is
    the literal form of the constructive proof, and the reference that the
    library's single-condensation construction must match edge for edge.
    The input must have at least 3 vertices and no complete dicut.  ``grow``
    replaces the re-condensing growth of the linked digraph; it takes that
    digraph and returns the added edges and the result.
    """
    grow = grow or _oracle_grow
    cond = strong_components(g)
    if cond.c == 1:
        return grow(g)
    groups = cond.weak_groups
    if all(len(group) == 1 for group in groups):
        bridge = _oracle_link_strong(cond)
        return tuple(bridge), g.with_edges(bridge)
    bridge = _oracle_link_weak(cond, groups)
    more, result = grow(g.with_edges(bridge))
    return tuple(bridge) + more, result


def closure_extend(g: StrictDigraph) -> tuple[tuple, StrictDigraph]:
    """``oracle_extend`` with the growth run by ``ClosureGrowth``: fast
    enough for n in the thousands, where re-condensing is not."""

    def grow(h: StrictDigraph) -> tuple[tuple, StrictDigraph]:
        added = tuple(ClosureGrowth(h).grow())
        return added, h.with_edges(added)

    return oracle_extend(g, grow)


class ClosureGrowth:
    """The source-cut growth over a full transitive closure of the quotient.

    Every live component keeps, as vertex bitmasks, its members, everything
    it reaches (``down``) and everything that reaches it (``up``), both
    including itself, so each question of the step rule is one mask test.
    Adding an edge ORs the head's reach into every component above the tail
    and the tail's ancestors into every component below the head, so a
    round costs every component whose closure grows: quadratic in the
    component count on sparse inputs.  The reference for the library's
    ``_Growth``, which keeps no ancestor sets; built from the condensation
    of h, whose quotient edges go to higher ids.
    """

    def __init__(self, h: StrictDigraph):
        cond = strong_components(h)
        self.label = list(cond.component_of)
        self.vertices = [list(comp) for comp in cond.components]
        self.live = cond.r
        self.members = [sum(1 << v for v in comp) for comp in cond.components]
        down, up = self.members[:], self.members[:]
        for cid in reversed(range(cond.r)):
            for b in cond.successors[cid]:
                down[cid] |= down[b]
        for cid in range(cond.r):
            for b in cond.successors[cid]:
                up[b] |= up[cid]
        self.down, self.up = down, up
        self.sources = sum(self.members[cid] for cid in cond.source_components)
        self.all_vertices = (1 << h.n) - 1
        self.out_masks = _out_masks(h)

    def add_edge(self, u: int, v: int):
        label, members, up, down = self.label, self.members, self.up, self.down
        above, below = up[label[u]], down[label[v]]
        # a component that already reaches v's reaches all of below, and one
        # that u's already reaches is reached from all of above
        rest, gaining_above = above & ~up[label[v]], below & ~down[label[u]]
        while rest:
            cid = label[(rest & -rest).bit_length() - 1]
            down[cid] |= below
            rest ^= members[cid]
        rest = gaining_above
        while rest:
            cid = label[(rest & -rest).bit_length() - 1]
            up[cid] |= above
            rest ^= members[cid]
        # the components from v's to u's now lie on a cycle through the edge
        closed = above & below
        cycle = list(dict.fromkeys(label[x] for x in _mask_vertices(closed)))
        if cycle:
            vertices = self.vertices
            root = max(cycle, key=lambda cid: len(vertices[cid]))
            for cid in cycle:
                if cid != root:
                    for x in vertices[cid]:
                        label[x] = root
                    vertices[root] += vertices[cid]
                    vertices[cid] = []
                    members[cid] = up[cid] = down[cid] = 0
            members[root] = closed
            self.live -= len(cycle) - 1
        else:
            root = label[v]
        if up[root] == members[root]:
            self.sources |= members[root]
        else:
            self.sources &= ~members[root]

    def grow(self) -> list[tuple[int, int]]:
        added = []
        while self.live > 1:
            outside = self.all_vertices & ~self.sources
            y, x = next(
                (y, x)
                for y in _mask_vertices(self.sources)
                for x in _mask_vertices(outside & ~self.out_masks[y])
            )
            step = [(x, y)]
            up_x = self.up[self.label[x]]
            if not up_x >> y & 1:
                preds = self.sources & up_x
                step.append((y, (preds & -preds).bit_length() - 1))
            for u, v in step:
                self.add_edge(u, v)
            added.extend(step)
        return added


def _oracle_grow(g: StrictDigraph) -> tuple[tuple, StrictDigraph]:
    added = []
    cond = strong_components(g)
    while cond.r > 1:
        step = _oracle_step(g, cond)
        added.extend(step)
        g = g.with_edges(step)
        cond = strong_components(g)
    return tuple(added), g


def _oracle_step(g: StrictDigraph, cond) -> list[tuple[int, int]]:
    src = sorted(v for cid in cond.source_components for v in cond.components[cid])
    src_set = set(src)
    outside = [v for v in range(g.n) if v not in src_set]
    edges = edge_set(g)
    y, x = next((y, x) for y in src for x in outside if (y, x) not in edges)
    added = [(x, y)]
    cx, cy = cond.component_of[x], cond.component_of[y]
    if cx not in quotient_reachable(cond, cy):
        source_preds = sorted(
            cid
            for cid in cond.source_components
            if cx in quotient_reachable(cond, cid)
        )
        added.append((y, cond.components[source_preds[0]][0]))
    return added


def _oracle_link_strong(cond) -> list[tuple[int, int]]:
    blocks = [
        sorted(v for cid in group for v in cond.components[cid])
        for group in cond.weak_groups
    ]
    k = len(blocks)
    if k > 2:
        reps = [block[0] for block in blocks]
        return [(reps[i], reps[(i + 1) % k]) for i in range(k)]
    first, second = blocks
    if len(second) >= 2:
        return [(first[0], second[0]), (second[1], first[0])]
    return [(first[0], second[0]), (second[0], first[1])]


def _oracle_link_weak(cond, groups) -> list[tuple[int, int]]:
    entry, exits = [], []
    for group in groups:
        s_cid = next(cid for cid in group if cid in cond.source_components)
        t_cid = s_cid
        if len(group) > 1:
            reach = quotient_reachable(cond, s_cid)
            t_cid = next(
                cid for cid in group if cid in cond.sink_components and cid in reach
            )
        entry.append(cond.components[s_cid][0])
        exits.append(cond.components[t_cid][0])
    k = len(groups)
    return [(exits[i], entry[(i + 1) % k]) for i in range(k)]


def oracle_brute_force_min_extension(g: StrictDigraph):
    """Exact minimum strong extension by plain enumeration.

    Added-edge sets are enumerated in increasing size from 1 and
    lexicographically within each size over both orientations of every
    non-adjacent pair; a set using a pair twice is generated and discarded,
    and every other set is tested by building the digraph.  The reference
    that the library's pruned search must match, size and plan.  Budgets
    are the caller's concern.
    """
    if is_strong(g):
        return 0, ExtensionPlan((), g)
    pairs = g.nonadjacent_pairs()
    candidates = sorted(edge for u, v in pairs for edge in ((u, v), (v, u)))
    for size in range(1, len(pairs) + 1):
        for combo in itertools.combinations(candidates, size):
            keys = {(min(u, v), max(u, v)) for u, v in combo}
            if len(keys) < size:
                continue
            extended = g.with_edges(combo)
            if is_strong(extended):
                return size, ExtensionPlan(tuple(combo), extended)
    return None


def oracle_search_balanced_realization(h: StrictDigraph, k: int):
    """Balanced realization search over every complete deal.

    Faces 1..n*k are dealt in increasing order to each die with spare
    capacity, lowest index first, and every complete deal is tested with
    the library's exact checks.  The reference that the library's pruned
    search must match, deal for deal.  Argument checks and budgets are the
    caller's concern.
    """
    n = h.n
    dice: list[list[int]] = [[] for _ in range(n)]

    def deal(value: int):
        if value > n * k:
            candidate = DiceSet(tuple(tuple(die) for die in dice))
            balanced, p = is_balanced(candidate)
            if not balanced or 2 * p.numerator <= p.denominator:
                return None
            beats = beats_digraph(candidate)
            if not edge_set(h) <= edge_set(beats):
                return None
            if not tournament_has_cycle(beats):
                return None
            return candidate
        for i in range(n):
            if len(dice[i]) == k:
                continue
            dice[i].append(value)
            found = deal(value + 1)
            if found is not None:
                return found
            dice[i].pop()
        return None

    return deal(1)


def oracle_win_count(a, b) -> int:
    """Face pairs won by ``a`` against ``b``, comparing every pair.

    The reference for the library's count by bisection on sorted faces.
    """
    return sum(1 for x in a for y in b if x > y)


def held_karp_cyclic_cost(per_weak) -> int:
    """Cheapest cyclic order of weak components, by subset dynamic programming.

    ``per_weak`` holds each weak component's (source count, sink count), and
    going from a to b costs max(t_a, s_b).  Held and Karp's recursion: the
    cheapest path from component 0 through a set of the others, ending at
    a given one, is built up over the sets in increasing order.  Exact at
    any size, in time 2^c c^2; the reference for the cyclic bound where
    trying every order is too slow.
    """
    k = len(per_weak)
    cost = [[max(per_weak[a][1], per_weak[b][0]) for b in range(k)] for a in range(k)]
    if k == 1:
        return cost[0][0]
    # best[mask][j]: bit j - 1 of mask marks component j as visited
    full = (1 << k - 1) - 1
    best = [[None] * k for _ in range(full + 1)]
    for j in range(1, k):
        best[1 << j - 1][j] = cost[0][j]
    for mask in range(1, full + 1):
        for j in range(1, k):
            here = best[mask][j]
            if here is None:
                continue
            for nxt in range(1, k):
                bit = 1 << nxt - 1
                if mask & bit:
                    continue
                old = best[mask | bit][nxt]
                if old is None or here + cost[j][nxt] < old:
                    best[mask | bit][nxt] = here + cost[j][nxt]
    return min(best[full][j] + cost[j][0] for j in range(1, k))


def inner_calls(outer, name: str, work):
    """How often ``work()`` calls the function ``name`` defined inside the
    function ``outer``, and what ``work()`` returned.

    The inner function's code object is a constant of ``outer``'s code;
    a profile hook counts the calls that enter it, recursive ones too."""
    code = next(
        c for c in outer.__code__.co_consts if getattr(c, "co_name", None) == name
    )
    calls = 0

    def hook(frame, event, arg):
        nonlocal calls
        if event == "call" and frame.f_code is code:
            calls += 1

    previous = sys.getprofile()
    sys.setprofile(hook)
    try:
        result = work()
    finally:
        sys.setprofile(previous)
    return calls, result
