"""Strong extensions: constructive algorithm, bounds, exact minimum, and generators.

Any strict digraph on at least three vertices with no complete dicut can be
made strongly connected by adding at most r edges, where r is the number of
strong components; at most r - 1 unless the digraph is disconnected with
every weak component already strong.

The plain references these are tested against (a construction that
re-condenses after every step, unpruned enumeration of added-edge sets) are
in the test suite's ``tests/helpers.py``, not here.
"""

from __future__ import annotations

from typing import NamedTuple

from .dicut import find_complete_dicut
from .digraph import (
    MAX_VERTICES,
    Condensation,
    Edge,
    StrictDigraph,
    _tarjan_sccs,
    is_strong,
    strong_components,
)
from .errors import (
    BudgetError,
    HasCompleteDicutError,
    InvalidInputError,
    TooSmallError,
)

MIN_EXTENSION_PAIR_BUDGET = 24
MIN_EXTENSION_VERTEX_BUDGET = 10


class ExtensionPlan(NamedTuple):
    """Ordered edge additions that make the input strong, plus the result."""

    added: tuple[Edge, ...]
    resulting: StrictDigraph


class BoundsReport(NamedTuple):
    """Bounds on the minimum number of added edges for a strong extension.

    ``lower`` is max(s, t), or 0 for an already strong input.
    ``lower_matched`` is None unless every strong component is a single
    vertex that is a source or a sink but not both.  ``upper_cyclic`` and
    ``upper_prop`` are None unless the input is disconnected (c > 1), and
    ``brute_min`` is the exact minimum: 0 for a strong input of any size,
    which needs no search, and None when the search's budget refuses it.
    Inside that budget, when max(lower, lower_matched) equals the smaller
    of ``upper_theorem`` and ``upper_cyclic``, the bounds prove the minimum
    and it is read off them without the search.
    """

    lower: int
    lower_matched: int | None
    upper_theorem: int
    upper_cyclic: int | None
    upper_prop: int | None
    brute_min: int | None


def _require_order(g: StrictDigraph):
    if g.n < 3:
        raise TooSmallError(f"need at least 3 vertices, got {g.n}")


def _require_size_limits(n: int, m: int):
    """Reject a generated vertex count the edge-list reader would refuse, or
    an edge count m above the same limit; called before any edge is built."""
    for what, count in (("vertex", n), ("edge", m)):
        if count > MAX_VERTICES:
            raise InvalidInputError(
                f"{what} count {count} exceeds the limit of {MAX_VERTICES}"
            )


def _require_no_complete_dicut(g: StrictDigraph):
    cert = find_complete_dicut(g)
    if cert is not None:
        raise HasCompleteDicutError(cert)


class _Growth:
    """The condensation of g plus the links, kept up to date as edges are
    added; built from g's condensation, condensed again with any links.

    ``label[v]`` is the live component holding vertex v.  Every live
    component keeps its vertex list and, as vertex bitmasks, its members,
    everything it reaches including itself (``down``), and ``preds``, which
    meets exactly the components with a quotient edge into it (a later merge
    upstream leaves it holding only some of the merged vertices); a source
    component is one whose ``preds`` is 0, and ``sources`` holds their
    vertices.  No ancestor sets are kept: adding an edge searches backwards
    over ``preds`` among what its head reaches for the cycle it closes, and
    passes the head's reach to the tail's ancestors, stopping at any that
    has it.  So an edge costs the components it merges or whose reach grows.
    A merge keeps the largest component's id and relabels the other
    vertices, so a vertex is relabelled only when its component at least
    doubles.
    """

    def __init__(self, g: StrictDigraph, cond: Condensation, links: list[Edge]):
        if links:
            quotient = list(cond.successors)
            for u, v in links:
                quotient[cond.component_of[u]] |= {cond.component_of[v]}
            # Tarjan numbers components so that quotient edges go to lower ids
            of_cid, groups, successors = _tarjan_sccs(cond.r, quotient)
            order = range(len(groups))
        else:
            # g's own components, whose quotient edges go to higher ids
            of_cid, groups = range(cond.r), [(cid,) for cid in range(cond.r)]
            successors, order = cond.successors, range(cond.r - 1, -1, -1)
        self.all_vertices = (1 << g.n) - 1
        self.label = list(map(of_cid.__getitem__, cond.component_of))
        components = cond.components
        self.vertices = [[v for q in group for v in components[q]] for group in groups]
        self.live = len(groups)
        self.members = members = [sum(1 << v for v in comp) for comp in self.vertices]
        # order lists every component after its successors
        self.down = down = members[:]
        self.preds = preds = [0] * len(groups)
        for cid in order:
            mask = down[cid]
            for b in successors[cid]:
                mask |= down[b]
                preds[b] |= members[cid]
            down[cid] = mask
        # members are disjoint, so their sum is their union
        self.sources = sum(m for m, p in zip(members, preds) if not p)
        self.out_lists = g._out_lists
        self.out_masks: dict[int, int] = {}

    def ancestors(self, start: int, within: int) -> tuple[list[int], int]:
        """start and the components with a path to it inside within, a union
        of components holding start, and the mask of their vertices."""
        label, members, preds = self.label, self.members, self.preds
        found, seen, front = [start], members[start], preds[start] & within
        while front:
            cid = label[(front & -front).bit_length() - 1]
            found.append(cid)
            seen |= members[cid]
            front = (front | preds[cid] & within) & ~seen
        return found, seen

    def add_edge(self, u: int, v: int):
        """Add u -> v and merge the components it closes a cycle through."""
        label, members, down, preds = self.label, self.members, self.down, self.preds
        a, b = label[u], label[v]
        below = down[b]
        if below >> u & 1:
            # the cycle: u's ancestors that v reaches; v reaches all paths between them
            cycle, closed = self.ancestors(a, below)
            vertices = self.vertices
            root = max(cycle, key=lambda cid: len(vertices[cid]))
            for cid in cycle:
                if cid != root:
                    preds[root] |= preds[cid]
                    for x in vertices[cid]:
                        label[x] = root
                    vertices[root] += vertices[cid]
                    vertices[cid] = []
                    members[cid] = down[cid] = preds[cid] = 0
            members[root], down[root] = closed, below
            front = preds[root] = preds[root] & ~closed
            self.live -= len(cycle) - 1
            # only the merged component can change source status
            self.sources = self.sources & ~closed | (0 if front else closed)
        else:
            preds[b] |= members[a]
            self.sources &= ~members[b]
            front = members[a]
        # u's component and its ancestors that do not reach v yet now reach
        # below; one that reaches v has every ancestor reaching it too
        while front:
            cid = label[(front & -front).bit_length() - 1]
            front &= ~members[cid]
            if not down[cid] >> v & 1:
                down[cid] |= below
                front |= preds[cid]

    def source_cut_pair(self) -> Edge | None:
        """Smallest pair (y, x) with y in a source component, x outside all
        of them and no edge y -> x.

        No edge enters the source components, so y and x are non-adjacent.
        Every added edge joins two vertices of one component by the end of
        its round, so it never crosses this cut and the input's edges decide.
        """
        outside = self.all_vertices & ~self.sources
        rest = self.sources
        while rest:
            low = rest & -rest
            y = low.bit_length() - 1
            if y not in self.out_masks:
                self.out_masks[y] = sum(1 << x for x in self.out_lists[y])
            free = outside & ~self.out_masks[y]
            if free:
                return y, (free & -free).bit_length() - 1
            rest ^= low
        return None

    def grow(self) -> list[Edge]:
        """Add edges by the source-cut step rule until one component is left.

        Let S be the vertices of the source components.  [S, S^c] is a
        dicut, so it is not complete and some pair y in S, x outside S is
        non-adjacent; the edge x -> y is added.  If x's component was not a
        successor of y's, the edge y -> z is added as well, where z is the
        smallest vertex of a source component that is a predecessor of x's
        component (legal because no edge joins two source components).
        Either way the component count drops.
        """
        added: list[Edge] = []
        while self.live > 1:
            pick = self.source_cut_pair()
            if pick is None:
                raise AssertionError("source cut is complete; invariant violated")
            y, x = pick
            step = [(x, y)]
            if not self.down[self.label[y]] >> x & 1:
                _, above = self.ancestors(self.label[x], self.all_vertices)
                reaching = self.sources & above
                step.append((y, (reaching & -reaching).bit_length() - 1))
            before = self.live
            for u, v in step:
                self.add_edge(u, v)
            if self.live >= before:
                raise AssertionError("extension round merged no components")
            added.extend(step)
        return added


def extend(g: StrictDigraph) -> ExtensionPlan:
    """Strong extension of any strongly connectable digraph, at most r edges.

    Exactly r edges are used only when g is disconnected with every weak
    component strong; otherwise at most r - 1.  The input is condensed at
    most once: a dense input whose score chain proves it strong
    (``is_strong``) gets the empty plan uncondensed.
    A disconnected input is first linked into one cycle of its weak
    components; the construction then grows from the condensation of the
    linked digraph, merging components as it adds edges, and builds the
    resulting digraph at the end.
    """
    _require_order(g)
    _require_no_complete_dicut(g)
    if is_strong(g):
        return ExtensionPlan((), g)
    cond = strong_components(g)
    added = []
    if cond.c > 1:
        added = _link_weak_components(cond)
        if cond.s == cond.t == cond.c:
            # every weak component has a source and a sink component, so
            # here exactly one of each: its source reaches all of it and all
            # of it reaches its sink, so the cycle of links makes g strong
            return ExtensionPlan(tuple(added), g.with_edges(added))
    added += _Growth(g, cond, added).grow()
    return ExtensionPlan(tuple(added), g.with_edges(added))


def _link_weak_components(cond: Condensation) -> list[Edge]:
    """One edge from each weak component's chosen sink into the next's source.

    In each weak component the smallest-id component is chosen, a source
    since quotient edges go to higher ids; the exit point is that component
    itself when the weak component is strong, otherwise the smallest-id sink
    component reachable from it, found by a search over the quotient.  Two
    strong weak components would be joined twice over one pair, so the
    return edge then uses another vertex of one; n >= 3 guarantees one.
    """
    entry: list[int] = []
    exits: list[int] = []
    successors, sinks = cond.successors, cond.sink_components
    for group in cond.weak_groups:
        s_cid = t_cid = group[0]
        if len(group) > 1:
            reached = {s_cid}
            stack = [s_cid]
            while stack:
                for b in successors[stack.pop()]:
                    if b not in reached:
                        reached.add(b)
                        stack.append(b)
            t_cid = min(reached.intersection(sinks))
        entry.append(cond.components[s_cid][0])
        exits.append(cond.components[t_cid][0])
    k = len(entry)
    edges = [(exits[i], entry[(i + 1) % k]) for i in range(k)]
    if k == 2 and edges[1] == edges[0][::-1]:
        first, second = (cond.components[cid] for (cid,) in cond.weak_groups)
        edges[1] = (second[1], first[0]) if len(second) > 1 else (second[0], first[1])
    return edges


def bounds(g: StrictDigraph) -> BoundsReport:
    """Bounds on the minimum extension size of a connectable digraph, with
    the exact minimum whenever the search budget allows it."""
    _require_order(g)
    _require_no_complete_dicut(g)
    cond = strong_components(g)
    lower = max(cond.s, cond.t) if cond.r > 1 else 0
    upper_theorem = cond.r if (cond.c > 1 and cond.c_prime == 0) else cond.r - 1
    upper_cyclic = upper_prop = None
    if cond.c > 1:
        sources, sinks = cond.source_components, cond.sink_components
        upper_cyclic = _best_cyclic_bound(
            [
                (len(sources.intersection(group)), len(sinks.intersection(group)))
                for group in cond.weak_groups
            ]
        )
        upper_prop = cond.s + cond.t - cond.c
    lower_matched = _matched_bound(g, cond)
    floor = max(lower, lower_matched or 0)
    ceiling = upper_theorem if upper_cyclic is None else min(upper_theorem, upper_cyclic)
    if cond.r > 1 and not _within_search_budget(g):
        brute_min = None  # past the search budget, even where the bounds meet
    elif floor == ceiling:
        brute_min = floor  # proved by the bounds; 0 for a strong input
    else:
        brute_min = len(_min_extension_search(g, cond))
    return BoundsReport(
        lower=lower,
        lower_matched=lower_matched,
        upper_theorem=upper_theorem,
        upper_cyclic=upper_cyclic,
        upper_prop=upper_prop,
        brute_min=brute_min,
    )


def _matched_bound(g: StrictDigraph, cond: Condensation) -> int | None:
    """Lower bound s + t - m when every strong component is one vertex that
    is a source or a sink but not both, so every edge runs from a source
    vertex in xs to a sink vertex in ys.

    m is a maximum matching from ys into xs over the pairs not adjacent in
    g: those are the only legal return edges, and each can serve one xs
    vertex needing an entering edge and one ys vertex needing a leaving one.
    """
    sources, sinks = cond.source_components, cond.sink_components
    if cond.r != g.n or len(sources ^ sinks) != cond.r:
        return None
    xs = sorted(cond.components[cid][0] for cid in sources)
    ys = sorted(cond.components[cid][0] for cid in sinks)
    return len(xs) + len(ys) - _max_matching(g, ys, xs)


def _max_matching(g: StrictDigraph, left: list[int], right: list[int]) -> int:
    """Maximum bipartite matching size by augmenting paths.

    Left vertex u may take the right vertices v with no edge (v, u) in g,
    tried in the order of ``right``.  A first pass matches each left vertex
    to its first free candidate; each one it leaves unmatched then searches
    depth first, on explicit stacks, for an augmenting path, which it cannot
    gain later.  A failed search changes nothing, so what it saw leads to no
    free vertex and stays marked."""
    n, codes = g.n, g._codes
    matched: dict[int, int] = {}
    free = list(right)  # the unmatched right vertices, in order
    roots = []
    for u in left:
        for i, v in enumerate(free):
            if v * n + u not in codes:
                del free[i]
                matched[v] = u
                break
        else:
            roots.append(u)
    seen: set[int] = set()
    size = len(right)
    for root in roots:
        # lefts[i] is entered through rights[i - 1]; its scan of right
        # resumes at index starts[i]
        lefts, starts, rights = [root], [0], []
        while lefts:
            u, i = lefts[-1], starts[-1]
            while i < size and (right[i] in seen or right[i] * n + u in codes):
                i += 1
            if i == size:
                lefts.pop()
                starts.pop()
                if rights:
                    rights.pop()
                continue
            starts[-1] = i + 1
            v = right[i]
            seen.add(v)
            rights.append(v)
            if v not in matched:
                for u, w in zip(lefts, rights):
                    matched[w] = u
                seen.clear()
                break
            lefts.append(matched[v])
            starts.append(0)
    return len(matched)


def _best_cyclic_bound(per_weak: list[tuple[int, int]]) -> int:
    """Cheapest cyclic order of the weak components, given each one's
    (source count s, sink count t).

    Joining t sinks to the next component's s sources costs max(t, s) =
    t + max(0, s - t) edges: the one-state-variable travelling salesman
    problem, solved exactly by Gilmore and Gomory (Oper. Res. 12, 1964).
    Following the i-th smallest t by the i-th smallest s is an optimal
    assignment that may split into cycles.  Exchanging the successors at
    sorted positions i and i + 1 joins two at cost max(0, low_(i+1) -
    high_(i)), low and high being the least and greatest of t_(i), s_(i).
    The tour costs the assignment plus a minimum spanning tree (Kruskal).
    """
    k = len(per_weak)
    by_t = sorted(range(k), key=lambda w: per_weak[w][1])
    by_s = sorted(range(k), key=lambda w: per_weak[w][0])
    ends = [(per_weak[a][1], per_weak[b][0]) for a, b in zip(by_t, by_s)]
    low, high = [min(e) for e in ends], [max(e) for e in ends]
    parent = list(range(k))

    def find(w: int) -> int:
        while parent[w] != w:
            parent[w] = parent[parent[w]]
            w = parent[w]
        return w

    for a, b in zip(by_t, by_s):  # the assignment's cycles
        parent[find(a)] = find(b)
    total = sum(high)
    for cost, i in sorted((max(0, low[i + 1] - high[i]), i) for i in range(k - 1)):
        a, b = find(by_t[i]), find(by_t[i + 1])
        if a != b:
            parent[a] = b
            total += cost
    return total


def brute_force_min_extension(g: StrictDigraph) -> tuple[int, ExtensionPlan] | None:
    """Exact minimum strong extension by exhaustive search.

    Added-edge sets are enumerated in increasing size and lexicographically
    within each size; each non-adjacent pair contributes both orientations,
    and a set uses each pair at most once.  Returns None when no strong
    extension exists at all.

    A strong input gets 0, and one with a complete dicut None, at any size
    and with no search: a complete dicut joins only adjacent pairs, so no
    added edge crosses it.  Only then does the search check its budget and
    raise BudgetError past it.  Every source component needs an added
    edge entering it and every sink component one leaving it, and
    one edge serves at most one of each: sizes below max(s, t) are skipped,
    and a partial set is abandoned when the picks left cannot serve the
    components still unserved, or when one of those has no serving candidate
    left in the order.  Neither cut removes a set that could succeed, so the
    first strong set found is the one plain enumeration finds.  Like
    ``extend`` and ``bounds``, it needs at least 3 vertices.
    """
    _require_order(g)
    cond = strong_components(g)
    if cond.r > 1 and find_complete_dicut(g) is not None:
        return None
    combo = _min_extension_search(g, cond)
    return len(combo), ExtensionPlan(combo, g.with_edges(combo))


def _within_search_budget(g: StrictDigraph) -> bool:
    """Whether the minimum-extension search takes g: at most
    MIN_EXTENSION_VERTEX_BUDGET vertices and MIN_EXTENSION_PAIR_BUDGET
    non-adjacent (free) pairs."""
    return g.n <= MIN_EXTENSION_VERTEX_BUDGET and g._free_pairs <= MIN_EXTENSION_PAIR_BUDGET


def _min_extension_search(g: StrictDigraph, cond: Condensation) -> tuple[Edge, ...]:
    """First strong added-edge set in size-then-lexicographic order, given
    the condensation cond of a digraph g with no complete dicut.

    A strong g gets () with no search.  Otherwise the budget is checked
    before anything is built: BudgetError unless ``_within_search_budget``
    takes g."""
    if cond.r == 1:
        return ()
    if not _within_search_budget(g):
        raise BudgetError(
            f"minimum-extension search supports at most {MIN_EXTENSION_PAIR_BUDGET} "
            f"addable pairs on {MIN_EXTENSION_VERTEX_BUDGET} vertices; "
            f"got {g._free_pairs} pairs on {g.n} vertices"
        )
    pairs = g.nonadjacent_pairs()
    full = (1 << g.n) - 1
    candidates = sorted(edge for u, v in pairs for edge in ((u, v), (v, u)))
    count = len(candidates)
    # one bit per need: bit i for the i-th source component, which needs an
    # entering edge, bit s + i for the i-th sink component, which needs a
    # leaving one; serves[j] holds the needs candidate j meets
    sources = sorted(cond.source_components)
    sinks = sorted(cond.sink_components)
    enter_bit = {cid: 1 << i for i, cid in enumerate(sources)}
    leave_bit = {cid: 1 << cond.s + i for i, cid in enumerate(sinks)}
    comp = cond.component_of
    serves = [
        0
        if comp[u] == comp[v]
        else enter_bit.get(comp[v], 0) | leave_bit.get(comp[u], 0)
        for u, v in candidates
    ]
    last = [-1] * (cond.s + cond.t)  # last candidate meeting each need
    for j, bits in enumerate(serves):
        for i in range(cond.s + cond.t):
            if bits >> i & 1:
                last[i] = j
    source_bits = (1 << cond.s) - 1
    out_mask = [0] * g.n
    in_mask = [0] * g.n
    for u, v in zip(g._tails, g._heads):
        out_mask[u] |= 1 << v
        in_mask[v] |= 1 << u
    chosen: list[int] = []

    def reaches_all(adj: list[int]) -> bool:
        seen = frontier = 1
        while frontier:
            low = frontier & -frontier
            frontier ^= low
            new = adj[low.bit_length() - 1] & ~seen
            seen |= new
            frontier |= new
        return seen == full

    def search(start: int, picks: int, unmet: int) -> bool:
        if picks == 0:
            return reaches_all(out_mask) and reaches_all(in_mask)
        sources_unmet = (unmet & source_bits).bit_count()
        if sources_unmet > picks or unmet.bit_count() - sources_unmet > picks:
            return False
        # the next pick may not pass the last candidate meeting an unmet need
        stop = count - picks
        for i, j in enumerate(last):
            if j < stop and unmet >> i & 1:
                stop = j
        for j in range(start, stop + 1):
            u, v = candidates[j]
            # u, v are non-adjacent in g, so the bit is set only once v -> u
            # is picked: a set uses each pair at most once
            if out_mask[v] >> u & 1:
                continue
            out_mask[u] |= 1 << v
            in_mask[v] |= 1 << u
            chosen.append(j)
            if search(j + 1, picks - 1, unmet & ~serves[j]):
                return True
            chosen.pop()
            out_mask[u] ^= 1 << v
            in_mask[v] ^= 1 << u
        return False

    unmet = (1 << cond.s + cond.t) - 1
    for size in range(max(cond.s, cond.t, 1), len(pairs) + 1):
        if search(0, size, unmet):
            return tuple(candidates[j] for j in chosen)
    raise AssertionError("no strong extension of a dicut-free digraph")


def gen_tt_minus_path(r: int) -> StrictDigraph:
    """Transitive tournament on r vertices minus its spanning path.

    A weakly connected digraph with r singleton strong components and no
    complete dicut whose minimum strong extension needs exactly r - 1 edges.
    """
    if r < 3:
        raise InvalidInputError(f"need r >= 3, got {r}")
    _require_size_limits(r, (r - 1) * (r - 2) // 2)
    edges = {(i, j) for i in range(r) for j in range(i + 2, r)}
    return StrictDigraph(r, frozenset(edges))


def gen_bipartite_plus_isolated(p: int, q: int) -> StrictDigraph:
    """Complete bipartite p x q digraph oriented left-to-right, plus an
    isolated vertex; its minimum strong extension needs exactly p + q edges."""
    if p < 1 or q < 1:
        raise InvalidInputError("need p >= 1 and q >= 1")
    _require_size_limits(p + q + 1, p * q)
    edges = {(i, p + j) for i in range(p) for j in range(q)}
    return StrictDigraph(p + q + 1, frozenset(edges))


def gen_disjoint_cycles(k: int, m: int) -> StrictDigraph:
    """m disjoint directed k-cycles."""
    if k < 3:
        raise InvalidInputError(f"cycle length must be at least 3, got {k}")
    if m < 1:
        raise InvalidInputError(f"need at least one cycle, got {m}")
    _require_size_limits(k * m, k * m)
    edges = set()
    for c in range(m):
        base = c * k
        for i in range(k):
            edges.add((base + i, base + (i + 1) % k))
    return StrictDigraph(k * m, frozenset(edges))
