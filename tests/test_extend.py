import itertools
import sys
import tracemalloc
from random import Random

import pytest
from hypothesis import assume, given, settings

from strongext import (
    BoundsReport,
    BudgetError,
    ExtensionPlan,
    HasCompleteDicutError,
    InvalidInputError,
    StrictDigraph,
    TooSmallError,
    bounds,
    brute_force_min_extension,
    extend,
    find_complete_dicut,
    gen_bipartite_plus_isolated,
    gen_disjoint_cycles,
    gen_tt_minus_path,
    is_strong,
    parse_edge_list,
    strong_components,
)

from strongext.extend import (
    MIN_EXTENSION_PAIR_BUDGET,
    _best_cyclic_bound,
    _Growth,
    _link_weak_components,
    _matched_bound,
    _max_matching,
    _min_extension_search,
    _within_search_budget,
)

from helpers import (
    _mask_vertices,
    all_strict_digraphs,
    closure_extend,
    criterion_sample,
    edge_set,
    held_karp_cyclic_cost,
    inner_calls,
    oracle_brute_force_min_extension,
    oracle_extend,
    oracle_is_strong,
    random_digraph,
    random_strong_blob,
    weak_components,
)
from strategies import strict_digraphs

PATH3 = StrictDigraph(3, [(0, 1), (1, 2)])
CYCLE3 = StrictDigraph(3, [(0, 1), (1, 2), (2, 0)])
TT3 = StrictDigraph(3, [(0, 1), (0, 2), (1, 2)])
TT4_MINUS_PATH = StrictDigraph(4, [(0, 2), (0, 3), (1, 3)])
TWO_CYCLES = gen_disjoint_cycles(3, 2)
PATH_PLUS_ISOLATED = StrictDigraph(4, [(0, 1), (1, 2)])
K22_MINUS = StrictDigraph(4, [(0, 2), (0, 3), (1, 2)])


def induced(g: StrictDigraph, vertices) -> StrictDigraph:
    index = {v: i for i, v in enumerate(vertices)}
    edges = {
        (index[u], index[v])
        for u, v in g.sorted_edges()
        if u in index and v in index
    }
    return StrictDigraph(len(vertices), frozenset(edges))


def all_weak_components_strong(g: StrictDigraph) -> bool:
    return all(
        oracle_is_strong(induced(g, block)) for block in weak_components(g)
    )


class TestExtendConnected:
    """``extend`` on weakly connected inputs, which need at most r - 1 edges."""

    def test_path(self):
        plan = extend(PATH3)
        assert plan.added == ((2, 0),)
        assert is_strong(plan.resulting)

    def test_tt4_minus_path(self):
        plan = extend(TT4_MINUS_PATH)
        assert plan.added == ((2, 1), (1, 0), (3, 2))
        assert is_strong(plan.resulting)
        assert len(plan.added) == strong_components(TT4_MINUS_PATH).r - 1

    def test_already_strong(self):
        plan = extend(CYCLE3)
        assert plan.added == ()
        assert plan.resulting == CYCLE3

    def test_rejects_small(self):
        with pytest.raises(TooSmallError):
            extend(StrictDigraph(2, [(0, 1)]))

    def test_rejects_complete_dicut(self):
        with pytest.raises(HasCompleteDicutError) as info:
            extend(TT3)
        assert info.value.certificate == (0,)


class TestExtend:
    def test_two_cycles_equality_case(self):
        plan = extend(TWO_CYCLES)
        assert plan.added == ((0, 3), (4, 0))
        assert is_strong(plan.resulting)
        assert len(plan.added) == strong_components(TWO_CYCLES).r

    def test_path_plus_isolated(self):
        plan = extend(PATH_PLUS_ISOLATED)
        assert plan.added == ((2, 3), (3, 0))
        assert is_strong(plan.resulting)

    def test_k22_minus_pair(self):
        plan = extend(K22_MINUS)
        assert plan.added == ((3, 1), (1, 0), (2, 3))
        assert is_strong(plan.resulting)

    def test_cycle_plus_isolated(self):
        g = StrictDigraph(4, [(0, 1), (1, 2), (2, 0)])
        plan = extend(g)
        assert plan.added == ((0, 3), (3, 1))
        assert is_strong(plan.resulting)

    def test_three_isolated(self):
        plan = extend(StrictDigraph(3, frozenset()))
        assert plan.added == ((0, 1), (1, 2), (2, 0))

    @settings(max_examples=200)
    @given(strict_digraphs(min_n=3, max_n=7))
    def test_theorem_bound_and_equality(self, g):
        assume(find_complete_dicut(g) is None)
        plan = extend(g)
        assert is_strong(plan.resulting)
        assert edge_set(plan.resulting) == edge_set(g) | set(plan.added)
        assert len(edge_set(plan.resulting)) == len(edge_set(g)) + len(plan.added)
        r = strong_components(g).r
        assert len(plan.added) <= r
        equality_case = (
            len(weak_components(g)) > 1 and all_weak_components_strong(g)
        )
        if equality_case:
            assert len(plan.added) == r
        else:
            assert len(plan.added) <= r - 1


def topological_dag(rng: Random, n: int, p: float) -> set[tuple[int, int]]:
    """Forward edges i -> j (i < j), each with probability p."""
    return {
        (i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p
    }


def sparse_topological_dag(rng: Random, n: int) -> set[tuple[int, int]]:
    """A random forward tree plus about n/2 further forward edges."""
    edges = {(rng.randrange(v), v) for v in range(1, n)}
    while len(edges) < n - 1 + n // 2:
        u, v = sorted(rng.sample(range(n), 2))
        edges.add((u, v))
    return edges


def weakly_connected_block(rng: Random, size: int) -> set[tuple[int, int]]:
    """Randomly oriented spanning tree plus random further edges."""
    edges = set()
    for v in range(1, size):
        u = rng.randrange(v)
        edges.add((u, v) if rng.random() < 0.5 else (v, u))
    for u, v in itertools.combinations(range(size), 2):
        if (u, v) not in edges and (v, u) not in edges and rng.random() < 0.3:
            edges.add((u, v) if rng.random() < 0.5 else (v, u))
    return edges


def disjoint_union(rng: Random, blocks, shuffle: bool) -> StrictDigraph:
    """Blocks given as (size, edges) side by side, optionally relabelled."""
    n = sum(size for size, _ in blocks)
    labels = list(range(n))
    if shuffle:
        rng.shuffle(labels)
    edges = set()
    base = 0
    for size, block in blocks:
        edges |= {(labels[base + u], labels[base + v]) for u, v in block}
        base += size
    return StrictDigraph(n, frozenset(edges))


def oracle_corpus() -> list[StrictDigraph]:
    """Seeded connectable inputs up to n = 200 that take many rounds.

    Topologically labelled DAGs (dense and sparse), the same shapes
    relabelled, and disconnected inputs that are linked into one weak
    component before they grow.
    """
    rng = Random(20261018)
    graphs = []
    for n in (12, 40, 90, 200):
        graphs.append(disjoint_union(rng, [(n, topological_dag(rng, n, 0.5))], False))
        graphs.append(disjoint_union(rng, [(n, sparse_topological_dag(rng, n))], False))
        graphs.append(disjoint_union(rng, [(n, topological_dag(rng, n, 0.2))], True))
    for total in (10, 30, 60, 120, 200):
        blocks = []
        while (left := total - sum(size for size, _ in blocks)) > 0:
            kind = rng.randrange(4) if left >= 3 else 3
            if kind == 3:
                blocks.append((1, set()))
                continue
            size = rng.randint(3, min(left, max(3, total // 3)))
            if kind == 0:
                blocks.append((size, topological_dag(rng, size, 0.4)))
            elif kind == 1:
                blocks.append((size, sparse_topological_dag(rng, size)))
            else:
                blocks.append((size, random_strong_blob(rng, list(range(size)))))
        for shuffle in (False, True):
            graphs.append(disjoint_union(rng, blocks, shuffle))
    return [g for g in graphs if find_complete_dicut(g) is None]


def assert_matches_oracle(g: StrictDigraph):
    plan = extend(g)
    added, resulting = oracle_extend(g)
    assert plan.added == added
    assert plan.resulting == resulting
    assert is_strong(plan.resulting)


class TestExtendMatchesOracle:
    """The single-condensation construction against the re-condensing one.

    Every connectable digraph with n <= 5 is compared inside acceptance
    criterion 1, which enumerates them anyway.
    """

    def test_pinned_cases(self):
        cases = [
            PATH3,
            CYCLE3,
            TT4_MINUS_PATH,
            TWO_CYCLES,
            PATH_PLUS_ISOLATED,
            K22_MINUS,
            StrictDigraph(4, [(0, 1), (1, 2), (2, 0)]),
            StrictDigraph(3, frozenset()),
            gen_tt_minus_path(7),
            gen_bipartite_plus_isolated(2, 3),
            gen_disjoint_cycles(4, 3),
            # the links merge only part of a weak component: a second
            # source, a second sink, or both stay outside the linked cycle
            parse_edge_list("n 12\n0 1\n2 1\n"),
            StrictDigraph(6, [(0, 1), (0, 2), (3, 4), (4, 5), (5, 3)]),
            StrictDigraph(
                9,
                edge_set(gen_bipartite_plus_isolated(2, 3))
                | {(6 + u, 6 + v) for u, v in gen_disjoint_cycles(3, 1).sorted_edges()},
            ),
        ]
        for g in cases:
            assert_matches_oracle(g)

    def test_links_feed_the_growth_state_at_once(self, monkeypatch):
        # 198 links leave vertex 2's source outside the cycle; growth
        # starts from the linked condensation and adds the closing edges
        calls = []
        original = _Growth.add_edge

        def counted(self, u, v):
            calls.append((u, v))
            return original(self, u, v)

        monkeypatch.setattr(_Growth, "add_edge", counted)
        g = parse_edge_list("n 200\n0 1\n2 1\n")
        plan = extend(g)
        assert len(calls) <= 2
        assert len(plan.added) == 198 + len(calls)
        assert is_strong(plan.resulting)

    def test_seeded_corpus(self):
        corpus = oracle_corpus()
        assert len(corpus) >= 20
        assert max(g.n for g in corpus) == 200
        linked_then_grown = [
            cond
            for cond in map(strong_components, corpus)
            if cond.c > 1 and any(len(group) > 1 for group in cond.weak_groups)
        ]
        assert len(linked_then_grown) >= 8
        for g in corpus:
            assert_matches_oracle(g)

    def test_returns_strong_input_unchanged(self):
        g = gen_disjoint_cycles(5, 1)
        assert extend(g).resulting is g


def random_pairs_dag(rng: Random, n: int, shuffle: bool) -> StrictDigraph:
    """2n distinct random pairs i < j as edges i -> j, optionally relabelled."""
    edges = set()
    while len(edges) < 2 * n:
        edges.add(tuple(sorted(rng.sample(range(n), 2))))
    return disjoint_union(rng, [(n, edges)], shuffle)


class TestGrowthMatchesClosureOracle:
    """The growth state without ancestor sets against the closure-mask one,
    at sizes past what the re-condensing oracle can reach."""

    @pytest.mark.parametrize("n", [1000, 2000])
    @pytest.mark.parametrize("shuffle", [False, True])
    def test_sparse_dags(self, n, shuffle):
        g = random_pairs_dag(Random(n), n, shuffle)
        assert find_complete_dicut(g) is None
        added, resulting = closure_extend(g)
        plan = extend(g)
        assert plan.added == added
        assert plan.resulting == resulting
        assert len(added) < strong_components(g).r


def assert_growth_state(growth: _Growth, h: StrictDigraph):
    """growth describes the condensation of h: the same blocks, sources,
    reach of every component and components entering it."""
    cond = strong_components(h)
    masks = [sum(1 << v for v in comp) for comp in cond.components]
    live = [growth.label[comp[0]] for comp in cond.components]
    assert growth.live == cond.r == len(set(live))
    reach = masks[:]
    entering: list[set[int]] = [set() for _ in masks]
    for cid in reversed(range(cond.r)):  # quotient edges go to higher ids
        for b in cond.successors[cid]:
            reach[cid] |= reach[b]
            entering[b].add(live[cid])
    for cid, comp in enumerate(cond.components):
        own = live[cid]
        assert {growth.label[v] for v in comp} == {own}
        assert sorted(growth.vertices[own]) == list(comp)
        assert growth.members[own] == masks[cid]
        assert growth.down[own] == reach[cid]
        preds = {growth.label[v] for v in _mask_vertices(growth.preds[own])}
        assert preds == entering[cid]
    assert growth.sources == sum(masks[cid] for cid in cond.source_components)


def assert_growth_invariant(g: StrictDigraph):
    """Grow g as extend does, checking the state against a fresh
    condensation before the first edge and after every added edge."""
    cond = strong_components(g)
    links = _link_weak_components(cond) if cond.c > 1 else []
    h = g.with_edges(links)
    growth = _Growth(g, cond, links)
    assert_growth_state(growth, h)
    added = []

    def add_edge(u, v):
        _Growth.add_edge(growth, u, v)
        added.append((u, v))
        assert_growth_state(growth, h.with_edges(added))

    growth.add_edge = add_edge
    assert tuple(growth.grow()) == tuple(added)
    assert growth.live == 1


class TestGrowthInvariant:
    """After every added edge the growth state is the condensation of the
    digraph so far; the pruned searches of ``add_edge`` rely on it."""

    @settings(max_examples=300, deadline=None)
    @given(strict_digraphs(min_n=3, max_n=8))
    def test_small(self, g):
        assume(find_complete_dicut(g) is None)
        assert_growth_invariant(g)

    def test_seeded_corpus(self):
        for g in oracle_corpus():
            assert_growth_invariant(g)


def per_weak_counts(cond) -> list[tuple[int, int]]:
    """Each weak component's (source count, sink count)."""
    return [
        (
            sum(1 for cid in group if cid in cond.source_components),
            sum(1 for cid in group if cid in cond.sink_components),
        )
        for group in cond.weak_groups
    ]


def full_cyclic_search(per_weak) -> int:
    """Cyclic linking cost minimized over every order of the weak components.

    Rotating a cyclic order keeps its consecutive pairs, so only the orders
    starting with component 0 are tried.
    """
    k = len(per_weak)
    return min(
        sum(max(per_weak[o[i - 1]][1], per_weak[o[i]][0]) for i in range(k))
        for o in ((0,) + rest for rest in itertools.permutations(range(1, k)))
    )


def random_counts(rng: Random, c: int) -> list[tuple[int, int]]:
    """c (source count, sink count) pairs; small ranges make many ties."""
    top = rng.choice((1, 3, 6, 20))
    return [(rng.randint(1, top), rng.randint(1, top)) for _ in range(c)]


class TestCyclicBound:
    def test_matches_full_permutation_search(self):
        rng = Random(20261019)
        for c in range(2, 9):
            for _ in range(3):
                blocks = []
                for _ in range(c):
                    size = rng.randint(1, 5)
                    blocks.append((size, weakly_connected_block(rng, size)))
                g = disjoint_union(rng, blocks, True)
                cond = strong_components(g)
                assert cond.c == c
                expected = full_cyclic_search(per_weak_counts(cond))
                assert bounds(g).upper_cyclic == expected

    def test_matches_permutations_on_random_counts(self):
        rng = Random(1964)
        runs = {1: 50, 2: 300, 3: 300, 4: 300, 5: 300, 6: 200, 7: 60, 8: 30}
        for c, count in runs.items():
            for _ in range(count):
                per_weak = random_counts(rng, c)
                assert _best_cyclic_bound(per_weak) == full_cyclic_search(per_weak)

    def test_sorted_assignment_alone_is_not_enough(self):
        # sorting pairs each component with itself, at cost 1 + 5; joining
        # the two loops into one cycle costs 4 more
        assert _best_cyclic_bound([(1, 1), (5, 5)]) == 10

    def test_matches_held_karp_above_eight(self):
        rng = Random(1962)
        for c in range(9, 13):
            for _ in range(2):
                per_weak = random_counts(rng, c)
                assert _best_cyclic_bound(per_weak) == held_karp_cyclic_cost(per_weak)
        assert bounds(gen_disjoint_cycles(3, 9)).upper_cyclic == 9

    def test_held_karp_matches_permutations(self):
        rng = Random(1970)
        for c in range(1, 8):
            for _ in range(20):
                per_weak = random_counts(rng, c)
                assert held_karp_cyclic_cost(per_weak) == full_cyclic_search(per_weak)


class TestBounds:
    def test_path_plus_isolated(self):
        report = bounds(PATH_PLUS_ISOLATED)
        assert report.lower == 2
        assert report.lower_matched is None
        assert report.upper_theorem == 3
        assert report.upper_cyclic == 2
        assert report.upper_prop == 2
        assert report.brute_min == 2
        cond = strong_components(PATH_PLUS_ISOLATED)
        assert report.upper_prop == cond.u - cond.c_prime

    def test_two_cycles(self):
        report = bounds(TWO_CYCLES)
        assert report.lower == 2
        assert report.upper_theorem == 2
        assert report.upper_cyclic == 2
        assert report.upper_prop == 2
        assert report.brute_min == 2

    def test_tt4_minus_path_matched_bound_beats_lower(self):
        report = bounds(TT4_MINUS_PATH)
        assert report.lower == 2
        assert report.lower_matched == 3
        assert report.brute_min == 3
        assert report.upper_theorem == 3
        assert report.upper_cyclic is None
        assert report.upper_prop is None

    def test_already_strong(self):
        report = bounds(CYCLE3)
        assert report.lower == 0
        assert report.upper_theorem == 0
        assert report.brute_min == 0

    def test_strong_outside_search_budget(self):
        # 54 free pairs on 12 vertices, yet a strong input needs no search
        report = bounds(gen_disjoint_cycles(12, 1))
        assert (report.lower, report.upper_theorem, report.brute_min) == (0, 0, 0)

    def test_edgeless(self):
        report = bounds(StrictDigraph(3, frozenset()))
        assert (report.lower, report.upper_theorem) == (3, 3)
        assert (report.upper_cyclic, report.upper_prop) == (3, 3)
        assert report.brute_min == 3
        assert report.lower_matched is None

    def test_rejects_complete_dicut(self):
        with pytest.raises(HasCompleteDicutError):
            bounds(TT3)

    @settings(max_examples=100, deadline=None)
    @given(strict_digraphs(min_n=3, max_n=6))
    def test_sandwich(self, g):
        assume(find_complete_dicut(g) is None)
        report = bounds(g)
        added = len(extend(g).added)
        # brute-min may be read off the bounds, so it is checked against the
        # plain enumeration too
        assert report.brute_min == oracle_brute_force_min_extension(g)[0]
        assert report.lower <= report.brute_min <= added <= report.upper_theorem
        if report.lower_matched is not None:
            assert report.lower_matched <= report.brute_min
        if report.upper_cyclic is not None:
            assert report.brute_min <= report.upper_cyclic <= report.upper_prop


class TestBoundsShortcut:
    """Inside the search budget, bounds that meet give brute-min without
    the search; brute-min appears on the same inputs as before."""

    @pytest.mark.parametrize(
        "g, report",
        [
            (gen_disjoint_cycles(3, 2), BoundsReport(2, None, 2, 2, 2, 2)),
            (StrictDigraph(5, frozenset()), BoundsReport(5, None, 5, 5, 5, 5)),
            (K22_MINUS, BoundsReport(2, 3, 3, None, None, 3)),
            (PATH_PLUS_ISOLATED, BoundsReport(2, None, 3, 2, 2, 2)),
            (CYCLE3, BoundsReport(0, None, 0, None, None, 0)),
        ],
        ids=["cycles-3-2", "edgeless5", "k22-minus", "path-plus-isolated", "cycle3"],
    )
    def test_meeting_bounds_skip_the_search(self, monkeypatch, g, report):
        def no_search(*args):
            raise AssertionError("searched although the bounds meet")

        module = sys.modules["strongext.extend"]
        monkeypatch.setattr(module, "_min_extension_search", no_search)
        assert bounds(g) == report

    def test_meeting_bounds_outside_the_budget(self):
        # n = 12 is past the search's vertex budget: the bounds meet at 4,
        # yet brute-min stays None, as the search would leave it
        report = bounds(gen_disjoint_cycles(3, 4))
        assert report.lower == report.upper_theorem == report.upper_cyclic == 4
        assert report.brute_min is None

    def test_matches_the_search(self):
        rng = Random(2020)
        checked = met = 0
        while checked < 3000:
            g = random_digraph(rng, rng.randint(3, 9), rng.uniform(0.2, 1.0))
            if not _within_search_budget(g) or find_complete_dicut(g) is not None:
                continue
            checked += 1
            report = bounds(g)
            searched = len(_min_extension_search(g, strong_components(g)))
            assert report.brute_min == searched, g.sorted_edges()
            ceiling = min(u for u in (report.upper_theorem, report.upper_cyclic) if u is not None)
            met += report.lower > 0 and max(report.lower, report.lower_matched or 0) == ceiling
        # the shortcut is taken on over 1 000 inputs, strong ones not counted
        assert met > 1000


def traced_matched_bound(g: StrictDigraph) -> tuple[int | None, int]:
    """_matched_bound of g and the tracemalloc peak while computing it from
    g's condensation, which is built beforehand."""
    cond = strong_components(g)
    tracemalloc.start()
    try:
        return _matched_bound(g, cond), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestMatchingBound:
    def test_k22_minus_pair(self):
        assert bounds(K22_MINUS).lower_matched == 3

    def test_k33_minus_perfect_matching(self):
        edges = [
            (i, 3 + j) for i in range(3) for j in range(3) if i != j
        ]
        g = StrictDigraph(6, edges)
        report = bounds(g)
        assert report.lower_matched == 3
        assert report.brute_min == 3

    def test_one_missing_pair(self):
        edges = [(i, 2 + j) for i in range(2) for j in range(3)]
        edges.remove((0, 2))
        g = StrictDigraph(5, edges)
        assert bounds(g).lower_matched == 4

    def test_complete_bipartite_rejected(self):
        g = gen_bipartite_plus_isolated(2, 2)
        k22 = induced(g, [0, 1, 2, 3])
        with pytest.raises(HasCompleteDicutError) as info:
            bounds(k22)
        assert info.value.certificate == (0, 1)

    def test_shape_is_every_vertex_purely_tail_or_head(self):
        # the condensation's test (singleton components, each a source or a
        # sink but not both) against the edges' own tails and heads
        rng = Random(3301)
        graphs = [g for n in (3, 4) for g in all_strict_digraphs(n)]
        graphs += [random_digraph(rng, rng.randint(5, 9), 0.4) for _ in range(100)]
        for _ in range(200):
            p, q = rng.randint(1, 5), rng.randint(2, 5)
            edges = {
                (i, p + j) for i in range(p) for j in range(q) if rng.random() < 0.7
            }
            if rng.random() < 0.3:
                # one edge against the orientation, where it fits
                i, j = rng.randrange(p), rng.randrange(q)
                if (i, p + j) not in edges:
                    edges.add((p + j, i))
            graphs.append(StrictDigraph(p + q, frozenset(edges)))
        matched = 0
        for g in graphs:
            if find_complete_dicut(g) is not None:
                continue
            tails = {u for u, _ in g.sorted_edges()}
            heads = {v for _, v in g.sorted_edges()}
            shaped = bool(tails) and not tails & heads and len(tails | heads) == g.n
            report = bounds(g)
            assert (report.lower_matched is not None) == shaped
            matched += shaped
        assert matched >= 20

    def test_matching_is_maximum(self):
        rng = Random(5309)
        for _ in range(300):
            left = list(range(rng.randint(1, 6)))
            right = list(range(10, 10 + rng.randint(1, 6)))
            adj = {u: [v for v in right if rng.random() < 0.4] for u in left}
            pairs = [(u, v) for u in left for v in adj[u]]
            best = max(
                size
                for size in range(len(left) + 1)
                for chosen in itertools.combinations(pairs, size)
                if len({u for u, _ in chosen}) == len({v for _, v in chosen}) == size
            )
            # u may take v unless g has the edge (v, u)
            g = StrictDigraph(
                16, [(v, u) for u in left for v in right if v not in adj[u]]
            )
            assert _max_matching(g, left, right) == best

    def test_long_augmenting_path(self):
        # the only non-edges pair y_i with x_i and x_{i+1}, and y_1100 with
        # x_0: matching y_1100 shifts every earlier y along a 1101-long path
        size = 1101
        xs = list(range(size))
        ys = list(range(size, 2 * size))
        missing = {(i, size + i) for i in range(size - 1)}
        missing |= {(i + 1, size + i) for i in range(size - 1)}
        missing.add((0, 2 * size - 1))
        g = StrictDigraph(
            2 * size,
            frozenset(
                (x, y) for x in xs for y in ys if (x, y) not in missing
            ),
        )
        # a 1 101-frame search path, and no frame holds a candidate set
        bound, peak = traced_matched_bound(g)
        assert bound == size
        assert peak < 5_000_000

    def test_sparse_perfect_matching(self):
        # edges i -> i + h only: each sink's candidates are every source
        # but its own, so a greedy first pass leaves almost nothing to
        # augment; an augmenting search from every sink is cubic here
        h = 2000
        g = StrictDigraph(2 * h, [(i, i + h) for i in range(h)])
        assert bounds(g).lower_matched == h

    def test_candidates_are_not_listed(self):
        # every sink has all sources but one as candidates; listing them
        # took 79 MB here
        h = 3000
        g = StrictDigraph(2 * h, [(i, i + h) for i in range(h)])
        bound, peak = traced_matched_bound(g)
        assert bound == h
        assert peak < 5_000_000

    def test_sound_on_random_bipartite(self):
        rng = Random(4217)
        matched = 0
        for _ in range(40):
            p, q = rng.randint(1, 3), rng.randint(1, 3)
            edges = {
                (i, p + j)
                for i, j in itertools.product(range(p), range(q))
                if rng.random() < 0.6
            }
            g = StrictDigraph(p + q, frozenset(edges))
            # n = 2 admits no strong strict digraph at all; skip alongside
            # the complete orientation, which has no extension either
            if p + q < 3 or len(edges) == p * q:
                continue
            report = bounds(g)
            if report.lower_matched is not None:
                assert report.lower_matched <= report.brute_min
                matched += 1
        assert matched >= 10


class TestBruteForceMinExtension:
    def test_path(self):
        assert brute_force_min_extension(PATH3) == (
            1,
            ExtensionPlan(((2, 0),), PATH3.with_edges([(2, 0)])),
        )

    def test_two_cycles(self):
        result = brute_force_min_extension(TWO_CYCLES)
        assert result is not None
        size, plan = result
        assert size == 2
        assert is_strong(plan.resulting)

    def test_lexicographic_first(self):
        size, plan = brute_force_min_extension(StrictDigraph(3, frozenset()))
        assert size == 3
        assert plan.added == ((0, 1), (1, 2), (2, 0))

    def test_no_extension_exists(self):
        out_star = StrictDigraph(3, [(0, 1), (0, 2)])
        assert brute_force_min_extension(out_star) is None

    def test_already_strong(self):
        assert brute_force_min_extension(CYCLE3) == (0, extend(CYCLE3))

    def test_rejects_fewer_than_three_vertices(self):
        for g in (
            StrictDigraph(0),
            StrictDigraph(1),
            StrictDigraph(2),
            StrictDigraph(2, [(0, 1)]),
        ):
            with pytest.raises(TooSmallError, match="need at least 3 vertices"):
                brute_force_min_extension(g)

    def test_budgets(self):
        with pytest.raises(BudgetError):
            brute_force_min_extension(StrictDigraph(11, frozenset()))
        with pytest.raises(BudgetError):
            brute_force_min_extension(StrictDigraph(8, frozenset()))

    @pytest.mark.parametrize(
        "a, b, between, free, in_budget",
        [(5, 5, 11, 24, True), (5, 5, 10, 25, False), (5, 6, 20, 24, False)],
    )
    def test_budget_edges_through_both_entries(self, a, b, between, free, in_budget):
        # n = 10 with 24 and 25 free pairs, and n = 11 with 24; one edge
        # back from the second cycle makes each strong
        g = two_cycles_joined(a, b, between)
        assert len(g.nonadjacent_pairs()) == free
        if in_budget:
            assert bounds(g).brute_min == 1
            size, plan = brute_force_min_extension(g)
            assert size == 1 and is_strong(plan.resulting)
        else:
            assert bounds(g).brute_min is None
            with pytest.raises(BudgetError):
                brute_force_min_extension(g)

    def test_dicut_and_strong_inputs_skip_the_budget(self):
        # both need no search, so the size budget does not apply
        tt11 = StrictDigraph(11, [(i, j) for i in range(11) for j in range(i + 1, 11)])
        assert brute_force_min_extension(tt11) is None
        assert brute_force_min_extension(gen_disjoint_cycles(12, 1))[0] == 0

    def test_dicut_input_skips_the_search(self, monkeypatch):
        # {6, 7} -> all other vertices is a complete dicut; without the
        # early exit the pruned search takes over a minute on this input
        def no_search(*args):
            raise AssertionError("searched an input with a complete dicut")

        # the package's ``extend`` function shadows the module's name
        module = sys.modules["strongext.extend"]
        monkeypatch.setattr(module, "_min_extension_search", no_search)
        g = StrictDigraph(8, [(a, b) for a in (6, 7) for b in range(6)])
        assert brute_force_min_extension(g) is None

    def test_bipartite_family_needs_p_plus_q(self):
        # plain enumeration takes more than 5 minutes on bipartite 4 4
        for p in range(1, 8):
            for q in range(1, 9 - p):
                g = gen_bipartite_plus_isolated(p, q)
                if len(g.nonadjacent_pairs()) > MIN_EXTENSION_PAIR_BUDGET:
                    with pytest.raises(BudgetError):
                        brute_force_min_extension(g)
                    continue
                size, plan = brute_force_min_extension(g)
                assert size == p + q
                assert len(plan.added) == size and is_strong(plan.resulting)


def two_cycles_joined(a: int, b: int, between: int) -> StrictDigraph:
    """An a-cycle and a b-cycle with the first `between` pairs of the
    first's vertices and the second's, in sorted order, as edges into the
    second; with 0 < between < a·b there is no complete dicut."""
    edges = [(i, (i + 1) % a) for i in range(a)]
    edges += [(a + i, a + (i + 1) % b) for i in range(b)]
    edges += list(itertools.product(range(a), range(a, a + b)))[:between]
    return StrictDigraph(a + b, edges)


def min_extension_corpus() -> tuple[list[StrictDigraph], list[StrictDigraph]]:
    """Seeded connectable inputs and inputs with a complete dicut, n = 5-8.

    Near-acyclic orientations, so that several source and sink components
    need serving.  The dicut inputs have at most 7 addable pairs, since the
    plain enumeration must try every oriented subset of them.
    """
    rng = Random(8150)
    connectable: list[StrictDigraph] = []
    with_dicut: list[StrictDigraph] = []
    while len(connectable) < 80 or len(with_dicut) < 16:
        n = rng.randint(5, 8)
        order = list(range(n))
        rng.shuffle(order)
        density = rng.choice([0.4, 0.55, 0.7])
        edges = set()
        for a, b in itertools.combinations(range(n), 2):
            if rng.random() < density:
                u, v = order[a], order[b]
                edges.add((u, v) if rng.random() < 0.85 else (v, u))
        g = StrictDigraph(n, frozenset(edges))
        pairs = len(g.nonadjacent_pairs())
        if find_complete_dicut(g) is None:
            if pairs <= 18 and len(connectable) < 80:
                connectable.append(g)
        elif pairs <= 7 and len(with_dicut) < 16:
            with_dicut.append(g)
    return connectable, with_dicut


class TestSearchWork:
    @staticmethod
    def sample():
        return [g for g in criterion_sample(77, 300) if _within_search_budget(g)]

    def test_search_nodes_on_a_criterion_sample(self):
        # the cuts of the minimum-extension search leave every minimum
        # alone, so only the node count shows a weakened one: dropping the
        # need-count or the last-candidate cut, or starting at size 1,
        # visits 232 321, 8 053 or 6 349 nodes here, and keeping the
        # candidates whose tail already reaches their head 6 850.  A change
        # to a cut re-pins the count
        sample = self.sample()
        nodes, minima = inner_calls(
            _min_extension_search,
            "search",
            lambda: [brute_force_min_extension(g)[0] for g in sample],
        )
        assert (len(sample), sum(minima)) == (298, 766)
        assert nodes == 5_881

    def test_leaves_with_a_need_unmet_are_not_searched(self):
        # the need count is checked before the leaf's strongness test, so
        # most leaves cost no reachability search: testing every leaf first
        # costs 4 065 of them here
        sample = self.sample()
        searches, _ = inner_calls(
            _min_extension_search,
            "reaches_all",
            lambda: [brute_force_min_extension(g) for g in sample],
        )
        assert searches == 601


class TestBruteForceMatchesOracle:
    """The pruned search against plain enumeration: same size, same plan."""

    def test_every_digraph_up_to_four_vertices(self):
        # below 3 vertices the search refuses, as extend and bounds do
        for n in range(3, 5):
            for g in all_strict_digraphs(n):
                expected = oracle_brute_force_min_extension(g)
                assert brute_force_min_extension(g) == expected

    def test_seeded_corpus(self):
        connectable, with_dicut = min_extension_corpus()
        sizes = set()
        for g in connectable:
            result = brute_force_min_extension(g)
            assert result == oracle_brute_force_min_extension(g)
            sizes.add(result[0])
        assert {2, 3, 4} <= sizes
        for g in with_dicut:
            assert brute_force_min_extension(g) is None
            assert oracle_brute_force_min_extension(g) is None


class TestGenerators:
    def test_tt_minus_path_small(self):
        assert edge_set(gen_tt_minus_path(3)) == frozenset({(0, 2)})
        assert edge_set(gen_tt_minus_path(4)) == frozenset(
            {(0, 2), (0, 3), (1, 3)}
        )

    def test_tt_minus_path_structure(self):
        # r = 3 leaves vertex 1 isolated; larger r are weakly connected
        for r in range(3, 8):
            g = gen_tt_minus_path(r)
            assert strong_components(g).r == r
            assert find_complete_dicut(g) is None
            assert len(weak_components(g)) == (2 if r == 3 else 1)

    def test_tt_minus_path_rejects_small(self):
        with pytest.raises(InvalidInputError):
            gen_tt_minus_path(2)

    def test_tt_minus_path_rejects_edge_count_past_limit(self):
        # 1416 vertices are allowed, but 1415 * 1414 / 2 = 1 000 405 edges are not
        with pytest.raises(InvalidInputError, match="edge count 1000405 exceeds"):
            gen_tt_minus_path(1416)

    def test_bipartite_plus_isolated(self):
        g = gen_bipartite_plus_isolated(1, 1)
        assert g.n == 3
        assert edge_set(g) == frozenset({(0, 1)})
        g = gen_bipartite_plus_isolated(2, 1)
        assert edge_set(g) == frozenset({(0, 2), (1, 2)})
        assert find_complete_dicut(gen_bipartite_plus_isolated(1, 2)) is None

    def test_bipartite_rejects_bad_params(self):
        with pytest.raises(InvalidInputError):
            gen_bipartite_plus_isolated(0, 1)
        with pytest.raises(InvalidInputError):
            gen_bipartite_plus_isolated(1, 0)

    def test_disjoint_cycles(self):
        assert gen_disjoint_cycles(3, 1) == CYCLE3
        g = gen_disjoint_cycles(3, 2)
        assert weak_components(g) == ((0, 1, 2), (3, 4, 5))
        assert all_weak_components_strong(g)

    def test_disjoint_cycles_rejects_bad_params(self):
        with pytest.raises(InvalidInputError):
            gen_disjoint_cycles(2, 1)
        with pytest.raises(InvalidInputError):
            gen_disjoint_cycles(3, 0)

