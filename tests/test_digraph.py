import itertools
import math
import tracemalloc
from random import Random
from unittest import mock

import pytest
from hypothesis import given
from hypothesis import strategies as st

from strongext import (
    MAX_VERTICES,
    ParseError,
    StrictDigraph,
    extend,
    find_complete_dicut,
    is_strong,
    parse_edge_list,
    serialize_edge_list,
    strong_components,
    verify_complete_dicut,
)
from strongext.digraph import _parse_lines

from helpers import (
    adjacent,
    oracle_is_strong,
    oracle_strong_components,
    quotient_edges,
    reverse,
    weak_components,
)
from strategies import near_tournaments, strict_digraphs, strict_edge_sets, tournaments

PATH3 = StrictDigraph(3, [(0, 1), (1, 2)])
CYCLE3 = StrictDigraph(3, [(0, 1), (1, 2), (2, 0)])
TWO_CYCLES = StrictDigraph(
    6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)]
)
# transitive tournament on 4 vertices minus its spanning path
TT4_MINUS_PATH = StrictDigraph(4, [(0, 2), (0, 3), (1, 3)])


class TestStrictDigraph:
    def test_rejects_loop(self):
        with pytest.raises(ValueError):
            StrictDigraph(2, [(1, 1)])

    def test_rejects_antiparallel_pair(self):
        with pytest.raises(ValueError):
            StrictDigraph(2, [(0, 1), (1, 0)])

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            StrictDigraph(2, [(0, 2)])

    def test_rejects_negative_order(self):
        with pytest.raises(ValueError):
            StrictDigraph(-1, frozenset())

    def test_from_edges_deduplicates(self):
        g = StrictDigraph(2, [(0, 1), (0, 1)])
        assert g.edges == frozenset({(0, 1)})

    def test_with_edges_rejects_duplicate(self):
        with pytest.raises(ValueError):
            PATH3.with_edges([(0, 1)])

    def test_with_edges_rejects_antiparallel(self):
        with pytest.raises(ValueError):
            PATH3.with_edges([(1, 0)])

    @pytest.mark.parametrize(
        "extra, message",
        [
            ([(0, 0)], "loop at vertex 0"),
            ([(0, 3)], r"edge \(0, 3\) out of range for n=3"),
            ([(-1, 2)], r"edge \(-1, 2\) out of range for n=3"),
            ([(0, 2), (1, 2)], r"edge \(1, 2\) already present"),
            ([(2, 1)], "antiparallel pair between 2 and 1"),
            ([(0, 2), (2, 0)], "antiparallel pair between 0 and 2"),
        ],
    )
    def test_with_edges_rejects_each_invalid_extra(self, extra, message):
        with pytest.raises(ValueError, match=message):
            PATH3.with_edges(extra)

    @pytest.mark.parametrize(
        "edges, message",
        [
            ([(0, 1), (1, 1)], "loop at vertex 1"),
            ([(0, 3)], "edge (0, 3) out of range for n=3"),
            # (-1, 5) has the code of (0, 2) at n = 3
            ([(0, 2), (-1, 5)], "edge (-1, 5) out of range for n=3"),
            ([(0, 1), (1, 0)], "antiparallel pair between 0 and 1"),
            ([(1, 0), (0, 1)], "antiparallel pair between 1 and 0"),
        ],
    )
    def test_one_rule_for_every_entry(self, edges, message):
        with pytest.raises(ValueError) as built:
            StrictDigraph(3, edges)
        with pytest.raises(ValueError) as extended:
            StrictDigraph(3).with_edges(edges)
        assert str(built.value) == str(extended.value) == message
        # the comment line keeps the text off the bulk path
        text = "# g\nn 3\n" + "".join(f"{u} {v}\n" for u, v in edges)
        with pytest.raises(ParseError) as parsed:
            parse_edge_list(text)
        assert str(parsed.value) == f"line {2 + len(edges)}: {message}"

    def test_with_edges_nothing_to_add_returns_self(self):
        assert PATH3.with_edges([]) is PATH3
        assert PATH3.with_edges(iter(())) is PATH3

    def test_with_edges_matches_construction(self):
        g = PATH3.with_edges([(2, 0), (2, 0)])
        assert g == StrictDigraph(3, [(0, 1), (1, 2), (2, 0)])
        assert hash(g) == hash(CYCLE3) and g.n == 3

    def test_reverse(self):
        assert reverse(PATH3).edges == frozenset({(1, 0), (2, 1)})

    def test_nonadjacent_pairs(self):
        assert PATH3.nonadjacent_pairs() == [(0, 2)]
        assert CYCLE3.nonadjacent_pairs() == []


def assert_matches_tuples(g: StrictDigraph, n: int, edges: frozenset):
    """g against a plain tuple-set description of the digraph (n, edges)."""
    assert g.n == n
    assert g.edges == edges
    assert g.sorted_edges() == sorted(edges)
    assert sorted(zip(g._tails, g._heads)) == sorted(edges)  # one entry per edge
    assert [sorted(out) for out in g._out_lists] == [
        sorted(v for u, v in edges if u == x) for x in range(n)
    ]
    assert [sorted(into) for into in g._in_lists] == [
        sorted(u for u, v in edges if v == x) for x in range(n)
    ]
    same = StrictDigraph(n, sorted(edges))
    assert g == same and hash(g) == hash(same)
    assert g != StrictDigraph(n + 1, edges)
    for e in sorted(edges)[:3]:
        assert g != StrictDigraph(n, edges - {e})
    for u in range(n):
        for v in range(n):
            assert g.has_edge(u, v) == ((u, v) in edges)
            assert adjacent(g, u, v) == ((u, v) in edges or (v, u) in edges)


class TestCodedForm:
    """Every way of building a digraph gives the same digraph as its tuple
    set: equality, hash, edges, sorted edges and neighbour lists."""

    @given(strict_edge_sets(), st.randoms(use_true_random=False))
    def test_construction(self, drawn, rng):
        n, edges = drawn
        listed = sorted(edges) + rng.sample(sorted(edges), len(edges) // 2)
        rng.shuffle(listed)
        assert_matches_tuples(StrictDigraph(n, listed), n, edges)

    @given(strict_edge_sets(), st.randoms(use_true_random=False))
    def test_bulk_parse(self, drawn, rng):
        n, edges = drawn
        lines = [f"{u} {v}" for u, v in sorted(edges)]
        lines += rng.sample(lines, len(lines) // 2)
        # enough endpoints that the id table covers every vertex id
        lines += lines[:1] * n
        rng.shuffle(lines)
        text = f"n {n}\n" + "".join(f"{line}\n" for line in lines)
        # canonical text must never reach the line reader
        with mock.patch(
            "strongext.digraph._parse_lines",
            side_effect=AssertionError("canonical text was read line by line"),
        ):
            g = parse_edge_list(text)
        assert_matches_tuples(g, n, edges)

    @given(strict_edge_sets(), st.randoms(use_true_random=False))
    def test_line_parse(self, drawn, rng):
        n, edges = drawn
        lines = [f"{u} {v}" for u, v in sorted(edges)]
        lines += rng.sample(lines, len(lines) // 2)
        rng.shuffle(lines)
        text = f"# g\nn {n}\n\n" + "\n".join(lines)
        assert_matches_tuples(parse_edge_list(text), n, edges)
        assert_matches_tuples(_parse_lines(text), n, edges)

    @pytest.mark.parametrize("text", ["n 0\n", "n 1\n", "n 0", "n 1\n# none\n"])
    def test_parse_tiny(self, text):
        n = int(text.split()[1])
        assert_matches_tuples(parse_edge_list(text), n, frozenset())
        assert_matches_tuples(_parse_lines(text), n, frozenset())

    @given(strict_edge_sets(), st.randoms(use_true_random=False))
    def test_with_edges(self, drawn, rng):
        n, edges = drawn
        listed = sorted(edges)
        rng.shuffle(listed)
        cut = rng.randint(0, len(listed))
        extra = listed[cut:] + rng.sample(listed[cut:], (len(listed) - cut) // 2)
        g = StrictDigraph(n, listed[:cut]).with_edges(extra)
        assert_matches_tuples(g, n, edges)
        assert_matches_tuples(g.with_edges([]), n, edges)

    @given(strict_digraphs(min_n=1))
    def test_out_of_range_endpoints_are_not_edges(self, g):
        n = g.n
        for u in range(-n - 1, 2 * n + 1):
            for v in range(-n - 1, 2 * n + 1):
                if not (0 <= u < n and 0 <= v < n):
                    assert not g.has_edge(u, v)
                    assert not adjacent(g, u, v)

    def test_out_of_range_code_does_not_alias(self):
        # 0 * 2 + 2 and -1 * 2 + 3 are the code of (1, 0)
        g = StrictDigraph(2, [(1, 0)])
        assert g.has_edge(1, 0)
        assert not g.has_edge(0, 2) and not adjacent(g, 0, 2)
        assert not g.has_edge(-1, 3) and not adjacent(g, 3, -1)

    def test_immutable(self):
        with pytest.raises(AttributeError):
            PATH3.n = 4
        with pytest.raises(AttributeError):
            del PATH3.n
        assert PATH3.n == 3


class TestDecidePathKeepsCodes:
    """Deciding and verifying on a parsed digraph never builds its tuple
    view, the frozenset of (u, v) pairs."""

    @pytest.mark.parametrize("cut", [False, True])
    def test_tournament(self, cut):
        rng = Random(13)
        g = parse_edge_list(serialize_edge_list(_random_with_cut(rng, 60, 1.0, cut)))
        cert = find_complete_dicut(g)
        assert (cert is not None) == cut
        assert (strong_components(g).r == 1) == is_strong(g)
        assert is_strong(g.with_edges([])) == is_strong(g)
        if cert is not None:
            assert verify_complete_dicut(g, cert)
        assert "edges" not in vars(g)


class TestParse:
    def test_basic(self):
        g = parse_edge_list("n 3\n0 1\n1 2")
        assert g.n == 3
        assert g.edges == frozenset({(0, 1), (1, 2)})

    def test_comments_blanks_and_duplicates(self):
        g = parse_edge_list("# graph\nn 3\n\n0 1\n0 1\n# done\n")
        assert g.edges == frozenset({(0, 1)})

    def test_antiparallel_names_line(self):
        with pytest.raises(ParseError, match="line 3: antiparallel"):
            parse_edge_list("n 3\n0 1\n1 0")

    @pytest.mark.parametrize(
        "text, message",
        [
            ("n 3\n0 0\n1 x\n", "line 2: loop at vertex 0"),
            ("n 3\n0 1\n1 0\n0 1 2\n", "line 3: antiparallel pair between 0 and 1"),
        ],
    )
    def test_first_bad_line_is_named(self, text, message):
        with pytest.raises(ParseError) as raised:
            parse_edge_list(text)
        assert str(raised.value) == message

    def test_loop_names_line(self):
        with pytest.raises(ParseError, match="line 2: loop"):
            parse_edge_list("n 2\n0 0")

    def test_out_of_range(self):
        with pytest.raises(ParseError, match="out of range"):
            parse_edge_list("n 2\n0 2")

    def test_non_integer(self):
        with pytest.raises(ParseError, match="non-integer"):
            parse_edge_list("n 2\n0 x")

    def test_malformed_line(self):
        with pytest.raises(ParseError, match="expected"):
            parse_edge_list("n 2\n0 1 2")

    def test_missing_header(self):
        with pytest.raises(ParseError, match="header"):
            parse_edge_list("0 1\n")
        with pytest.raises(ParseError, match="header"):
            parse_edge_list("")

    def test_bad_vertex_count(self):
        with pytest.raises(ParseError, match="vertex count"):
            parse_edge_list("n x")
        with pytest.raises(ParseError, match="nonnegative"):
            parse_edge_list("n -1")

    def test_vertex_count_limit(self):
        assert parse_edge_list(f"n {MAX_VERTICES}\n").n == MAX_VERTICES
        with pytest.raises(ParseError, match="line 1: vertex count .* exceeds"):
            parse_edge_list(f"n {MAX_VERTICES + 1}\n")

    def test_serialize_exact(self):
        assert serialize_edge_list(PATH3) == "n 3\n0 1\n1 2\n"

    @given(strict_digraphs())
    def test_round_trip(self, g):
        assert parse_edge_list(serialize_edge_list(g)) == g

    @given(strict_digraphs(), st.randoms(use_true_random=False))
    def test_matches_construction(self, g, rng):
        lines = [f"{u} {v}" for u, v in g.edges]
        lines += rng.sample(lines, len(lines) // 2)
        rng.shuffle(lines)
        text = f"# edges\nn {g.n}\n\n" + "\n".join(lines) + "\n# end\n"
        parsed = parse_edge_list(text)
        assert parsed == StrictDigraph(g.n, frozenset(g.edges))
        assert isinstance(parsed.edges, frozenset)


def assert_parses_like_lines(text):
    """parse_edge_list returns what the line reader returns, or raises a
    ParseError with the same message."""
    try:
        expected = _parse_lines(text)
    except ParseError as exc:
        with pytest.raises(ParseError) as raised:
            parse_edge_list(text)
        assert str(raised.value) == str(exc)
    else:
        assert parse_edge_list(text) == expected


def canonical_lines(g, rng):
    """Edge lines of g, shuffled, some repeated: still canonical text."""
    lines = [f"{u} {v}" for u, v in g.edges]
    lines += rng.sample(lines, len(lines) // 3)
    rng.shuffle(lines)
    return lines


# each turns one edge line "u v" of a digraph on n vertices into a variant
# that is not canonical text
LINE_PERTURBATIONS = {
    "tab": lambda u, v, n: f"{u}\t{v}",
    "trailing space": lambda u, v, n: f"{u} {v} ",
    "leading zero": lambda u, v, n: f"0{u} {v}",
    "plus sign": lambda u, v, n: f"+{u} {v}",
    "arabic-indic digit": lambda u, v, n: f"{chr(0x660 + u)} {v}",
    "crlf": lambda u, v, n: f"{u} {v}\r",
    "blank line": lambda u, v, n: f"{u} {v}\n",
    "comment line": lambda u, v, n: f"# {u} {v}\n{u} {v}",
    "trailing comment": lambda u, v, n: f"{u} {v}  # {u}->{v}",
    "duplicate": lambda u, v, n: f"{u} {v}\n{u} {v}",
    "loop": lambda u, v, n: f"{u} {u}",
    "antiparallel pair": lambda u, v, n: f"{u} {v}\n{v} {u}",
    "id equal to n": lambda u, v, n: f"{u} {n}",
}
# the perturbations that leave a listing of the same digraph at every n
SAME_DIGRAPH = {
    "tab",
    "trailing space",
    "leading zero",
    "plus sign",
    "crlf",
    "blank line",
    "comment line",
    "trailing comment",
    "duplicate",
}


class TestBulkParse:
    """Canonical text is read in bulk; everything else by the line reader,
    which the bulk reader must agree with."""

    @given(strict_digraphs(), st.randoms(use_true_random=False))
    def test_canonical_text_is_read_in_bulk(self, g, rng):
        lines = canonical_lines(g, rng)
        text = f"n {g.n}\n" + "".join(f"{line}\n" for line in lines)
        expected = _parse_lines(text)
        with mock.patch(
            "strongext.digraph._parse_lines", wraps=_parse_lines
        ) as line_reader:
            assert parse_edge_list(text) == expected == g
        # the id table spans as many ids as there are endpoints, so only an
        # id beyond that sends canonical text to the line reader
        beyond = any(max(e) >= 2 * len(lines) for e in g.edges)
        assert line_reader.called == beyond

    @given(
        strict_digraphs(min_n=1).filter(lambda g: g.edges),
        st.sampled_from(sorted(LINE_PERTURBATIONS)),
        st.randoms(use_true_random=False),
    )
    def test_perturbed_text_matches_line_reader(self, g, kind, rng):
        lines = canonical_lines(g, rng)
        i = rng.randrange(len(lines))
        u, v = map(int, lines[i].split())
        lines[i] = LINE_PERTURBATIONS[kind](u, v, g.n)
        text = f"n {g.n}\n" + "".join(f"{line}\n" for line in lines)
        assert_parses_like_lines(text)
        if kind in SAME_DIGRAPH:
            assert parse_edge_list(text) == g

    @pytest.mark.parametrize(
        "text",
        [
            "n 3\n0 1\n1 2",
            "n 3\r\n0 1\r\n1 2\r\n",
            "n 3\n\n0 1\n",
            "# g\nn 3\n0 1\n",
            "n 3\n0 1\n# end\n",
            "n 3 # g\n0 1 # e\n",
            "n  3\n0 1\n",
            "n 3 \n0 1\n",
            "n 03\n0 1\n",
            "n 3\n0 1\n0 1\n",
            "n 3\n1 1\n",
            "n 3\n0 1\n2 0\n1 0\n",
            "n 3\n0 3\n",
            "n 3\n",
            "n 0\n",
            "n 0\n0 1\n",
            f"n {MAX_VERTICES}\n0 1\n",
            f"n {MAX_VERTICES + 1}\n",
            f"n {MAX_VERTICES + 1}\n0 1\n",
            "n 99999999\n0 1\n",
            "n 3\n" + "0" * 5000 + "1 2\n",
            "n 3\n\u0660 1\n",
            "n 3\n0 1\x0b1 2\n",
            "",
            "n\n",
            "0 1\n",
        ],
    )
    def test_edge_cases_match_line_reader(self, text):
        assert_parses_like_lines(text)

    def test_comments_after_header_and_edge(self):
        assert parse_edge_list("n 3 # g\n0 1 # e\n") == parse_edge_list("n 3\n0 1\n")

    @pytest.mark.parametrize(
        "text",
        [
            "n 4\n 1\n2 3\n",
            "n 4\n0 1\n2 \n",
            "n 4\n0 1\n \n",
            "n 5\n0 1\n2 3\n4",
            "n 5\n4",
            "n 5\n0 1\n2 3\n4 ",
            "n 3\n 1\n0",
            "n 3\n1 \n0",
            "n 3\n0  1\n",
            "n 3\n0\t1\n",
            "n 3\n0 1\r\n1 2\r\n",
            "n 3\n0 1\n\n1 2\n",
            "n 3\n\u0660 1\n",
            "n 3\n0 \u0662\n",
            "n 3\n01 2\n",
            "n 3\n0 1\n00 2\n",
            "n 3\n0 1 2\n",
            "n 3\n0 1\n2\n",
            "n 3",
            "n 3\n\n",
        ],
    )
    def test_screen_look_alikes_match_line_reader(self, text):
        # near-canonical text: the screen must pass it to the line reader
        with mock.patch(
            "strongext.digraph._parse_lines", wraps=_parse_lines
        ) as line_reader:
            assert_parses_like_lines(text)
        assert line_reader.called

    def test_large_header_builds_a_small_table(self):
        tracemalloc.start()
        try:
            g = parse_edge_list("n 1000000\n0 1\n")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert g == StrictDigraph(1_000_000, [(0, 1)])
        assert peak < 2 * 2**20


class TestStrongComponents:
    def test_cycle_single_component(self):
        cond = strong_components(CYCLE3)
        assert cond.components == ((0, 1, 2),)
        assert (cond.r, cond.s, cond.t, cond.c) == (1, 1, 1, 1)

    def test_path_singletons(self):
        cond = strong_components(PATH3)
        assert cond.components == ((0,), (1,), (2,))
        assert (cond.r, cond.s, cond.t) == (3, 1, 1)
        assert cond.source_components == frozenset({0})
        assert cond.sink_components == frozenset({2})

    def test_tt4_minus_path_counts(self):
        cond = strong_components(TT4_MINUS_PATH)
        assert cond.r == 4
        assert cond.s == 2
        assert cond.t == 2
        assert {tuple(cond.components[cid]) for cid in cond.source_components} == {
            (0,),
            (1,),
        }
        assert {tuple(cond.components[cid]) for cid in cond.sink_components} == {
            (2,),
            (3,),
        }

    def test_two_cycles_counts(self):
        cond = strong_components(TWO_CYCLES)
        assert (cond.r, cond.s, cond.t, cond.c, cond.c_prime, cond.u) == (
            2,
            2,
            2,
            2,
            0,
            2,
        )

    def test_determinism(self):
        assert strong_components(TT4_MINUS_PATH) == strong_components(
            TT4_MINUS_PATH
        )

    @given(strict_digraphs())
    def test_component_of_partitions(self, g):
        cond = strong_components(g)
        seen = sorted(v for comp in cond.components for v in comp)
        assert seen == list(range(g.n))
        for cid, comp in enumerate(cond.components):
            for v in comp:
                assert cond.component_of[v] == cid

    @given(strict_digraphs())
    def test_quotient_edges_point_forward(self, g):
        # topological id order means every quotient edge increases the id
        cond = strong_components(g)
        assert all(a < b for a, b in quotient_edges(cond))

    @given(strict_digraphs())
    def test_source_sink_degrees(self, g):
        cond = strong_components(g)
        heads = {b for _, b in quotient_edges(cond)}
        tails = {a for a, _ in quotient_edges(cond)}
        assert cond.source_components == frozenset(range(cond.r)) - heads
        assert cond.sink_components == frozenset(range(cond.r)) - tails

    @given(strict_digraphs())
    def test_proposition_identity(self, g):
        cond = strong_components(g)
        assert cond.s + cond.t - cond.c == cond.u - cond.c_prime

    @given(strict_digraphs())
    def test_reversal_swaps_sources_and_sinks(self, g):
        cond = strong_components(g)
        rev = strong_components(reverse(g))
        assert rev.r == cond.r
        assert rev.c == cond.c
        assert {tuple(rev.components[cid]) for cid in rev.source_components} == {
            tuple(cond.components[cid]) for cid in cond.sink_components
        }
        assert {tuple(rev.components[cid]) for cid in rev.sink_components} == {
            tuple(cond.components[cid]) for cid in cond.source_components
        }


def _random_with_cut(rng: Random, n: int, density: float, cut: bool) -> StrictDigraph:
    """Random strict digraph with each pair an edge with the given
    probability; with ``cut``, every edge between a random nonempty proper
    vertex subset and the rest leaves the subset, so the result is not
    strong (and at density 1 the subset is a complete dicut)."""
    side = set(rng.sample(range(n), rng.randint(1, n - 1))) if cut else set()
    edges = set()
    for u, v in itertools.combinations(range(n), 2):
        if rng.random() >= density:
            continue
        if (u in side) != (v in side):
            edges.add((u, v) if u in side else (v, u))
        else:
            edges.add((u, v) if rng.random() < 0.5 else (v, u))
    return StrictDigraph(n, frozenset(edges))


class TestScoreWitness:
    """``_score_strong``, the score chain's proof of strongness: sound on
    every digraph, exact on tournaments, and never claimed with n - 1 or
    more free pairs."""

    @given(st.one_of(strict_digraphs(), near_tournaments(max_n=9)))
    def test_implies_strong(self, g):
        if g._score_strong:
            assert oracle_is_strong(g)

    @given(tournaments(min_n=2, max_n=9))
    def test_exact_on_tournaments(self, t):
        assert t._score_strong == oracle_is_strong(t)

    @given(st.one_of(strict_digraphs(), near_tournaments(max_n=9), tournaments()))
    def test_never_with_many_free_pairs(self, g):
        free = g.n * (g.n - 1) // 2 - len(g._tails)
        if free >= g.n - 1:
            assert not g._score_strong
            # the chain agrees, so the shortcut skips no proof
            assert g.n < 2 or g._dicut_chain[2] <= free

    def test_sound_on_large_near_tournaments(self):
        rng = Random(17)
        proved = 0
        for n in (10, 30, 60, 100):
            for cut in (False, True):
                for _ in range(4):
                    edges = sorted(_random_with_cut(rng, n, 1.0, cut).edges)
                    dropped = rng.sample(edges, rng.randint(1, 5))
                    g = StrictDigraph(n, set(edges).difference(dropped))
                    if g._score_strong:
                        proved += 1
                        assert strong_components(g).r == 1
        assert proved > 0

    def test_strong_dense_input_is_not_condensed(self):
        text = serialize_edge_list(_random_with_cut(Random(5), 60, 1.0, False))
        g = parse_edge_list(text)
        assert g._score_strong
        assert extend(g).added == ()
        assert is_strong(g)
        fresh = parse_edge_list(text)
        assert is_strong(fresh)
        for h in (g, fresh):
            assert "_condensation" not in vars(h) and "_out_lists" not in vars(h)


class TestIsStrong:
    def test_examples(self):
        assert is_strong(CYCLE3)
        assert not is_strong(PATH3)
        assert not is_strong(TWO_CYCLES)

    def test_tiny_orders(self):
        assert is_strong(StrictDigraph(1, frozenset()))
        assert not is_strong(StrictDigraph(0, frozenset()))

    @pytest.mark.parametrize("g", [CYCLE3, PATH3, TWO_CYCLES])
    def test_reads_out_lists_only(self, g):
        fresh = parse_edge_list(serialize_edge_list(g))
        assert is_strong(fresh) == (g is CYCLE3)
        assert "_in_lists" not in vars(fresh)

    @given(strict_digraphs())
    def test_matches_reachability_oracle(self, g):
        assert is_strong(g) == oracle_is_strong(g)

    @given(strict_digraphs(min_n=1))
    def test_matches_condensation(self, g):
        assert is_strong(g) == (strong_components(g).r == 1)

    @pytest.mark.parametrize("cut", [False, True])
    def test_matches_condensation_sparse(self, cut):
        # about n ln n edges: near the threshold where random digraphs turn
        # strong, so both answers come up
        rng = Random(7)
        answers = set()
        for n in (2, 5, 20, 60, 156):
            for _ in range(5):
                g = _random_with_cut(rng, n, min(1.0, 2 * math.log(n) / n), cut)
                answers.add(is_strong(g))
                assert is_strong(g) == (strong_components(g).r == 1)
        assert answers == ({False} if cut else {False, True})

    @pytest.mark.parametrize("cut", [False, True])
    def test_matches_condensation_tournaments(self, cut):
        rng = Random(11)
        answers = set()
        for n in (3, 8, 30, 156):
            for _ in range(3):
                g = _random_with_cut(rng, n, 1.0, cut)
                assert len(g.edges) == n * (n - 1) // 2
                answers.add(is_strong(g))
                assert is_strong(g) == (strong_components(g).r == 1)
        assert answers == ({False} if cut else {False, True})


def assert_matches_oracle(g: StrictDigraph):
    cond, oracle = strong_components(g), oracle_strong_components(g)
    for field in cond._fields:
        assert getattr(cond, field) == getattr(oracle, field), field
    assert quotient_edges(cond) == quotient_edges(oracle)


class TestCondensationMatchesOracle:
    """The single-pass condensation against separate passes over the edges,
    field for field, numbering included."""

    @given(strict_digraphs(max_n=10))
    def test_random(self, g):
        assert_matches_oracle(g)

    @pytest.mark.parametrize("n", [0, 1])
    def test_tiny(self, n):
        assert_matches_oracle(StrictDigraph(n, frozenset()))

    def test_strong_tournament(self):
        rng = Random(3)
        g = _random_with_cut(rng, 156, 1.0, False)
        while not is_strong(g):
            g = _random_with_cut(rng, 156, 1.0, False)
        assert strong_components(g).r == 1
        assert_matches_oracle(g)

    def test_edgeless(self):
        g = StrictDigraph(2000, frozenset())
        assert strong_components(g).c == 2000
        assert_matches_oracle(g)

    def test_long_path_does_not_recurse(self):
        # 20 000 nested visits, far past the interpreter's recursion limit,
        # in Tarjan's DFS, whose forest also gives the weak components
        n = 20_000
        g = StrictDigraph(n, frozenset((v, v + 1) for v in range(n - 1)))
        cond = strong_components(g)
        assert (cond.r, cond.s, cond.t, cond.c) == (n, 1, 1, 1)
        assert_matches_oracle(g)

    def test_mixed_components(self):
        # strong blobs joined into a few weak components, relabelled
        rng = Random(5)
        for _ in range(20):
            n = rng.randint(10, 60)
            g = StrictDigraph(n, _relabelled_blobs(rng, n))
            assert_matches_oracle(g)

    def test_sparse_many_trees(self):
        # n/2 random edges: many DFS trees, many of them joined to earlier
        # ones, which small drawn digraphs rarely have
        rng = Random(11)
        for _ in range(30):
            n = rng.randint(50, 160)
            edges = set()
            while len(edges) < n // 2:
                u, v = rng.sample(range(n), 2)
                if (v, u) not in edges:
                    edges.add((u, v))
            g = StrictDigraph(n, frozenset(edges))
            assert 1 < strong_components(g).c < n
            assert_matches_oracle(g)

    def test_tree_joining_three_earlier_trees(self):
        # DFS trees by root: {0, 1}, {2}, {3, 4, 6} (a 3-cycle), {5}, {7}, {8}.
        # Tree {5} joins the first through 1, not in its root's component,
        # the second, and the third; tree {8} joins tree {7}
        edges = [(0, 1), (3, 4), (4, 6), (6, 3), (5, 1), (5, 2), (5, 4), (8, 7)]
        g = StrictDigraph(9, edges)
        cond = strong_components(g)
        assert (cond.r, cond.c) == (7, 2)
        assert weak_blocks(g) == ((0, 1, 2, 3, 4, 5, 6), (7, 8))
        assert_matches_oracle(g)


def _relabelled_blobs(rng: Random, n: int) -> frozenset:
    perm = list(range(n))
    rng.shuffle(perm)
    edges = set()
    start = 0
    while start < n:
        size = min(n - start, rng.randint(1, 6))
        block = perm[start : start + size]
        if size > 2:
            edges.update(zip(block, block[1:] + block[:1]))
        start += size
    for _ in range(n // 2):
        u, v = rng.sample(range(n), 2)
        if (v, u) not in edges and (u, v) not in edges:
            edges.add((u, v))
    return frozenset(edges)


def weak_blocks(g: StrictDigraph) -> tuple[tuple[int, ...], ...]:
    """Each weak component's sorted vertices, read off the condensation's
    weak groups."""
    cond = strong_components(g)
    return tuple(
        tuple(sorted(v for cid in group for v in cond.components[cid]))
        for group in cond.weak_groups
    )


class TestWeakComponents:
    """The condensation's weak components, against a plain graph search."""

    def test_two_cycles(self):
        assert weak_blocks(TWO_CYCLES) == ((0, 1, 2), (3, 4, 5))

    def test_path_single_block(self):
        assert weak_blocks(PATH3) == ((0, 1, 2),)

    def test_edgeless(self):
        g = StrictDigraph(3, frozenset())
        assert weak_blocks(g) == ((0,), (1,), (2,))

    @given(strict_digraphs())
    def test_blocks_partition_and_sorted(self, g):
        blocks = weak_blocks(g)
        assert blocks == weak_components(g)
        seen = sorted(v for block in blocks for v in block)
        assert seen == list(range(g.n))
        firsts = [block[0] for block in blocks]
        assert firsts == sorted(firsts)
