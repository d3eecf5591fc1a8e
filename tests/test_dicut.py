import itertools
from random import Random

import pytest
from hypothesis import given, settings

from strongext import (
    BudgetError,
    ParseError,
    StrictDigraph,
    find_complete_dicut,
    format_certificate,
    verify_certificate,
    verify_complete_dicut,
)

from helpers import (
    all_strict_digraphs,
    brute_force_complete_dicut,
    has_strong_completion,
    oracle_find_complete_dicut,
)
from strategies import strict_digraphs

PATH3 = StrictDigraph(3, [(0, 1), (1, 2)])
CYCLE3 = StrictDigraph(3, [(0, 1), (1, 2), (2, 0)])
TT3 = StrictDigraph(3, [(0, 1), (0, 2), (1, 2)])
OUT_STAR = StrictDigraph(3, [(0, 1), (0, 2)])
# oriented K_{2,2} with the pair {1, 3} left non-adjacent
K22_MINUS = StrictDigraph(4, [(0, 2), (0, 3), (1, 2)])


class TestVerify:
    def test_source_side_of_tournament(self):
        assert verify_complete_dicut(TT3, (0,))

    def test_missing_forward_edge(self):
        assert not verify_complete_dicut(PATH3, (0,))

    def test_back_edge(self):
        assert not verify_complete_dicut(PATH3, (1,))

    def test_empty_side_rejected(self):
        assert not verify_complete_dicut(TT3, ())

    def test_full_side_rejected(self):
        assert not verify_complete_dicut(TT3, (0, 1, 2))

    def test_out_of_range_rejected(self):
        assert not verify_complete_dicut(TT3, (7,))
        # -3 would index vertex 0, the side of TT3's complete dicut
        assert not verify_complete_dicut(TT3, (-3,))

    def test_side_is_any_vertex_collection(self):
        # a repeated vertex counts once, and order does not matter
        assert verify_complete_dicut(TT3, {1, 0})
        assert verify_complete_dicut(TT3, [1, 0, 1])
        assert verify_complete_dicut(TT3, iter([0]))


class TestVerifyCertificate:
    """Certificate text of either kind: the first content line decides."""

    @pytest.mark.parametrize(
        "g, text, valid",
        [
            (TT3, "dicut: {0}\n", True),
            (TT3, "# side\ndicut: {0}  # the source\n\n", True),
            (TT3, "dicut: {1}\n", False),
            (TT3, "dicut: {5}\n", False),
            (TT3, "dicut: {}\n", False),
            (PATH3, "+ 2 0\n", True),
            (PATH3, "+ 2 0  # back\n# done\n", True),
            (PATH3, "+ 0 2\n", False),
            (PATH3, "+ 5 0\n", False),
            (CYCLE3, "", True),
            (CYCLE3, "# nothing added\n", True),
            (PATH3, "", False),
        ],
    )
    def test_verdict(self, g, text, valid):
        assert verify_certificate(g, text) is valid

    def test_edge_listed_twice_is_invalid(self):
        assert not verify_certificate(PATH3, "+ 2 0\n+ 2 0\n")

    def test_edge_of_the_input_is_invalid(self):
        # 0 -> 1 is in PATH3, so the list does not add it, though with
        # 2 -> 0 the edges make a strong digraph
        assert not verify_certificate(PATH3, "+ 0 1\n+ 2 0\n")

    @pytest.mark.parametrize(
        "text, lineno",
        [
            ("dicut: 0\n", 1),
            ("# cut\ndicut: {x}\n", 2),
            ("dicut: {0}\ndicut: {1}\n", 2),
            ("dicut: {0}\n\n+ 1 0\n", 3),
            ("+ 2 0\ndicut: {0}\n", 2),
            ("+ 2\n", 1),
            ("+ 2 0\n+ a b\n", 2),
            ("what\n", 1),
        ],
    )
    def test_malformed_line_is_named(self, text, lineno):
        with pytest.raises(ParseError) as raised:
            verify_certificate(PATH3, text)
        assert raised.value.lineno == lineno
        assert str(raised.value).startswith(f"line {lineno}: ")


class TestCertificateFormat:
    def test_format(self):
        # an unordered side still prints in increasing order
        assert format_certificate({2, 0}) == "dicut: {0, 2}"
        assert format_certificate((5, 1, 3)) == "dicut: {1, 3, 5}"

    def test_parse(self):
        # spacing around the braces and the commas is free
        tt4 = StrictDigraph(
            4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
        )
        for text in ("dicut: {0, 1}", "dicut:{1,0}", "dicut:  { 0 ,1 }"):
            assert verify_certificate(tt4, text)

    def test_round_trip(self):
        assert verify_certificate(TT3, format_certificate(find_complete_dicut(TT3)))

    def test_parse_rejects_garbage(self):
        for text, message in [
            ("dicut: 0, 2", "expected '{v1, v2, ...}' after 'dicut:'"),
            ("dicut: {0", "expected '{v1, v2, ...}' after 'dicut:'"),
            ("dicut: {a}", "bad vertex list 'a'"),
            ("dicut: {0,, 1}", "bad vertex list '0,, 1'"),
            ("cut: {0}", "expected '+ <u> <v>', got 'cut: {0}'"),
        ]:
            with pytest.raises(ParseError) as raised:
                verify_certificate(TT3, text)
            assert str(raised.value) == f"line 1: {message}"


class TestFind:
    def test_transitive_tournament(self):
        assert find_complete_dicut(TT3) == (0,)

    def test_path_has_none(self):
        assert find_complete_dicut(PATH3) is None

    def test_k22_minus_pair_has_none(self):
        assert find_complete_dicut(K22_MINUS) is None

    def test_tiny_orders(self):
        assert find_complete_dicut(StrictDigraph(0, frozenset())) is None
        assert find_complete_dicut(StrictDigraph(1, frozenset())) is None
        single = StrictDigraph(2, [(0, 1)])
        assert find_complete_dicut(single) == (0,)

    def test_returns_lexicographically_smallest(self):
        # the transitive tournament on 4 has sides {0}, {0,1}, {0,1,2}
        tt4 = StrictDigraph(
            4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
        )
        assert find_complete_dicut(tt4) == (0,)


class TestBruteForce:
    def test_out_star(self):
        assert brute_force_complete_dicut(OUT_STAR) == (0,)

    def test_cycle_has_none(self):
        assert brute_force_complete_dicut(CYCLE3) is None

    def test_disjoint_cycles_have_none(self):
        g = StrictDigraph(
            6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)]
        )
        assert brute_force_complete_dicut(g) is None

    def test_budget(self):
        big = StrictDigraph(23, frozenset())
        with pytest.raises(BudgetError):
            brute_force_complete_dicut(big)


class TestDetectorAgreement:
    def test_exhaustive_small(self):
        for n in range(5):
            for g in all_strict_digraphs(n):
                assert find_complete_dicut(g) == brute_force_complete_dicut(g)

    @given(strict_digraphs(max_n=10))
    def test_random_agreement(self, g):
        assert find_complete_dicut(g) == brute_force_complete_dicut(g)

    @given(strict_digraphs(min_n=2, max_n=10))
    def test_found_certificates_verify(self, g):
        cert = find_complete_dicut(g)
        if cert is not None:
            assert verify_complete_dicut(g, cert)

    @settings(max_examples=60)
    @given(strict_digraphs(min_n=3, max_n=5))
    def test_dicut_blocks_every_completion(self, g):
        if find_complete_dicut(g) is not None:
            assert not has_strong_completion(g)


def relabel(rng: Random, n: int, edges) -> StrictDigraph:
    perm = list(range(n))
    rng.shuffle(perm)
    return StrictDigraph(n, frozenset((perm[u], perm[v]) for u, v in edges))


def layered(rng: Random, sizes: list[int], missing: float) -> StrictDigraph:
    """Every edge from an earlier layer to a later one, plus a regular
    tournament inside each odd-sized layer, so the vertices of a layer tie
    in out-degree minus in-degree.  Each pair is then left out with
    probability ``missing``; a pair left out between two layers destroys
    the complete dicuts that separate them.
    """
    layer_of = [i for i, size in enumerate(sizes) for _ in range(size)]
    edges = []
    for u, v in itertools.combinations(range(len(layer_of)), 2):
        if rng.random() < missing:
            continue
        lu, lv = layer_of[u], layer_of[v]
        if lu != lv:
            edges.append((u, v))
        elif v - u <= sizes[lu] // 2:
            edges.append((u, v))
        else:
            edges.append((v, u))
    return relabel(rng, len(layer_of), edges)


def detector_corpus() -> list[StrictDigraph]:
    """Seeded inputs with 23 to 200 vertices, above the brute-force budget.

    Relabelled transitive tournaments (a complete dicut of every size),
    tournaments and near-tournaments built from tied layers, with and
    without planted complete dicuts, sparse DAGs and edgeless graphs.
    """
    rng = Random(20261018)
    graphs = []
    for n in (23, 61, 200):
        graphs.append(relabel(rng, n, itertools.combinations(range(n), 2)))
        graphs.append(StrictDigraph(n, frozenset()))
        dag = [
            (u, v)
            for u, v in itertools.combinations(range(n), 2)
            if rng.random() < 3 / n
        ]
        graphs.append(relabel(rng, n, dag))
    for _ in range(30):
        n = rng.randint(23, 200)
        cuts = sorted(rng.sample(range(1, n), rng.randint(1, 5)))
        sizes = [b - a for a, b in zip([0] + cuts, cuts + [n])]
        missing = rng.choice([0.0, 0.0, 0.002, 0.01, 0.05])
        graphs.append(layered(rng, sizes, missing))
    return graphs


class TestOracleAgreement:
    """The score detector against the block-merging detector it replaced,
    certificate for certificate."""

    def test_exhaustive_small(self):
        for n in range(6):
            for g in all_strict_digraphs(n):
                assert find_complete_dicut(g) == oracle_find_complete_dicut(g)

    def test_seeded_corpus_above_brute_force_budget(self):
        corpus = detector_corpus()
        assert min(g.n for g in corpus) == 23
        assert max(g.n for g in corpus) == 200
        found = [find_complete_dicut(g) for g in corpus]
        assert sum(cert is not None for cert in found) >= 15
        assert sum(cert is None for cert in found) >= 10
        for g, cert in zip(corpus, found):
            assert cert == oracle_find_complete_dicut(g)
            if cert is not None:
                assert verify_complete_dicut(g, cert)
