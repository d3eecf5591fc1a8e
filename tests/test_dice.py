import math
from fractions import Fraction
from itertools import combinations
from random import Random

import pytest
from hypothesis import given

from strongext import (
    MAX_DICE,
    BudgetError,
    DiceSet,
    InvalidDiceError,
    ParseError,
    StrictDigraph,
    TooSmallError,
    beats_digraph,
    find_complete_dicut,
    format_certificate,
    is_balanced,
    is_strong,
    parse_dice,
    search_balanced_realization,
    serialize_dice,
    serialize_edge_list,
    strong_components,
    win_matrix,
)
from strongext.cli import LOSER_TO_WINNER, WINNER_TO_LOSER, _oriented, main
from strongext.dice import (
    SEARCH_BUDGET,
    _earlier_twins,
    _has_cyclic_completion,
    _over_budget,
)

from helpers import (
    all_strict_digraphs,
    all_tournaments,
    edge_set,
    inner_calls,
    isomorphism_class_representatives,
    oracle_has_cyclic_completion,
    oracle_search_balanced_realization,
    oracle_win_count,
    realizes,
    reverse,
    tournament_has_cycle,
    win_probability,
)
from strategies import dice_sets, strict_digraphs

ROCK_PAPER = DiceSet(((1, 5, 9), (3, 4, 8), (2, 6, 7)))
ORDERED = DiceSet(((1, 2, 3), (4, 5, 6), (7, 8, 9)))
CYCLE3 = StrictDigraph(3, [(0, 1), (1, 2), (2, 0)])
TT3 = StrictDigraph(3, [(0, 1), (0, 2), (1, 2)])


class TestDiceSet:
    def test_faces_are_sorted(self):
        d = DiceSet(((9, 1, 5), (8, 3, 4)))
        assert d.dice == ((1, 5, 9), (3, 4, 8))

    def test_count_and_sides(self):
        assert ROCK_PAPER.count == 3
        assert ROCK_PAPER.sides == 3

    def test_rejects_shared_face(self):
        with pytest.raises(InvalidDiceError):
            DiceSet(((1, 2), (2, 3)))

    def test_rejects_repeated_face_within_die(self):
        with pytest.raises(InvalidDiceError):
            DiceSet(((1, 1), (2, 3)))

    def test_rejects_ragged_sizes(self):
        with pytest.raises(InvalidDiceError):
            DiceSet(((1, 2), (3,)))

    def test_rejects_nonpositive_faces(self):
        with pytest.raises(InvalidDiceError):
            DiceSet(((0, 1), (2, 3)))

    def test_rejects_empty(self):
        with pytest.raises(InvalidDiceError):
            DiceSet(())
        with pytest.raises(InvalidDiceError):
            DiceSet(((), ()))

    def test_accepts_any_iterable(self):
        assert DiceSet(iter([[9, 1, 5], (8, 3, 4)])).dice == ((1, 5, 9), (3, 4, 8))

    @pytest.mark.parametrize(
        "dice, bad, message",
        [
            ((), 0, "need at least one die"),
            (((), (1,)), 0, "dice must have at least one face"),
            (((1, 2), ()), 1, "dice must have at least one face"),
            (((1, 2), (0, 3)), 1, "face values must be positive, got 0"),
            (((1, 2), (2, 3)), 1, "face 2 appears twice"),
            (((1, 2), (3, 4), (5, 1)), 2, "face 1 appears twice"),
            (((1, 1), (2, 3)), 0, "face 1 appears twice"),
            (((3, 4), (2, 1, 2)), 1, "die 1 has 3 faces, expected 2"),
            (((1, 2), (3,)), 1, "die 1 has 1 faces, expected 2"),
            (((1, 2, 3), (4, 5, 6), (7, 8)), 2, "die 2 has 2 faces, expected 3"),
        ],
    )
    def test_one_rule_for_every_entry(self, dice, bad, message):
        with pytest.raises(InvalidDiceError) as built:
            DiceSet(dice)
        assert str(built.value) == message
        if len(dice) == 2:
            with pytest.raises(InvalidDiceError) as compared:
                win_probability(*dice)
            assert str(compared.value) == message
        if all(dice):  # a die without faces has no line of its own
            # the comment and blank lines keep line numbers apart from die
            # numbers
            text = "# dice\n\n" + "".join(
                " ".join(map(str, die)) + "  # die\n" for die in dice
            )
            with pytest.raises(ParseError) as parsed:
                parse_dice(text)
            line = 1 if not dice else 3 + bad
            assert str(parsed.value) == f"line {line}: {message}"


class TestParse:
    def test_basic(self):
        assert parse_dice("1 5 9\n3 4 8\n2 6 7\n") == ROCK_PAPER

    def test_comments_and_blanks(self):
        assert parse_dice("# set\n1 5 9\n\n3 4 8\n2 6 7  # last\n") == ROCK_PAPER

    def test_duplicate_face_names_its_line(self):
        with pytest.raises(ParseError, match="^line 2: face 5 appears twice$"):
            parse_dice("1 5 9\n3 5 8\n")

    def test_non_integer(self):
        with pytest.raises(ParseError, match="line 2"):
            parse_dice("1 2\n3 x\n")

    def test_nonpositive(self):
        with pytest.raises(ParseError, match="positive"):
            parse_dice("0 1\n2 3\n")

    def test_ragged(self):
        message = "^line 2: die 1 has 3 faces, expected 2$"
        with pytest.raises(ParseError, match=message):
            parse_dice("1 2\n3 4 5\n")

    def test_empty(self):
        with pytest.raises(ParseError, match="^line 1: need at least one die$"):
            parse_dice("# nothing\n")

    def test_dice_count_limit(self):
        def one_face_dice(count: int) -> str:
            return "".join(f"{face}\n" for face in range(1, count + 1))

        assert parse_dice(one_face_dice(MAX_DICE)).count == MAX_DICE
        message = f"^line {MAX_DICE + 1}: dice count exceeds the limit of {MAX_DICE}$"
        with pytest.raises(ParseError, match=message):
            parse_dice(one_face_dice(MAX_DICE + 1))
        with pytest.raises(InvalidDiceError, match="limit"):
            DiceSet([face] for face in range(1, MAX_DICE + 2))

    def test_round_trip(self):
        assert parse_dice(serialize_dice(ROCK_PAPER)) == ROCK_PAPER

    def test_serialize_exact(self):
        assert serialize_dice(ROCK_PAPER) == "1 5 9\n3 4 8\n2 6 7\n"


class TestWinProbability:
    def test_known_pairs(self):
        assert win_probability((1, 5, 9), (3, 4, 8)) == Fraction(5, 9)
        assert win_probability((3, 4, 8), (2, 6, 7)) == Fraction(5, 9)
        assert win_probability((2, 6, 7), (1, 5, 9)) == Fraction(5, 9)

    def test_dominated(self):
        assert win_probability((1, 2, 3), (4, 5, 6)) == 0
        assert win_probability((4, 5, 6), (1, 2, 3)) == 1

    def test_single_face(self):
        assert win_probability((5,), (3,)) == 1

    def test_rejects_overlap(self):
        with pytest.raises(InvalidDiceError):
            win_probability((1, 2), (2, 3))

    def test_rejects_size_mismatch(self):
        with pytest.raises(InvalidDiceError):
            win_probability((1, 2), (3,))

    def test_rejects_empty(self):
        with pytest.raises(InvalidDiceError):
            win_probability((), ())

    @given(dice_sets(min_dice=2))
    def test_complementary(self, d):
        for i in range(d.count):
            for j in range(i + 1, d.count):
                p = win_probability(d.dice[i], d.dice[j])
                q = win_probability(d.dice[j], d.dice[i])
                assert 0 <= p <= 1
                assert p + q == 1


class TestWinMatrix:
    def test_counts(self):
        assert win_matrix(ROCK_PAPER) == ((0, 5, 4), (4, 0, 5), (5, 4, 0))

    @given(dice_sets(min_dice=2, max_sides=8))
    def test_counts_match_every_face_pair(self, d):
        m = win_matrix(d)
        for i in range(d.count):
            for j in range(d.count):
                if i != j:
                    a, b = d.dice[i], d.dice[j]
                    assert m[i][j] == oracle_win_count(a, b)
                    # win_probability takes its faces in any order
                    assert win_probability(a[::-1], b[::-1]) == Fraction(
                        oracle_win_count(a, b), d.sides * d.sides
                    )


class TestBeatsDigraph:
    def test_cycle(self):
        assert edge_set(beats_digraph(ROCK_PAPER)) == frozenset(
            {(0, 1), (1, 2), (2, 0)}
        )

    def test_transitive(self):
        assert edge_set(beats_digraph(ORDERED)) == frozenset(
            {(2, 1), (2, 0), (1, 0)}
        )

    def test_single_die(self):
        d = DiceSet(((1, 2),))
        assert beats_digraph(d) == StrictDigraph(1, frozenset())

    def test_direction_flip(self):
        # the command line's loser-to-winner digraph is the reverse
        beats = beats_digraph(ROCK_PAPER)
        assert _oriented(beats, WINNER_TO_LOSER) is beats
        assert _oriented(beats, LOSER_TO_WINNER) == reverse(beats)

    def test_dead_even_pair_has_no_edge(self):
        # {1,4} vs {2,3} wins exactly half the 4 face pairs
        d = DiceSet(((1, 4), (2, 3)))
        assert edge_set(beats_digraph(d)) == frozenset()

    @given(dice_sets())
    def test_tournament_for_odd_sides(self, d):
        g = beats_digraph(d)
        assert g.n == d.count
        if d.sides % 2 == 1:
            assert len(edge_set(g)) == d.count * (d.count - 1) // 2

    @given(dice_sets(min_dice=2))
    def test_direction_flip_is_reversal(self, d):
        # mirroring the faces turns every win into a loss, so the
        # loser-to-winner digraph is the winner-to-loser one of the mirror
        top = max(map(max, d.dice)) + 1
        mirror = DiceSet(tuple(tuple(top - f for f in die) for die in d.dice))
        assert _oriented(beats_digraph(d), LOSER_TO_WINNER) == beats_digraph(mirror)
        assert beats_digraph(mirror) == reverse(beats_digraph(d))


class TestIsBalanced:
    def test_rock_paper(self):
        assert is_balanced(ROCK_PAPER) == (True, Fraction(5, 9))

    def test_ordered_degenerate(self):
        assert is_balanced(ORDERED) == (True, Fraction(1))

    def test_transitive_but_balanced(self):
        d = DiceSet(((1, 2, 9), (3, 4, 8), (5, 6, 7)))
        assert is_balanced(d) == (True, Fraction(2, 3))

    def test_unbalanced(self):
        d = DiceSet(((1, 2, 6), (3, 4, 5), (7, 8, 9)))
        assert is_balanced(d) == (False, None)

    def test_dead_even(self):
        assert is_balanced(DiceSet(((1, 4), (2, 3)))) == (True, Fraction(1, 2))

    def test_rejects_single_die(self):
        with pytest.raises(InvalidDiceError):
            is_balanced(DiceSet(((1, 2),)))


class TestRealizes:
    def test_cycle(self):
        assert realizes(ROCK_PAPER, CYCLE3)

    def test_subgraph(self):
        single = StrictDigraph(3, [(0, 1)])
        assert realizes(ROCK_PAPER, single)
        assert realizes(ROCK_PAPER, StrictDigraph(3, frozenset()))

    def test_reversed_cycle(self):
        assert not realizes(ROCK_PAPER, reverse(CYCLE3))
        # the mirrored set, faces f -> 10 - f, is ROCK_PAPER with two dice
        # swapped, and wins each pair ROCK_PAPER loses
        assert realizes(DiceSet(((1, 5, 9), (2, 6, 7), (3, 4, 8))), reverse(CYCLE3))

    def test_rejects_size_mismatch(self):
        with pytest.raises(InvalidDiceError):
            realizes(ROCK_PAPER, StrictDigraph(4, frozenset()))


class TestOrderIsomorphism:
    @given(dice_sets(min_dice=2))
    def test_affine_map_invariance(self, d):
        mapped = DiceSet(tuple(tuple(2 * f + 7 for f in die) for die in d.dice))
        assert win_matrix(mapped) == win_matrix(d)
        assert beats_digraph(mapped) == beats_digraph(d)
        assert is_balanced(mapped) == is_balanced(d)


class TestTournamentCycleCheck:
    def test_matches_condensation_on_small_tournaments(self):
        # a tournament has a cycle iff some strong component has 2+ vertices
        for n in range(7):
            for t in all_tournaments(n):
                assert tournament_has_cycle(t) == (strong_components(t).r < t.n)


class TestCyclicCompletion:
    """The search's root cut: whether any tournament containing the target
    has a cycle, against trying every orientation of the free pairs."""

    def test_every_target_up_to_four_vertices(self):
        for n in range(5):
            for h in all_strict_digraphs(n):
                expected = oracle_has_cyclic_completion(h)
                assert _has_cyclic_completion(h) == expected, h
                # reversing a tournament keeps its cycles
                assert _has_cyclic_completion(reverse(h)) == expected, h

    @given(strict_digraphs(min_n=5, max_n=6))
    def test_five_and_six_vertices(self, h):
        expected = oracle_has_cyclic_completion(h)
        assert _has_cyclic_completion(h) == expected
        assert _has_cyclic_completion(reverse(h)) == expected

    def test_three_parts_of_two_leave_no_cycle(self):
        # complete dicuts {0, 1} and {0, 1, 2, 3}; each part is a free pair
        h = StrictDigraph(
            6, [(u, v) for u in range(6) for v in range(6) if u // 2 < v // 2]
        )
        assert not _has_cyclic_completion(h)
        for target in (h, reverse(h)):
            assert search_balanced_realization(target, 2) is None


class TestSearch:
    def test_search_space(self):
        # the budget counts complete deals, (nk)! / (k!)^n
        for n in range(3, 13):
            for k in range(1, 13):
                deals = math.factorial(n * k) // math.factorial(k) ** n
                assert _over_budget(n, k) == (deals > SEARCH_BUDGET), (n, k)

    def test_cycle_finds_reference_set(self):
        assert search_balanced_realization(CYCLE3, 3) == ROCK_PAPER

    def test_found_set_passes_checks(self):
        d = search_balanced_realization(CYCLE3, 3)
        balanced, p = is_balanced(d)
        assert balanced and p > Fraction(1, 2)
        assert realizes(d, CYCLE3)

    def test_transitive_target_fails(self):
        assert search_balanced_realization(TT3, 3) is None

    def test_single_edge_target(self):
        h = StrictDigraph(3, [(0, 1)])
        d = search_balanced_realization(h, 3)
        assert d is not None
        assert realizes(d, h)
        balanced, p = is_balanced(d)
        assert balanced and p > Fraction(1, 2)

    def test_loser_to_winner_direction(self):
        # loser-to-winner is the search on the reversed target
        d = search_balanced_realization(reverse(CYCLE3), 3)
        assert d is not None
        assert realizes(d, reverse(CYCLE3))

    def test_single_faces_cannot_cycle(self):
        assert search_balanced_realization(CYCLE3, 1) is None

    def test_deterministic(self):
        h = StrictDigraph(3, [(1, 2)])
        assert search_balanced_realization(
            h, 3
        ) == search_balanced_realization(h, 3)

    def test_rejects_small_targets(self):
        with pytest.raises(TooSmallError):
            search_balanced_realization(StrictDigraph(2, frozenset()), 3)

    def test_rejects_bad_sides(self):
        with pytest.raises(InvalidDiceError):
            search_balanced_realization(CYCLE3, 0)

    def test_budget(self):
        # the last two deal counts have millions to billions of digits, so
        # the check must not form them
        for n, k in ((4, 4), (200_000, 5), (3, 10**9)):
            with pytest.raises(BudgetError, match=f"{n} dice of {k} faces"):
                search_balanced_realization(StrictDigraph(n), k)
        # dice of one or two faces need no deal, so 2000! deals or more are
        # no reason to refuse
        for k in (1, 2):
            assert search_balanced_realization(StrictDigraph(2000), k) is None


class TestCommonWinBound:
    """The top of the deal's window: three dice beating each other in a
    cycle cannot all win at more than (√5 - 1)/2 (Steinhaus and Trybuła),
    so a cyclic balanced deal has P² + P·k² < k⁴."""

    @given(dice_sets(min_dice=3, max_dice=3, max_sides=6))
    def test_three_cyclic_wins_stay_below_the_bound(self, d):
        (a, b, c), k = d.dice, d.sides
        p = min(oracle_win_count(a, b), oracle_win_count(b, c), oracle_win_count(c, a))
        assert p * p + p * k * k < k**4

    @staticmethod
    def cyclic_balanced_ps(k: int) -> tuple[int, set[int]]:
        """Every deal of faces 1..3k onto 3 dice of k faces: the number of
        deals, and the common P of those balanced with a cyclic beats
        digraph."""
        faces = range(1, 3 * k + 1)
        deals, ps = 0, set()
        for first in combinations(faces, k):
            rest = [f for f in faces if f not in first]
            for second in combinations(rest, k):
                third = [f for f in rest if f not in second]
                d = DiceSet((first, second, third))
                deals += 1
                balanced, p = is_balanced(d)
                if balanced and tournament_has_cycle(beats_digraph(d)):
                    ps.add(int(p * k * k))
        return deals, ps

    def test_three_faces_above_the_bound_are_transitive(self):
        # 84 · 20 deals; the window at k = 3 is the one value P = 5
        deals, ps = self.cyclic_balanced_ps(3)
        assert deals == 1_680
        assert max(ps) == 5

    def test_four_faces_above_the_bound_are_transitive(self):
        # 495 · 70 deals; the window at k = 4 is the one value P = 9,
        # where k(k - 1) would allow 12
        deals, ps = self.cyclic_balanced_ps(4)
        assert deals == 34_650
        assert max(ps) == 9


class TestSearchWork:
    """Deal nodes on fixed targets.  Every cut of the deal leaves the first
    hits alone, so only the node count shows a weakened one: dropping the
    rival floor in narrow deals 4 070 and 620 nodes below, and dropping
    the twin cut 302 on the three-vertex classes at k = 4, where the
    window leaves the twins something to cut.  (Dropping the edge cut
    also moves first hits, at 1 591 nodes on the four-vertex classes.)
    A change to a cut re-pins the counts."""

    @staticmethod
    def deal_nodes(n: int, k: int) -> tuple[int, int, int]:
        classes = isomorphism_class_representatives(n)
        nodes, found = inner_calls(
            search_balanced_realization,
            "deal",
            lambda: [search_balanced_realization(h, k) for h in classes],
        )
        return len(classes), sum(d is not None for d in found), nodes

    def test_deal_nodes_on_four_vertex_classes(self):
        assert self.deal_nodes(4, 3) == (42, 37, 1_618)

    def test_deal_nodes_on_three_vertex_classes_four_faces(self):
        assert self.deal_nodes(3, 4) == (7, 4, 256)


class TestSearchMatchesOracle:
    """The pruned search against dealing every deal: the same first hit."""

    def test_every_three_vertex_target(self):
        for k in (1, 2, 3):
            for h in all_strict_digraphs(3):
                for target in (h, reverse(h)):
                    assert search_balanced_realization(
                        target, k
                    ) == oracle_search_balanced_realization(target, k)

    def test_four_vertex_classes_two_faces(self):
        for h in isomorphism_class_representatives(4):
            for target in (h, reverse(h)):
                assert search_balanced_realization(
                    target, 2
                ) == oracle_search_balanced_realization(target, 2)

    def test_three_vertex_classes_four_faces(self):
        for h in isomorphism_class_representatives(3):
            assert search_balanced_realization(
                h, 4
            ) == oracle_search_balanced_realization(h, 4)

    def test_four_cycle_three_faces(self):
        h = StrictDigraph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
        found = search_balanced_realization(h, 3)
        assert found is not None
        assert found == oracle_search_balanced_realization(h, 3)


def swap_fixes(h: StrictDigraph, i: int, j: int) -> bool:
    """Whether exchanging vertices i and j maps h's edges onto themselves."""
    swap = {i: j, j: i}
    return {(swap.get(u, u), swap.get(v, v)) for u, v in edge_set(h)} == edge_set(h)


class TestTwins:
    """The twin cut: dice that swap onto each other are filled in order."""

    def test_matches_swaps_on_three_and_four_vertices(self):
        for n in (3, 4):
            for h in all_strict_digraphs(n):
                expected = [
                    max((i for i in range(j) if swap_fixes(h, i, j)), default=-1)
                    for j in range(n)
                ]
                assert _earlier_twins(h) == expected, h.sorted_edges()

    def test_search_matches_oracle_on_relabelled_twins(self):
        # a seeded sample of the 79 labelled targets with a twin pair other
        # than (0, 1) and a cyclic completion, at k = 3 since k <= 2 never
        # deals; the oracle deals up to its first hit, about 1 s a check
        targets = [
            h
            for h in all_strict_digraphs(4)
            if any(i >= 0 and (i, j) != (0, 1) for j, i in enumerate(_earlier_twins(h)))
            and _has_cyclic_completion(h)
        ]
        assert len(targets) == 79
        for h in Random(4242).sample(targets, 2):
            for target in (h, reverse(h)):
                assert search_balanced_realization(
                    target, 3
                ) == oracle_search_balanced_realization(target, 3), h.sorted_edges()


# The first hit of plain enumeration at k = 3 for the first labelled member
# of every isomorphism class of 4-vertex targets, keyed by sorted edges:
# (winner-to-loser, loser-to-winner), None when no deal is accepted.
FIRST_HITS_FOUR_VERTICES_THREE_FACES = {
    (): ("1 5 12 / 2 8 10 / 3 6 11 / 4 7 9", "1 5 12 / 2 8 10 / 3 6 11 / 4 7 9"),
    ((2, 3),): ("1 7 11 / 2 5 12 / 3 8 10 / 4 6 9", "1 5 12 / 2 8 10 / 3 6 11 / 4 7 9"),
    ((1, 3), (2, 3)): (
        "1 8 11 / 2 6 12 / 3 7 10 / 4 5 9",
        "1 7 11 / 2 5 12 / 3 6 10 / 4 8 9",
    ),
    ((1, 3), (3, 2)): (
        "1 5 12 / 2 8 10 / 3 6 11 / 4 7 9",
        "1 7 11 / 2 5 12 / 3 8 10 / 4 6 9",
    ),
    ((3, 1), (3, 2)): (
        "1 7 11 / 2 5 12 / 3 6 10 / 4 8 9",
        "1 8 11 / 2 6 12 / 3 7 10 / 4 5 9",
    ),
    ((1, 2), (1, 3), (2, 3)): (
        "1 6 12 / 2 8 11 / 4 5 10 / 3 7 9",
        "1 7 11 / 2 5 12 / 3 6 10 / 4 8 9",
    ),
    ((1, 2), (2, 3), (3, 1)): (
        "1 5 12 / 2 7 11 / 4 6 10 / 3 8 9",
        "1 5 12 / 2 8 10 / 3 6 11 / 4 7 9",
    ),
    ((0, 3), (1, 3), (2, 3)): (
        "1 8 11 / 2 6 12 / 3 7 10 / 4 5 9",
        "1 7 11 / 2 5 12 / 3 6 10 / 4 8 9",
    ),
    ((0, 3), (1, 3), (3, 2)): (
        "1 7 11 / 2 8 10 / 3 5 12 / 4 6 9",
        "1 5 12 / 2 7 11 / 4 6 10 / 3 8 9",
    ),
    ((0, 3), (3, 1), (3, 2)): (
        "1 8 10 / 2 5 12 / 3 6 11 / 4 7 9",
        "1 6 12 / 2 8 10 / 4 5 11 / 3 7 9",
    ),
    ((0, 3), (1, 2)): (
        "1 8 10 / 2 6 12 / 3 5 11 / 4 7 9",
        "1 5 12 / 2 8 10 / 3 6 11 / 4 7 9",
    ),
    ((0, 3), (1, 2), (2, 3)): (
        "1 8 10 / 2 6 12 / 4 5 11 / 3 7 9",
        "1 5 12 / 2 8 10 / 3 6 11 / 4 7 9",
    ),
    ((0, 3), (1, 2), (1, 3)): (
        "1 8 10 / 2 7 12 / 3 5 11 / 4 6 9",
        "1 7 11 / 2 5 12 / 3 6 10 / 4 8 9",
    ),
    ((0, 3), (1, 2), (1, 3), (2, 3)): (
        "1 7 12 / 3 6 11 / 2 8 10 / 4 5 9",
        "1 7 11 / 2 5 12 / 3 6 10 / 4 8 9",
    ),
    ((0, 3), (1, 2), (1, 3), (3, 2)): (
        "1 8 10 / 2 7 12 / 3 5 11 / 4 6 9",
        "1 7 11 / 2 5 12 / 4 6 10 / 3 8 9",
    ),
    ((0, 3), (1, 2), (3, 1)): (
        "1 8 10 / 2 6 12 / 3 5 11 / 4 7 9",
        "1 5 12 / 2 8 10 / 3 6 11 / 4 7 9",
    ),
    ((0, 3), (1, 2), (2, 3), (3, 1)): (
        "1 8 10 / 2 6 12 / 4 5 11 / 3 7 9",
        "1 5 12 / 2 8 10 / 3 6 11 / 4 7 9",
    ),
    ((0, 3), (1, 2), (3, 1), (3, 2)): (
        "1 8 10 / 2 6 12 / 3 5 11 / 4 7 9",
        "1 6 12 / 2 8 10 / 4 5 11 / 3 7 9",
    ),
    ((3, 0), (3, 1), (3, 2)): (
        "1 7 11 / 2 5 12 / 3 6 10 / 4 8 9",
        "1 8 11 / 2 6 12 / 3 7 10 / 4 5 9",
    ),
    ((1, 2), (1, 3), (3, 0)): (
        "1 6 12 / 2 8 11 / 4 5 10 / 3 7 9",
        "1 8 10 / 2 5 12 / 3 6 11 / 4 7 9",
    ),
    ((1, 2), (1, 3), (2, 3), (3, 0)): (
        "1 6 12 / 2 8 11 / 4 5 10 / 3 7 9",
        "1 8 10 / 2 5 12 / 3 6 11 / 4 7 9",
    ),
    ((1, 2), (1, 3), (3, 0), (3, 2)): (
        "1 6 12 / 4 5 11 / 2 7 10 / 3 8 9",
        "1 7 11 / 2 5 12 / 3 8 10 / 4 6 9",
    ),
    ((1, 2), (2, 3), (3, 0), (3, 1)): (
        "1 5 12 / 2 7 11 / 4 6 10 / 3 8 9",
        "1 7 11 / 2 8 10 / 3 5 12 / 4 6 9",
    ),
    ((1, 2), (3, 0), (3, 1), (3, 2)): (
        "1 6 12 / 3 5 11 / 2 7 10 / 4 8 9",
        "1 8 11 / 2 6 12 / 3 7 10 / 4 5 9",
    ),
    ((0, 2), (0, 3), (1, 2), (1, 3)): (None, None),
    ((0, 2), (0, 3), (1, 2), (1, 3), (2, 3)): (None, None),
    ((0, 2), (0, 3), (1, 2), (3, 1)): (
        "1 8 11 / 2 6 12 / 3 5 10 / 4 7 9",
        "1 5 12 / 2 8 10 / 3 6 11 / 4 7 9",
    ),
    ((0, 2), (0, 3), (1, 2), (2, 3), (3, 1)): (
        "1 8 11 / 2 6 12 / 4 5 10 / 3 7 9",
        "1 5 12 / 2 8 10 / 3 6 11 / 4 7 9",
    ),
    ((0, 2), (0, 3), (1, 2), (3, 1), (3, 2)): (
        "1 8 11 / 2 6 12 / 3 5 10 / 4 7 9",
        "1 6 12 / 4 5 10 / 2 8 11 / 3 7 9",
    ),
    ((0, 2), (0, 3), (2, 1), (3, 1)): (
        "1 8 11 / 2 5 12 / 3 6 10 / 4 7 9",
        "1 6 12 / 4 5 11 / 2 7 10 / 3 8 9",
    ),
    ((0, 2), (0, 3), (2, 1), (2, 3), (3, 1)): (
        "1 8 11 / 2 5 12 / 3 7 10 / 4 6 9",
        "1 6 12 / 4 5 11 / 2 7 10 / 3 8 9",
    ),
    ((0, 2), (1, 2), (2, 3), (3, 0), (3, 1)): (
        "1 6 12 / 2 7 11 / 4 5 10 / 3 8 9",
        "1 7 11 / 2 8 10 / 3 5 12 / 4 6 9",
    ),
    ((0, 2), (1, 2), (3, 0), (3, 1), (3, 2)): (None, None),
    ((0, 2), (1, 3), (2, 1), (3, 0)): (
        "1 6 12 / 2 8 10 / 3 5 11 / 4 7 9",
        "1 8 10 / 2 6 12 / 3 5 11 / 4 7 9",
    ),
    ((0, 2), (1, 3), (2, 1), (2, 3), (3, 0)): (
        "1 6 12 / 2 8 10 / 4 5 11 / 3 7 9",
        "1 8 10 / 2 6 12 / 3 5 11 / 4 7 9",
    ),
    ((0, 2), (2, 1), (2, 3), (3, 0), (3, 1)): (
        "1 7 11 / 2 5 12 / 4 6 10 / 3 8 9",
        "1 8 10 / 2 7 12 / 3 5 11 / 4 6 9",
    ),
    ((0, 2), (2, 1), (3, 0), (3, 1), (3, 2)): (
        "1 7 11 / 2 5 12 / 3 6 10 / 4 8 9",
        "1 7 12 / 3 6 11 / 2 8 10 / 4 5 9",
    ),
    ((2, 0), (2, 1), (2, 3), (3, 0), (3, 1)): (None, None),
    ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)): (None, None),
    ((0, 1), (0, 2), (0, 3), (1, 2), (2, 3), (3, 1)): (
        "1 8 12 / 2 6 11 / 4 5 10 / 3 7 9",
        "1 5 12 / 2 8 10 / 3 6 11 / 4 7 9",
    ),
    ((0, 1), (0, 2), (1, 2), (1, 3), (2, 3), (3, 0)): (
        "1 7 12 / 3 6 11 / 4 5 10 / 2 8 9",
        "1 8 10 / 2 5 12 / 3 6 11 / 4 7 9",
    ),
    ((0, 1), (0, 2), (1, 2), (1, 3), (3, 0), (3, 2)): (
        "1 7 12 / 4 5 11 / 2 6 10 / 3 8 9",
        "1 7 11 / 2 5 12 / 3 8 10 / 4 6 9",
    ),
}


def _dice(text):
    if text is None:
        return None
    return DiceSet(tuple(tuple(map(int, die.split())) for die in text.split("/")))


class TestPinnedFirstHits:
    def test_four_vertex_classes_three_faces(self):
        classes = isomorphism_class_representatives(4)
        assert {tuple(h.sorted_edges()) for h in classes} == set(
            FIRST_HITS_FOUR_VERTICES_THREE_FACES
        )
        for h in classes:
            pinned = FIRST_HITS_FOUR_VERTICES_THREE_FACES[tuple(h.sorted_edges())]
            for target, text in zip((h, reverse(h)), pinned):
                assert search_balanced_realization(target, 3) == _dice(text)

    def test_loser_to_winner_through_the_command_line(self, capsys, tmp_path):
        # the second column, printed by dice realize; a failed search names
        # the complete dicut of the target as written, not of its reverse
        path = tmp_path / "target.txt"
        for h in isomorphism_class_representatives(4):
            d = _dice(FIRST_HITS_FOUR_VERTICES_THREE_FACES[tuple(h.sorted_edges())][1])
            path.write_text(serialize_edge_list(h))
            argv = ["dice", "realize", str(path), "-k", "3", "--direction", LOSER_TO_WINNER]
            code, out = main(argv), capsys.readouterr().out
            if d is not None:
                assert (code, out) == (0, f"{serialize_dice(d)}p: {is_balanced(d)[1]}\n")
            else:
                cert = find_complete_dicut(h)
                assert cert is not None, h.sorted_edges()
                assert (code, out) == (
                    1,
                    "no balanced realization with 3-sided dice\n"
                    f"{format_certificate(cert)}\n",
                )


class TestRealizationClaim:
    """What holds of realizability and complete dicuts.

    The search accepts a cyclic beats tournament, not only a strong one, so
    a target with a complete dicut can still be realized.
    """

    def test_dicut_target_realized_without_strong_beats(self):
        h = StrictDigraph(4, [(0, 3), (1, 3), (2, 3)])
        assert find_complete_dicut(h) == (0, 1, 2)
        d = search_balanced_realization(h, 3)
        assert d == DiceSet(((1, 8, 11), (2, 6, 12), (3, 7, 10), (4, 5, 9)))
        assert is_balanced(d) == (True, Fraction(5, 9))
        beats = beats_digraph(d)
        assert realizes(d, h)
        assert tournament_has_cycle(beats) and not is_strong(beats)

    def test_dicut_free_four_vertex_classes_realized(self):
        free = [
            h
            for h in isomorphism_class_representatives(4)
            if find_complete_dicut(h) is None
        ]
        assert free
        for h in free:
            assert any(
                search_balanced_realization(h, k) is not None for k in (1, 2, 3)
            )
