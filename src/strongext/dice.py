"""Sets of dice, pairwise win probabilities, and realization search.

Probabilities are exact ``fractions.Fraction`` values throughout.  Two dice
with k faces each are compared by counting the c out of k * k face pairs won
by the first die; it beats the second when c > k * k / 2, strictly.
"""

from __future__ import annotations

from bisect import bisect_left
from collections.abc import Iterable, Iterator
from functools import cached_property
from math import isqrt
from typing import TYPE_CHECKING

from .digraph import StrictDigraph, _Frozen, _content_lines
from .errors import BudgetError, InvalidDiceError, ParseError, TooSmallError

if TYPE_CHECKING:
    from fractions import Fraction

SEARCH_BUDGET = 10_000_000

# Largest dice count a set may hold: the win matrix and the beats digraph
# grow with its square, and ``dice eval --json`` on 2 000 one-face dice
# peaks near 730 MB of RSS under CPython 3.11 on x86-64 (2 300 dice: about
# 1.1 GB).
MAX_DICE = 2_000


class DiceSet(_Frozen):
    """Dice with pairwise disjoint faces, each die the same number of sides.

    Faces are positive integers; each die's faces are stored sorted.  Any
    iterable of dice is accepted and read one die at a time.  The set is
    immutable.  The win matrix is computed once per set and left out of
    equality, hash and repr.
    """

    dice: tuple[tuple[int, ...], ...]
    _key = ("dice",)

    def __init__(self, dice: Iterable[Iterable[int]]):
        vars(self)["dice"] = _checked_dice(dice)

    @property
    def count(self) -> int:
        return len(self.dice)

    @property
    def sides(self) -> int:
        return len(self.dice[0])

    @cached_property
    def _win_matrix(self) -> tuple[tuple[int, ...], ...]:
        """The matrix ``win_matrix`` returns; cached_property writes it to
        the instance dict, past the refusing ``__setattr__``."""
        dice, count = self.dice, self.count
        return tuple(
            tuple(0 if i == j else _win_count(dice[i], dice[j]) for j in range(count))
            for i in range(count)
        )


def _checked_dice(dice: Iterable[Iterable[int]]) -> tuple[tuple[int, ...], ...]:
    """The dice, each die's faces sorted: the one check that dice are valid.

    Reads the dice one at a time and raises InvalidDiceError on the first
    die that is empty, has a side count unlike the first die's, has a face
    below 1 or one seen before, on it or an earlier die, or comes after
    MAX_DICE others; and on no dice.
    """
    checked: list[tuple[int, ...]] = []
    seen: set[int] = set()
    for i, faces in enumerate(dice):
        if i == MAX_DICE:
            raise InvalidDiceError(f"dice count exceeds the limit of {MAX_DICE}")
        die = tuple(sorted(faces))
        if not die:
            raise InvalidDiceError("dice must have at least one face")
        if checked and len(die) != len(checked[0]):
            raise InvalidDiceError(
                f"die {i} has {len(die)} faces, expected {len(checked[0])}"
            )
        if die[0] < 1:
            raise InvalidDiceError(f"face values must be positive, got {die[0]}")
        for face in die:
            if face in seen:
                raise InvalidDiceError(f"face {face} appears twice")
            seen.add(face)
        checked.append(die)
    if not checked:
        raise InvalidDiceError("need at least one die")
    return tuple(checked)


def parse_dice(text: str) -> DiceSet:
    """One die per line, faces as whitespace-separated positive integers.

    Blank lines are skipped and ``#`` starts a comment.  Dice are fed to the
    dice check as they are read, so an error names the first offending line.
    """
    lines = _content_lines(text)
    lineno = 1

    def dice() -> Iterator[list[int]]:
        nonlocal lineno
        for lineno, line in lines:
            faces = []
            for token in line.split():
                try:
                    faces.append(int(token))
                except ValueError:
                    raise ParseError(
                        lineno, f"expected an integer face, got {token!r}"
                    ) from None
            yield faces

    try:
        return DiceSet(dice())
    except InvalidDiceError as exc:  # raised on the die of the line read last
        raise ParseError(lineno, str(exc)) from None


def serialize_dice(d: DiceSet) -> str:
    return "".join(" ".join(str(f) for f in die) + "\n" for die in d.dice)


def _win_count(a: tuple[int, ...], b: tuple[int, ...]) -> int:
    """Face pairs won by ``a`` against ``b``, whose faces must be sorted."""
    return sum(bisect_left(b, x) for x in a)


def win_matrix(d: DiceSet) -> tuple[tuple[int, ...], ...]:
    """Pairwise win counts; entry (i, j) is how many of the d.sides ** 2
    face pairs die i wins against die j, and the diagonal is 0."""
    return d._win_matrix


def beats_digraph(d: DiceSet) -> StrictDigraph:
    """Digraph on die indices with an edge from each die to every die it
    beats.

    A pair is decided when one die wins more than half the face pairs, so
    the other wins fewer; a dead-even pair (possible for an even number of
    sides) contributes no edge.
    """
    total = d.sides * d.sides
    return StrictDigraph(
        d.count,
        [
            (i, j)
            for i, row in enumerate(win_matrix(d))
            for j, c in enumerate(row)
            if 2 * c > total
        ],
    )


def is_balanced(d: DiceSet) -> tuple[bool, Fraction | None]:
    """Whether every pair is decided at the same probability p > 1/2.

    Returns (True, p) for balanced sets and (False, None) otherwise.  A set
    where every pair is dead even is balanced with p = 1/2.
    """
    if d.count < 2:
        raise InvalidDiceError("balance needs at least two dice")
    counts, total = win_matrix(d), d.sides * d.sides
    tops = {
        max(counts[i][j], total - counts[i][j])
        for i in range(d.count)
        for j in range(i + 1, d.count)
    }
    if len(tops) != 1:
        return False, None
    # imported where a probability is made, so that a process loads
    # ``fractions`` only once it prints one
    from fractions import Fraction

    return True, Fraction(tops.pop(), total)


def _over_budget(n: int, k: int) -> bool:
    """Whether dealing faces 1..n*k into n dice of k faces each can be done
    in more than SEARCH_BUDGET ways.

    That count, (n*k)! / (k!)^n, is the product of C(i*k, k) for i = 2..n.
    It is built one factor (a + j) / j at a time, a = (i - 1) * k; each
    partial product is an integer, and each step at least doubles it, since
    a >= k >= j.  So the loop takes at most log2(SEARCH_BUDGET) + 1 steps
    and never forms the whole number.
    """
    deals = 1
    for i in range(2, n + 1):
        a = (i - 1) * k
        for j in range(1, k + 1):
            deals = deals * (a + j) // j
            if deals > SEARCH_BUDGET:
                return True
    return False


def _has_cyclic_completion(h: StrictDigraph) -> bool:
    """Whether some tournament on h's vertices containing h has a directed
    cycle: whether a part between consecutive complete dicuts of h has 3 or
    more vertices (the proof is in ``search_balanced_realization``)."""
    _, sizes, _ = h._dicut_chain
    bounds = [0, *sizes, h.n]
    return any(b - a >= 3 for a, b in zip(bounds, bounds[1:]))


def _earlier_twins(h: StrictDigraph) -> list[int]:
    """For each vertex, the nearest earlier vertex with the same out- and
    in-neighbours in h, or -1: the same signed row, 1 at out-neighbours, -1
    at in-neighbours, 0 elsewhere.  Twins u and v are never adjacent, as both
    rows are 0 at u and at v.  Called within the deal budget, so on n <= 4."""
    has_edge, vertices = h.has_edge, range(h.n)
    latest: dict[tuple[int, ...], int] = {}
    twin = []
    for v in vertices:
        key = tuple(has_edge(v, w) - has_edge(w, v) for w in vertices)
        twin.append(latest.get(key, -1))
        latest[key] = v
    return twin


def search_balanced_realization(h: StrictDigraph, k: int) -> DiceSet | None:
    """Search for a balanced non-transitive dice set realizing ``h``.

    Faces 1..n*k are dealt exhaustively; a deal is accepted when the set is
    balanced at some p > 1/2, its beats digraph contains every edge of
    ``h``, and the beats relation has a directed cycle.  Deals are
    enumerated by assigning values in increasing order to the lowest-index
    die with spare capacity, so the first hit is deterministic.  Returns
    None when no deal on these face counts works.

    Root cut.  An accepted deal's beats relation is a tournament containing
    ``h`` with a cycle, so None is returned without dealing, at any k, when
    no such tournament exists, and when the starting window below is empty,
    which is exactly k <= 2.  Only then is the deal budget checked:
    BudgetError when there are more than SEARCH_BUDGET complete deals.
    ``h``'s complete dicuts form a chain splitting the vertices into
    consecutive parts, every pair across two parts an edge of ``h``, so a
    tournament containing ``h`` has its cycles inside parts: parts of at
    most 2 vertices leave it transitive, while a part of 3 or more has no
    complete dicut, so by the theorem it extends to a strong digraph and
    completes to a strong tournament, which has a cycle.

    Window.  Faces arrive in increasing order, so a face v put on die i wins
    against every face already on die j and loses to every later one: the
    win count of i against j grows by |die j| and never shrinks.  Each of
    the k - |die i| faces still to come on die i beats every face now on die
    j and at most k faces of die j, so the final win count of i against j
    lies in [wins[i][j] + (k - |die i|)·|die j|, wins[i][j] + (k - |die i|)·k].
    A pair's P is the larger of its two final counts, so every completion's
    common P lies in the window [low, high] between the largest of the
    pairs' least P (and ⌊k²/2⌋ + 1) and the smallest of their greatest P
    (and T, the largest P with P² + P·k² < k⁴).  That last bound holds for
    every accepted deal.  Its beats tournament has a cycle, so it has a
    3-cycle: three dice each winning P of the k² face pairs against the
    next.  Three independent dice cannot all win at more than (√5 - 1)/2
    (Steinhaus and Trybuła, Bull. Acad. Polon. Sci. 7, 1959), and that
    bound is irrational, so P/k² < (√5 - 1)/2, which is (2P + k²)² < 5k⁴,
    or P² + P·k² < k⁴.  So T = ⌊(√5 - 1)k²/2⌋ = (⌊√5·k²⌋ - k²) // 2: 5, 9,
    15, 22, 30 at k = 3 to 7, below k(k - 1) at every k >= 3, and below
    ⌊k²/2⌋ + 1 at k <= 2.  The deal starts at [⌊k²/2⌋ + 1, T].  A
    face on die i changes only the n - 1 pairs through i, whose least P can
    only rise and greatest P only fall, so each deal narrows the window it
    was handed by those pairs alone and holds the window of all pairs.  A
    deal is abandoned once the window is empty or an edge ``h`` needs can no
    longer be won; no completion of it is accepted, so the order of the
    accepted deals, and the first hit, stay unchanged.

    Twins.  Dice i < j are twins when ``h`` has no edge between them and
    gives them the same out- and in-neighbours, so swapping them maps ``h``
    onto itself.  A face is never put on an empty die while an earlier twin
    of it is empty too.  The swap fixes that partial deal and maps the
    subtree below the face on the later twin onto the subtree below it on
    the earlier one.  It keeps balance, the cycle and the edges of ``h``,
    and so acceptance.  The earlier twin's subtree is searched first, and
    the cuts above drop no accepted deal, so the search passes it only when
    it holds no accepted deal, and then the skipped subtree holds none
    either; the first hit is unchanged.
    """
    if h.n < 3:
        raise TooSmallError(f"need at least 3 dice, got {h.n}")
    if k < 1:
        raise InvalidDiceError(f"dice must have at least one face, got {k}")
    # every pair must end at one common P in [total // 2 + 1, T] wins for
    # its winner, T the largest P with P² + P·total < total² (see Window);
    # that is empty exactly when k <= 2
    total = k * k
    low, high = total // 2 + 1, (isqrt(5 * total * total) - total) // 2
    if low > high or not _has_cyclic_completion(h):
        return None
    if _over_budget(h.n, k):
        raise BudgetError(
            f"dealing {h.n} dice of {k} faces has more than "
            f"{SEARCH_BUDGET} complete deals, the search budget"
        )
    n = h.n
    last = n * k
    # beaten[i] lists the dice that h needs die i to beat
    beaten = h._out_lists
    others = [[j for j in range(n) if j != i] for i in range(n)]
    twin = _earlier_twins(h)
    dice: list[list[int]] = [[] for _ in range(n)]
    sizes = [0] * n
    wins = [[0] * n for _ in range(n)]

    def narrow(i: int, low: int, high: int) -> tuple[int, int] | None:
        """The window after a face on die i, or None when the deal can no
        longer be completed."""
        row, have = wins[i], sizes[i]
        left = k - have
        top = left * k
        # the most die i can still win against j drops only when a face
        # goes on i, so only the edges out of i need a look
        for j in beaten[i]:
            if 2 * (row[j] + top) <= total:
                return None
        for j in others[i]:
            other = sizes[j]
            left_j = k - other
            x, y = row[j], wins[j][i]
            floor, rival = x + left * other, y + left_j * have
            if rival > floor:
                floor = rival
            ceiling, rival = x + top, y + left_j * k
            if rival > ceiling:
                ceiling = rival
            if floor > low:
                low = floor
            if ceiling < high:
                high = ceiling
            if low > high:
                return None
        return low, high

    def deal(value: int, low: int, high: int) -> bool:
        if value > last:
            # every pair is decided at one P > total / 2 and h's edges are
            # won; what is left is whether the beats tournament has a cycle,
            # which holds iff two dice win the same number of pairs (the
            # rule is proved, and checked against the condensation, as
            # tournament_has_cycle in tests/helpers.py)
            scores = {sum(2 * c > total for c in row) for row in wins}
            return len(scores) < n
        for i in range(n):
            have = sizes[i]
            if have == k:
                continue
            # empty twins fill in index order, so the nearest earlier twin
            # is empty whenever any earlier one is
            if not have and twin[i] >= 0 and not sizes[twin[i]]:
                continue
            row = wins[i]
            for j in others[i]:
                row[j] += sizes[j]
            sizes[i] = have + 1
            dice[i].append(value)
            window = narrow(i, low, high)
            if window is not None and deal(value + 1, *window):
                return True
            dice[i].pop()
            sizes[i] = have
            for j in others[i]:
                row[j] -= sizes[j]
        return False

    if deal(1, low, high):
        return DiceSet(tuple(tuple(die) for die in dice))
    return None
