"""Hypothesis strategies for strict digraphs and dice sets."""

from __future__ import annotations

from itertools import combinations

from hypothesis import strategies as st

from strongext import DiceSet, StrictDigraph


@st.composite
def strict_edge_sets(
    draw, min_n: int = 0, max_n: int = 8
) -> tuple[int, frozenset[tuple[int, int]]]:
    """A vertex count n and the (u, v) tuples of a strict digraph on it."""
    n = draw(st.integers(min_value=min_n, max_value=max_n))
    edges = set()
    for u, v in combinations(range(n), 2):
        state = draw(st.integers(min_value=0, max_value=2))
        if state == 1:
            edges.add((u, v))
        elif state == 2:
            edges.add((v, u))
    return n, frozenset(edges)


def strict_digraphs(min_n: int = 0, max_n: int = 8):
    return strict_edge_sets(min_n, max_n).map(lambda drawn: StrictDigraph(*drawn))


@st.composite
def tournaments(draw, min_n: int = 1, max_n: int = 8) -> StrictDigraph:
    n = draw(st.integers(min_value=min_n, max_value=max_n))
    edges = set()
    for u, v in combinations(range(n), 2):
        edges.add((u, v) if draw(st.booleans()) else (v, u))
    return StrictDigraph(n, frozenset(edges))


@st.composite
def near_tournaments(draw, min_n: int = 2, max_n: int = 8) -> StrictDigraph:
    """A tournament on at least 2 vertices with 1 to 5 of its edges dropped."""
    t = draw(tournaments(min_n, max_n))
    edges = t.sorted_edges()
    dropped = draw(st.sets(st.sampled_from(edges), min_size=1, max_size=5))
    return StrictDigraph(t.n, frozenset(edges) - dropped)


@st.composite
def dice_sets(draw, min_dice: int = 1, max_dice: int = 4, max_sides: int = 4) -> DiceSet:
    n = draw(st.integers(min_value=min_dice, max_value=max_dice))
    k = draw(st.integers(min_value=1, max_value=max_sides))
    faces = draw(st.permutations(range(1, n * k + 1)))
    return DiceSet(
        tuple(tuple(faces[i * k : (i + 1) * k]) for i in range(n))
    )
