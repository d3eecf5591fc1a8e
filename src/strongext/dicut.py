"""Complete dicuts: the obstruction to extending a digraph to a strong one.

A dicut [X, X^c] is a vertex split with no edge from X^c into X.  It is
complete when every one of the |X| * |X^c| forward edges is present.  A
complete dicut can never be destroyed by adding edges to a strict digraph,
so its originating side X, held as the sorted tuple of its vertices,
certifies that no strong extension exists.

``find_complete_dicut`` decides by the score sequence d(v) = out(v) - in(v):
one pass over the edges and a sort of the n vertices, run once per digraph.
The same chain of prefix sums gives the smallest gap between k * (n - k)
and a prefix's d-sum, from which ``StrictDigraph._score_strong`` proves a
dense dicut-free digraph strong without condensing it.
``verify_complete_dicut`` checks a given side by counting the edges that
leave and enter it, independently of the detector.  ``verify_certificate``
reads and checks a certificate of either kind, a complete dicut or a list
of added edges that makes the digraph strong, as ``format_certificate``
and ``format_added_edges`` write them.  The references the detector is
tested against, a scan of every subset and a block-merging detector, are
in the test suite's ``tests/helpers.py``.
"""

from __future__ import annotations

from collections.abc import Iterable
from operator import sub

from .digraph import Edge, StrictDigraph, _content_lines, is_strong
from .errors import ParseError


def format_certificate(side: Iterable[int]) -> str:
    """The ``dicut:`` line of a side, as ``verify_certificate`` reads it."""
    inner = ", ".join(map(str, sorted(side)))
    return f"dicut: {{{inner}}}"


def format_added_edges(added: Iterable[Edge]) -> str:
    """The ``+ u v`` line of each added edge: the certificate that the
    edges make a digraph strong, as ``verify_certificate`` reads it."""
    return "".join(f"+ {u} {v}\n" for u, v in added)


def verify_complete_dicut(g: StrictDigraph, side: Iterable[int]) -> bool:
    """Whether side, any collection of vertices, is a nonempty proper subset
    X of g's vertices that no edge enters and |X| * |X^c| edges leave."""
    side = set(side)
    n = g.n
    if not 0 < len(side) < n or not all(0 <= v < n for v in side):
        return False
    inside = [False] * n
    for v in side:
        inside[v] = True
    # +1 for an edge leaving the side, -1 for one entering it, 0 otherwise
    crossing = list(
        map(sub, map(inside.__getitem__, g._tails), map(inside.__getitem__, g._heads))
    )
    if -1 in crossing:
        return False
    # edges are distinct, so |X| * |X^c| leaving edges are all the forward pairs
    return crossing.count(1) == len(side) * (n - len(side))


def verify_certificate(g: StrictDigraph, text: str) -> bool:
    """Whether certificate text of either kind holds for g.

    The first line with content decides the kind.  A ``dicut:`` line makes
    it a dicut certificate, that line alone, valid when its side is a
    complete dicut of g.  Otherwise it is a list of added edges, one
    ``+ u v`` line each, valid when each edge is new, to g and to the list,
    and together they make g strong; an empty list is valid exactly for a
    strong g.  Malformed text raises ParseError naming its line.
    """
    lines = list(_content_lines(text))
    if lines and lines[0][1].startswith("dicut:"):
        side = _dicut_side(*lines[0])
        if len(lines) > 1:
            raise ParseError(lines[1][0], "a dicut certificate is one 'dicut:' line")
        return verify_complete_dicut(g, side)
    added = [_added_edge(lineno, line) for lineno, line in lines]
    if len(set(added)) != len(added):
        return False
    try:
        return is_strong(g.with_edges(added))
    except ValueError:  # a loop, an edge out of range, or one g has or reverses
        return False


def _dicut_side(lineno: int, line: str) -> list[int]:
    """The side of a ``dicut: {v1, v2, ...}`` certificate line."""
    rest = line[len("dicut:"):].strip()
    if not (rest.startswith("{") and rest.endswith("}")):
        raise ParseError(lineno, "expected '{v1, v2, ...}' after 'dicut:'")
    inner = rest[1:-1].strip()
    try:
        return [int(token) for token in inner.split(",")] if inner else []
    except ValueError:
        raise ParseError(lineno, f"bad vertex list {inner!r}") from None


def _added_edge(lineno: int, line: str) -> Edge:
    """The edge of a ``+ u v`` certificate line."""
    tokens = line[1:].split()
    if not line.startswith("+") or len(tokens) != 2:
        raise ParseError(lineno, f"expected '+ <u> <v>', got {line!r}")
    try:
        return int(tokens[0]), int(tokens[1])
    except ValueError:
        raise ParseError(lineno, f"non-integer vertex in {line!r}") from None


def find_complete_dicut(g: StrictDigraph) -> tuple[int, ...] | None:
    """Complete-dicut detector by the score test, O(n + m + n log n).

    Let d(v) = out(v) - in(v).  For a vertex set X the edges inside X
    cancel, so sum(d over X) = |X -> X^c| - |X^c -> X| <= |X| * |X^c|, with
    equality exactly when [X, X^c] is a complete dicut (Landau's identity
    for tournaments).  A prefix of the vertices sorted by d, descending, has
    the largest d-sum of its size, so a complete dicut of size k exists iff
    the size-k prefix sums to k * (n - k), and then it is that prefix.
    Ties in d never straddle a complete dicut X: every vertex in X has
    d >= |X^c| - |X| + 1, more than any vertex outside, so any sort order
    is correct.  Complete dicuts form a chain, since two crossing ones would
    need an antiparallel pair; of these prefixes the one with the
    lexicographically smallest sorted vertex list is returned, as that
    sorted tuple, matching a scan of every subset in lexicographic order.
    """
    order, sizes, _ = g._dicut_chain
    return min((tuple(sorted(order[:k])) for k in sizes), default=None)
