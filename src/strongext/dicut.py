"""Complete dicuts: the obstruction to extending a digraph to a strong one.

A dicut [X, X^c] is a vertex split with no edge from X^c into X.  It is
complete when every one of the |X| * |X^c| forward edges is present.  A
complete dicut can never be destroyed by adding edges to a strict digraph,
so its originating side X certifies that no strong extension exists.

``find_complete_dicut`` decides by the score sequence d(v) = out(v) - in(v):
one pass over the edges and a sort of the n vertices, run once per digraph.
The same chain of prefix sums gives the smallest gap between k * (n - k)
and a prefix's d-sum, from which ``StrictDigraph._score_strong`` proves a
dense dicut-free digraph strong without condensing it.
``verify_complete_dicut`` checks a given side by counting the edges that
leave and enter it, independently of the detector.  The references the
detector is tested against, a scan of every subset and a block-merging
detector, are in the test suite's ``tests/helpers.py``.
"""

from __future__ import annotations

from collections.abc import Iterable
from operator import sub

from .digraph import StrictDigraph, _Frozen
from .errors import InvalidCertificateError


class DicutCertificate(_Frozen):
    """Originating side X of a complete dicut, immutable.

    Any iterable of vertices is accepted and held as the frozenset
    ``origin``.  Two certificates are equal when their sides are.
    """

    origin: frozenset[int]
    _key = ("origin",)

    def __init__(self, origin: Iterable[int]):
        vars(self)["origin"] = frozenset(origin)

    def sorted_vertices(self) -> tuple[int, ...]:
        return tuple(sorted(self.origin))


def format_certificate(cert: DicutCertificate) -> str:
    inner = ", ".join(str(v) for v in cert.sorted_vertices())
    return f"dicut: {{{inner}}}"


def parse_certificate(text: str) -> DicutCertificate:
    """Parse ``dicut: {v1, v2, ...}``."""
    body = text.strip()
    if not body.startswith("dicut:"):
        raise InvalidCertificateError("expected 'dicut: {...}'")
    rest = body[len("dicut:"):].strip()
    if not (rest.startswith("{") and rest.endswith("}")):
        raise InvalidCertificateError("expected '{v1, v2, ...}' after 'dicut:'")
    inner = rest[1:-1].strip()
    if not inner:
        return DicutCertificate(frozenset())
    try:
        vertices = frozenset(int(token.strip()) for token in inner.split(","))
    except ValueError:
        raise InvalidCertificateError(f"bad vertex list {inner!r}") from None
    return DicutCertificate(vertices)


def verify_complete_dicut(g: StrictDigraph, cert: DicutCertificate) -> bool:
    """Check the two complete-dicut conditions in one pass over the edges:
    no edge enters X, and |X| * |X^c| edges leave it."""
    side = cert.origin
    if not side:
        raise InvalidCertificateError("certificate side must be nonempty")
    if any(not 0 <= v < g.n for v in side):
        raise InvalidCertificateError("certificate names a vertex outside the graph")
    if len(side) == g.n:
        raise InvalidCertificateError("certificate side must be a proper subset")
    inside = [False] * g.n
    for v in side:
        inside[v] = True
    # +1 for an edge leaving the side, -1 for one entering it, 0 otherwise
    crossing = list(
        map(sub, map(inside.__getitem__, g._tails), map(inside.__getitem__, g._heads))
    )
    if -1 in crossing:
        return False
    # edges are distinct, so |X| * |X^c| leaving edges are all the forward pairs
    return crossing.count(1) == len(side) * (g.n - len(side))


def find_complete_dicut(g: StrictDigraph) -> DicutCertificate | None:
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
    lexicographically smallest sorted vertex list is returned, matching a
    scan of every subset in lexicographic order.
    """
    order, sizes, _ = g._dicut_chain
    side = min((sorted(order[:k]) for k in sizes), default=None)
    return None if side is None else DicutCertificate(side)
