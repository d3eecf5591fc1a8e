"""Complete dicuts: the obstruction to extending a digraph to a strong one.

A dicut [X, X^c] is a vertex split with no edge from X^c into X.  It is
complete when every one of the |X| * |X^c| forward edges is present.  A
complete dicut can never be destroyed by adding edges to a strict digraph,
so its originating side X certifies that no strong extension exists.

``find_complete_dicut`` decides by the score sequence d(v) = out(v) - in(v):
one pass over the edges and a sort of the n vertices.
``brute_force_complete_dicut`` and ``dicut_deficiency`` scan every subset
and are references for small inputs; ``verify_complete_dicut`` checks a
given side edge by edge, independently of the detector.
"""

from __future__ import annotations

from dataclasses import dataclass

from .digraph import StrictDigraph
from .errors import BudgetError, InvalidCertificateError

SUBSET_BUDGET_VERTICES = 22


@dataclass(frozen=True)
class DicutCertificate:
    """Originating side X of a complete dicut."""

    origin: frozenset[int]

    def __post_init__(self):
        object.__setattr__(self, "origin", frozenset(self.origin))

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
    """Check the two complete-dicut conditions in O(|X| * |X^c|) edge lookups."""
    side = cert.origin
    if not side:
        raise InvalidCertificateError("certificate side must be nonempty")
    if any(not 0 <= v < g.n for v in side):
        raise InvalidCertificateError("certificate names a vertex outside the graph")
    if len(side) == g.n:
        raise InvalidCertificateError("certificate side must be a proper subset")
    rest = [v for v in range(g.n) if v not in side]
    for x in side:
        for y in rest:
            if (x, y) not in g.edges or (y, x) in g.edges:
                return False
    return True


def _out_masks(g: StrictDigraph) -> list[int]:
    out = [0] * g.n
    for u, v in g.edges:
        out[u] |= 1 << v
    return out


def _mask_vertices(mask: int):
    v = 0
    while mask:
        if mask & 1:
            yield v
        mask >>= 1
        v += 1


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


def brute_force_complete_dicut(g: StrictDigraph) -> DicutCertificate | None:
    """Reference oracle: first complete dicut in lexicographic subset order."""
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
            return DicutCertificate(frozenset(_mask_vertices(mask)))
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
    lexicographically smallest sorted vertex list is returned, matching the
    brute-force oracle.
    """
    n = g.n
    score = [0] * n
    for u, v in g.edges:
        score[u] += 1
        score[v] -= 1
    order = sorted(range(n), key=score.__getitem__, reverse=True)
    best: tuple[int, ...] | None = None
    total = 0
    for k in range(1, n):
        total += score[order[k - 1]]
        if total == k * (n - k):
            candidate = tuple(sorted(order[:k]))
            if best is None or candidate < best:
                best = candidate
    return None if best is None else DicutCertificate(frozenset(best))


def dicut_deficiency(g: StrictDigraph) -> tuple[int, frozenset[int]] | None:
    """Minimum missing-forward-edge count over all dicuts, with a witness.

    The witness is the first side (in lexicographic subset order) achieving
    the minimum.  Returns None when g has no dicut at all, i.e. g is strong.
    A deficiency of zero means a complete dicut exists.
    """
    _check_budget(g.n)
    if g.n <= 1:
        return None
    out = _out_masks(g)
    full = (1 << g.n) - 1
    best: int | None = None
    witness = 0
    for mask in _iter_subsets_lex(g.n):
        if mask == full:
            continue
        comp = full ^ mask
        back = False
        m = comp
        while m:
            b = m & -m
            if out[b.bit_length() - 1] & mask:
                back = True
                break
            m ^= b
        if back:
            continue
        forward = 0
        m = mask
        while m:
            b = m & -m
            forward += (out[b.bit_length() - 1] & comp).bit_count()
            m ^= b
        missing = mask.bit_count() * comp.bit_count() - forward
        if best is None or missing < best:
            best = missing
            witness = mask
            if best == 0:
                break
    if best is None:
        return None
    return best, frozenset(_mask_vertices(witness))
