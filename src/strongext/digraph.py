"""Strict digraphs and their strong/weak component structure.

A strict digraph is an orientation of a simple graph: no loops and at most
one edge per unordered vertex pair.  Vertices are dense indices 0..n-1.
"""

from __future__ import annotations

import re
from collections.abc import Iterable, Iterator
from functools import cached_property
from heapq import heapify, heappop, heappush
from itertools import accumulate, chain, compress, islice, repeat
from operator import add, floordiv, itemgetter, mod, not_
from typing import NamedTuple

from .errors import ParseError

Edge = tuple[int, int]

# Largest vertex count parse_edge_list accepts: per-vertex lists are built
# before any edge is read, so a header alone must not exhaust memory.
MAX_VERTICES = 1_000_000


class _Frozen:
    """Immutable value: assignment and deletion are refused, and two values
    of one class are equal, and hash alike, when the attributes named in its
    tuple ``_key`` are.  Constructors and ``cached_property`` write into the
    instance dict, past ``__setattr__``."""

    def __setattr__(self, name, value):
        raise AttributeError(
            f"cannot assign to {name!r}: {type(self).__name__} is immutable"
        )

    def __delattr__(self, name):
        raise AttributeError(
            f"cannot delete {name!r}: {type(self).__name__} is immutable"
        )

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._key)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._key)
        return f"{type(self).__name__}({fields})"


class StrictDigraph(_Frozen):
    """Immutable strict digraph; invalid edge sets are rejected on construction.

    The edge set is held as the frozenset of codes u * n + v, one per edge
    (u, v), with the edges' tails and heads as two parallel columns that
    readers share and must not modify.  The frozenset of (u, v) tuples,
    ``edges``, is built on first access, as are the neighbour lists, the
    condensation and the score chain: each once per digraph, shared, and
    left out of equality, hashing and repr.  Two digraphs are equal when
    they have the same n and the same edges.
    """

    _key = ("n", "_codes")

    def __init__(self, n: int, edges: Iterable[Edge] = frozenset()):
        if n < 0:
            raise ValueError("vertex count must be nonnegative")
        codes, tails, heads = _strict_columns(n, edges)
        vars(self).update(n=n, _codes=frozenset(codes), _tails=tails, _heads=heads)

    @classmethod
    def _trusted(
        cls, n: int, codes: frozenset[int], tails: list[int], heads: list[int]
    ) -> StrictDigraph:
        """Digraph from validated codes and their columns, one entry per
        edge; the caller hands the lists over and must not modify them."""
        result = object.__new__(cls)
        vars(result).update(n=n, _codes=codes, _tails=tails, _heads=heads)
        return result

    def __repr__(self):
        return f"StrictDigraph(n={self.n}, edges={self.sorted_edges()!r})"

    @cached_property
    def edges(self) -> frozenset[Edge]:
        """The edges as (u, v) tuples; built on first access."""
        return frozenset(zip(self._tails, self._heads))

    @cached_property
    def _out_lists(self) -> list[list[int]]:
        """Out-neighbours of each vertex, in no particular order; built on
        first use and shared by every later one, so callers must not modify
        them."""
        return _neighbour_lists(self.n, self._tails, self._heads)

    @cached_property
    def _in_lists(self) -> list[list[int]]:
        """In-neighbours of each vertex, as ``_out_lists`` has out-neighbours."""
        return _neighbour_lists(self.n, self._heads, self._tails)

    @cached_property
    def _condensation(self) -> Condensation:
        """The condensation ``strong_components`` returns, built once."""
        # the numbering below does not depend on the order Tarjan visits edges
        # in, so the adjacency lists need no sorting
        raw_of, raw_members, raw_succs = _tarjan_sccs(self.n, self._out_lists)
        k = len(raw_members)
        # in-degrees count every edge into a component, as the decrements do
        indeg = [0] * k
        for j in chain.from_iterable(raw_succs):
            indeg[j] += 1
        raw_sources = list(compress(range(k), map(not_, indeg)))
        # components are keyed by their smallest vertex, which is unique
        heap = [raw_members[i][0] for i in raw_sources]
        heapify(heap)
        order: list[int] = []
        while heap:
            i = raw_of[heappop(heap)]
            order.append(i)
            for j in raw_succs[i]:
                indeg[j] -= 1
                if not indeg[j]:
                    heappush(heap, raw_members[j][0])
        # the inverse of the permutation order
        renumber = sorted(range(k), key=order.__getitem__).__getitem__
        component_of = tuple(map(renumber, raw_of))
        components = tuple(map(raw_members.__getitem__, order))
        successors = tuple(
            frozenset(map(renumber, raw_succs[i])) if raw_succs[i] else _NO_SUCCESSORS
            for i in order
        )
        # weak components by one undirected search over the quotient; starting
        # from components in order of smallest vertex numbers them by smallest
        # member
        neighbours: list[list[int]] = [[*targets] for targets in successors]
        for a, targets in enumerate(successors):
            for b in targets:
                neighbours[b].append(a)
        weak_of = [-1] * k
        groups: list[tuple[int, ...]] = []
        firsts = sorted(map(itemgetter(0), components))
        for start in map(component_of.__getitem__, firsts):
            if not neighbours[start]:  # no quotient edge: a weak component of its own
                groups.append((start,))
                continue
            if weak_of[start] >= 0:
                continue
            weak_of[start] = len(groups)
            group = [start]
            for cid in group:  # grows while it is read: a breadth-first search
                for other in neighbours[cid]:
                    if weak_of[other] < 0:
                        weak_of[other] = weak_of[start]
                        group.append(other)
            group.sort()
            groups.append(tuple(group))
        return Condensation(
            component_of=component_of,
            components=components,
            successors=successors,
            source_components=frozenset(map(renumber, raw_sources)),
            sink_components=frozenset(compress(range(k), map(not_, successors))),
            weak_groups=tuple(groups),
        )

    @cached_property
    def _dicut_chain(self) -> tuple[list[int], list[int], int]:
        """The score test, run once: the vertices sorted by out-degree minus
        in-degree, descending; the sizes of the prefixes of that order that
        are complete dicuts, ascending; and the smallest gap k * (n - k)
        minus the score sum of the size-k prefix, over 0 < k < n, or 0 when
        n < 2.  Every complete dicut is such a prefix (see
        ``find_complete_dicut``), so they form a chain, and a prefix is one
        exactly when its gap is 0."""
        n = self.n
        score = [0] * n
        for u in self._tails:
            score[u] += 1
        for v in self._heads:
            score[v] -= 1
        order = sorted(range(n), key=score.__getitem__, reverse=True)
        totals = accumulate(map(score.__getitem__, order[:-1]))
        gaps = [k * (n - k) - total for k, total in enumerate(totals, start=1)]
        sizes = [k for k, gap in enumerate(gaps, start=1) if not gap]
        return order, sizes, min(gaps, default=0)

    @property
    def _score_strong(self) -> bool:
        """Whether the score chain proves the digraph strong, with no search.

        With f free (non-adjacent) pairs, a vertex set X of size k that no
        edge enters has d-sum k * (n - k) minus the free pairs across X, so
        the size-k prefix's gap is at most f.  A smallest gap above f thus
        rules out every such X.  On tournaments (f = 0) this is exact.  The
        first prefix's gap is at most n - 1, since the top score is at least
        0, so f >= n - 1 is answered False before any scoring.
        """
        free = self._free_pairs
        return free < self.n - 1 and self._dicut_chain[2] > free

    @property
    def _free_pairs(self) -> int:
        """Number of unordered non-adjacent (free) vertex pairs."""
        return self.n * (self.n - 1) // 2 - len(self._codes)

    def has_edge(self, u: int, v: int) -> bool:
        n = self.n
        return 0 <= u < n and 0 <= v < n and u * n + v in self._codes

    def sorted_edges(self) -> list[Edge]:
        return list(map(divmod, sorted(self._codes), repeat(self.n)))

    def with_edges(self, extra: Iterable[Edge]) -> StrictDigraph:
        """New digraph with the extra edges added; duplicates are rejected.

        Only the extra edges are validated, since the existing ones already
        were; an extra edge repeated in ``extra`` is added once.  With
        nothing to add, the digraph itself is returned.
        """
        codes, tails, heads = _strict_columns(self.n, extra, self._codes)
        if not tails:
            return self
        return StrictDigraph._trusted(
            self.n, self._codes.union(codes), self._tails + tails, self._heads + heads
        )

    def nonadjacent_pairs(self) -> list[Edge]:
        """Unordered non-adjacent pairs (u, v) with u < v, in sorted order."""
        n, codes = self.n, self._codes
        return [
            (u, v)
            for u in range(n)
            for v in range(u + 1, n)
            if u * n + v not in codes and v * n + u not in codes
        ]


def _strict_columns(
    n: int, edges: Iterable[Edge], present: frozenset[int] = frozenset()
) -> tuple[Iterable[int], list[int], list[int]]:
    """Codes u * n + v, tails and heads of the edges, each edge once, in
    order of first appearance: the one check that an edge set is strict.

    Raises ValueError on the first loop, out-of-range edge or antiparallel
    pair, the pair named by its earlier edge, and on an edge whose code is
    in ``present``, the codes of edges already in the digraph.
    """
    # the code of the first edge between two vertices, keyed by the code of
    # the pair's increasing orientation: one lookup finds either orientation
    first: dict[int, int] = {}
    tails: list[int] = []
    heads: list[int] = []
    for u, v in edges:
        if u == v:
            raise ValueError(f"loop at vertex {u}")
        # before any code is formed: at n = 3, (-1, 5) has the code of (0, 2)
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"edge ({u}, {v}) out of range for n={n}")
        code = u * n + v
        pair = code if u < v else v * n + u
        earlier = first.get(pair)
        if earlier is None:
            if present:
                if code in present:
                    raise ValueError(f"edge ({u}, {v}) already present")
                if v * n + u in present:
                    raise ValueError(f"antiparallel pair between {u} and {v}")
            first[pair] = code
            tails.append(u)
            heads.append(v)
        elif earlier != code:
            raise ValueError(f"antiparallel pair between {v} and {u}")
    return first.values(), tails, heads


def _split(n: int, codes: frozenset[int]) -> tuple[list[int], list[int]]:
    """Tail and head columns of the edges with these codes."""
    return list(map(floordiv, codes, repeat(n))), list(map(mod, codes, repeat(n)))


def _neighbour_lists(n: int, tails: list[int], heads: list[int]) -> list[list[int]]:
    """For each vertex u, the heads of the edges with tail u."""
    lists: list[list[int]] = [[] for _ in range(n)]
    for u, v in zip(tails, heads):
        lists[u].append(v)
    return lists


# Canonical edge-list text, as serialize_edge_list writes it: a header line
# "n N" (at most 7 digits, so converting it is cheap), then only "u v" lines,
# each ending in "\n".  parse_edge_list screens the body after the header
# in bulk: deleting its ASCII digits must leave exactly " \n" per line, the
# body must be empty or end in "\n", and it must split into two tokens per
# line, which rules out an empty token such as the first one of " 1\n".
_CANONICAL_HEADER = re.compile(r"n ([0-9]{1,7})\n", re.ASCII)


def parse_edge_list(text: str) -> StrictDigraph:
    """Parse the edge-list format: header ``n <N>``, then ``<u> <v>`` lines.

    Blank lines are skipped and lines starting with ``#`` are comments.
    Duplicate edges are deduplicated; loops, antiparallel pairs, and
    out-of-range indices raise a ParseError naming the offending line, and
    so does a vertex count above MAX_VERTICES.

    Canonical text is read in bulk: screened by one translate, split once,
    endpoints looked up in a table of vertex ids, and the edge set checked
    as a whole.  Anything else, including every invalid input, is read line
    by line, so errors and their line numbers do not depend on which path
    ran.
    """
    header = _CANONICAL_HEADER.match(text)
    if header is None:
        return _parse_lines(text)
    n = int(header[1])
    body = text[header.end():]
    lines = body.count("\n")
    if (
        n > MAX_VERTICES
        or (body and not body.endswith("\n"))
        or body.translate(str.maketrans("", "", "0123456789")) != " \n" * lines
    ):
        return _parse_lines(text)
    tokens = body.split()
    if len(tokens) != 2 * lines:
        return _parse_lines(text)
    # the table covers at most one id per endpoint token, so a large
    # header with few edges stays cheap; larger ids take the line path
    size = min(n, len(tokens))
    ids = {str(i): i for i in range(size)}
    try:
        tails = list(map(ids.__getitem__, islice(tokens, 0, None, 2)))
        heads = list(map(ids.__getitem__, islice(tokens, 1, None, 2)))
    except KeyError:
        return _parse_lines(text)
    del tokens
    # a table of u * n, indexed like ids; a list, so a lookup makes no int
    base = [u * n for u in range(size)]
    codes = frozenset(map(add, map(base.__getitem__, tails), heads))
    # a loop (v, v) is its own reverse, so this also rejects loops
    if not codes.isdisjoint(map(add, map(base.__getitem__, heads), tails)):
        return _parse_lines(text)
    if len(codes) < len(tails):  # repeated edges: one column entry per edge
        tails, heads = _split(n, codes)
    return StrictDigraph._trusted(n, codes, tails, heads)


def _parse_lines(text: str) -> StrictDigraph:
    """Line-by-line reader behind parse_edge_list; the only one that raises.

    Edge lines are fed to the strictness check as they are read, so an
    error names the first offending line.
    """
    lines = (
        (lineno, line)
        for lineno, raw in enumerate(text.splitlines(), start=1)
        if (line := raw.strip()) and not line.startswith("#")
    )
    lineno, line = next(lines, (1, None))
    if line is None:
        raise ParseError(lineno, "missing header 'n <N>'")
    tokens = line.split()
    if len(tokens) != 2 or tokens[0] != "n":
        raise ParseError(lineno, "expected header 'n <N>'")
    try:
        n = int(tokens[1])
    except ValueError:
        raise ParseError(lineno, f"bad vertex count {tokens[1]!r}") from None
    if n < 0:
        raise ParseError(lineno, "vertex count must be nonnegative")
    if n > MAX_VERTICES:
        raise ParseError(
            lineno, f"vertex count {n} exceeds the limit of {MAX_VERTICES}"
        )

    def edges() -> Iterator[Edge]:
        nonlocal lineno
        for lineno, line in lines:
            tokens = line.split()
            if len(tokens) != 2:
                raise ParseError(lineno, f"expected '<u> <v>', got {line!r}")
            try:
                edge = int(tokens[0]), int(tokens[1])
            except ValueError:
                raise ParseError(lineno, f"non-integer vertex in {line!r}") from None
            yield edge

    try:
        codes, tails, heads = _strict_columns(n, edges())
    except ValueError as exc:  # raised on the edge of the line read last
        raise ParseError(lineno, str(exc)) from None
    return StrictDigraph._trusted(n, frozenset(codes), tails, heads)


def serialize_edge_list(g: StrictDigraph) -> str:
    """Inverse of parse_edge_list; edges are emitted sorted lexicographically."""
    lines = [f"n {g.n}"]
    lines.extend(f"{u} {v}" for u, v in g.sorted_edges())
    return "\n".join(lines) + "\n"


class Condensation(NamedTuple):
    """Strong components plus the acyclic quotient and weak-component data.

    Component ids follow a deterministic topological order of the quotient:
    among the components whose predecessors all have ids, the one with the
    smallest contained vertex comes next.  Source components are therefore
    numbered in order of their smallest vertex, though a non-source
    component may come before a source one.  Weak component ids are ordered
    by smallest member.  Every quotient edge goes from a lower component id
    to a higher one.  ``successors[cid]`` holds the ids of the components
    that quotient edges from cid enter, and ``weak_groups[wid]`` the sorted
    ids of the strong components inside weak component wid; its vertices
    are those of these components, and are not listed separately.
    """

    component_of: tuple[int, ...]
    components: tuple[tuple[int, ...], ...]
    successors: tuple[frozenset[int], ...]
    source_components: frozenset[int]
    sink_components: frozenset[int]
    weak_groups: tuple[tuple[int, ...], ...]

    @property
    def r(self) -> int:
        """Number of strong components."""
        return len(self.components)

    @property
    def s(self) -> int:
        """Number of source components (no entering quotient edge)."""
        return len(self.source_components)

    @property
    def t(self) -> int:
        """Number of sink components (no leaving quotient edge)."""
        return len(self.sink_components)

    @property
    def c(self) -> int:
        """Number of weak components."""
        return len(self.weak_groups)

    @property
    def c_prime(self) -> int:
        """Number of weak components that are not strongly connected."""
        return sum(1 for group in self.weak_groups if len(group) > 1)

    @property
    def u(self) -> int:
        """Strong components that are a source or a sink, counted once."""
        return len(self.source_components | self.sink_components)


_NO_SUCCESSORS: frozenset[int] = frozenset()


def _tarjan_sccs(
    n: int, adj: list[list[int]]
) -> tuple[list[int], list[tuple[int, ...]], list[list[int]]]:
    """Iterative Tarjan strongly connected components, with their quotient.

    Components are numbered in the order Tarjan finishes them, so every
    quotient edge goes to a lower number.  Returns each vertex's component,
    each component's sorted vertices, and each component's successors,
    listed once per edge of the digraph into them.

    An edge to a vertex still on the stack stays inside a component; an
    edge to a finished vertex is a quotient edge, and its target's number is
    pushed on ``cross`` while the tail's component is open.  When a
    component closes, the entries above the mark taken at its root's entry
    are its successors.
    """
    index = [-1] * n
    low = [0] * n
    comp = [-1] * n  # set once a vertex's component is finished
    stack: list[int] = []
    cross: list[int] = []
    members: list[tuple[int, ...]] = []
    succs: list[list[int]] = []
    counter = 0
    for root in range(n):
        if index[root] >= 0:
            continue
        index[root] = low[root] = counter
        counter += 1
        if not adj[root]:  # a component by itself, with no successors
            comp[root] = len(members)
            members.append((root,))
            succs.append([])
            continue
        stack.append(root)
        # a frame: vertex, its unexamined neighbours, its stack position and
        # the length of cross on entry
        work = [(root, iter(adj[root]), 0, len(cross))]
        while work:
            v, neighbours, pos, mark = work[-1]
            low_v = low[v]
            for w in neighbours:
                index_w = index[w]
                if index_w < 0:
                    break
                comp_w = comp[w]
                if comp_w < 0:
                    if index_w < low_v:
                        low_v = index_w
                else:
                    cross.append(comp_w)
            else:
                work.pop()
                if low_v == index[v]:
                    cid = len(members)
                    if pos == len(stack) - 1:
                        stack.pop()
                        comp[v] = cid
                        members.append((v,))
                    else:
                        block = stack[pos:]
                        del stack[pos:]
                        for x in block:
                            comp[x] = cid
                        block.sort()
                        members.append(tuple(block))
                    succs.append(cross[mark:])
                    del cross[mark:]
                    if work:
                        cross.append(cid)
                else:
                    low[v] = low_v
                    if work:
                        parent = work[-1][0]
                        if low_v < low[parent]:
                            low[parent] = low_v
                continue
            low[v] = low_v
            index[w] = low[w] = counter
            counter += 1
            work.append((w, iter(adj[w]), len(stack), len(cross)))
            stack.append(w)
    return comp, members, succs


def strong_components(g: StrictDigraph) -> Condensation:
    """Condensation of g with deterministically numbered components.

    One Tarjan pass over the out-neighbour lists yields the components and
    the quotient; renumbering, sources, sinks and weak components then cost
    time in the number of components and quotient edges only.  It runs once
    per digraph: every call on g returns the same immutable object.
    """
    return g._condensation


def is_strong(g: StrictDigraph) -> bool:
    """True iff g has exactly one strong component; false on the empty graph.

    A dense g whose score chain proves it strong (``_score_strong``) needs
    no search; otherwise g's one condensation decides.
    """
    return g._score_strong or strong_components(g).r == 1
