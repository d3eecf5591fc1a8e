"""Strict digraphs and their strong/weak component structure.

A strict digraph is an orientation of a simple graph: no loops and at most
one edge per unordered vertex pair.  Vertices are dense indices 0..n-1.
"""

from __future__ import annotations

import heapq
import re
from dataclasses import dataclass
from itertools import islice

from .errors import ParseError

Edge = tuple[int, int]

# Largest vertex count parse_edge_list accepts: per-vertex lists are built
# before any edge is read, so a header alone must not exhaust memory.
MAX_VERTICES = 1_000_000


@dataclass(frozen=True)
class StrictDigraph:
    """Immutable strict digraph; invalid edge sets are rejected on construction."""

    n: int
    edges: frozenset[Edge] = frozenset()

    def __post_init__(self):
        object.__setattr__(self, "edges", frozenset(self.edges))
        if self.n < 0:
            raise ValueError("vertex count must be nonnegative")
        for u, v in self.edges:
            if u == v:
                raise ValueError(f"loop at vertex {u}")
            if not (0 <= u < self.n and 0 <= v < self.n):
                raise ValueError(f"edge ({u}, {v}) out of range for n={self.n}")
            if (v, u) in self.edges:
                raise ValueError(f"antiparallel pair between {u} and {v}")

    @classmethod
    def _trusted(cls, n: int, edges: frozenset[Edge]) -> StrictDigraph:
        """Digraph from edges the caller has already validated."""
        result = object.__new__(cls)
        object.__setattr__(result, "n", n)
        object.__setattr__(result, "edges", edges)
        return result

    def has_edge(self, u: int, v: int) -> bool:
        return (u, v) in self.edges

    def adjacent(self, u: int, v: int) -> bool:
        return (u, v) in self.edges or (v, u) in self.edges

    def sorted_edges(self) -> list[Edge]:
        return sorted(self.edges)

    def with_edges(self, extra) -> StrictDigraph:
        """New digraph with the extra edges added; duplicates are rejected.

        Only the extra edges are validated, since the existing ones already
        were; an extra edge repeated in ``extra`` is added once.
        """
        extra = list(extra)
        added = set(extra)
        for u, v in extra:
            if u == v:
                raise ValueError(f"loop at vertex {u}")
            if not (0 <= u < self.n and 0 <= v < self.n):
                raise ValueError(f"edge ({u}, {v}) out of range for n={self.n}")
            if (u, v) in self.edges:
                raise ValueError(f"edge ({u}, {v}) already present")
            if (v, u) in self.edges or (v, u) in added:
                raise ValueError(f"antiparallel pair between {u} and {v}")
        return StrictDigraph._trusted(self.n, self.edges | added)

    def reverse(self) -> StrictDigraph:
        return StrictDigraph(self.n, frozenset((v, u) for u, v in self.edges))

    def nonadjacent_pairs(self) -> list[Edge]:
        """Unordered non-adjacent pairs (u, v) with u < v, in sorted order."""
        return [
            (u, v)
            for u in range(self.n)
            for v in range(u + 1, self.n)
            if not self.adjacent(u, v)
        ]


# Canonical edge-list text, as serialize_edge_list writes it: a header line
# "n N" (at most 7 digits, so converting it is cheap), then only "u v" lines,
# each ending in "\n".  _NOT_EDGE_LINE, searched from the header's newline,
# finds the first line that is not a bare edge line.  A lookahead scan keeps
# no backtracking marks, unlike matching the whole body as a repeated group.
_CANONICAL_HEADER = re.compile(r"n ([0-9]{1,7})\n", re.ASCII)
_NOT_EDGE_LINE = re.compile(r"\n(?![0-9]+ [0-9]+\n|\Z)", re.ASCII)


def parse_edge_list(text: str) -> StrictDigraph:
    """Parse the edge-list format: header ``n <N>``, then ``<u> <v>`` lines.

    Blank lines are skipped and lines starting with ``#`` are comments.
    Duplicate edges are deduplicated; loops, antiparallel pairs, and
    out-of-range indices raise a ParseError naming the offending line, and
    so does a vertex count above MAX_VERTICES.

    Canonical text is read in bulk: split once, endpoints looked up in a
    table of vertex ids, and the edge set checked as a whole.  Anything
    else, including every invalid input, is read line by line, so errors
    and their line numbers do not depend on which path ran.
    """
    header = _CANONICAL_HEADER.match(text)
    if header is None or _NOT_EDGE_LINE.search(text, header.end() - 1):
        return _parse_lines(text)
    n = int(header[1])
    if n > MAX_VERTICES:
        return _parse_lines(text)
    tokens = text.split()
    # the table covers at most one id per endpoint token, so a large
    # header with few edges stays cheap; larger ids take the line path
    size = min(n, len(tokens) - 2)
    ids = {str(i): i for i in range(size)}
    try:
        ends = list(map(ids.__getitem__, islice(tokens, 2, None)))
    except KeyError:
        return _parse_lines(text)
    del tokens
    tails, heads = ends[0::2], ends[1::2]
    edges = frozenset(zip(tails, heads))
    # a loop (v, v) is its own reverse, so this also rejects loops
    if not edges.isdisjoint(zip(heads, tails)):
        return _parse_lines(text)
    return StrictDigraph._trusted(n, edges)


def _parse_lines(text: str) -> StrictDigraph:
    """Line-by-line reader behind parse_edge_list; the only one that raises.

    Each line is checked as it is read, so the result is built without
    checking the edges again.
    """
    n = None
    edges: set[Edge] = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        tokens = line.split()
        if n is None:
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
            continue
        if len(tokens) != 2:
            raise ParseError(lineno, f"expected '<u> <v>', got {line!r}")
        try:
            u, v = int(tokens[0]), int(tokens[1])
        except ValueError:
            raise ParseError(lineno, f"non-integer vertex in {line!r}") from None
        if u == v:
            raise ParseError(lineno, f"loop at vertex {u}")
        if not (0 <= u < n and 0 <= v < n):
            raise ParseError(lineno, f"vertex index out of range in edge {u} {v}")
        if (v, u) in edges:
            raise ParseError(lineno, f"antiparallel pair between {u} and {v}")
        edges.add((u, v))
    if n is None:
        raise ParseError(1, "missing header 'n <N>'")
    return StrictDigraph._trusted(n, frozenset(edges))


def serialize_edge_list(g: StrictDigraph) -> str:
    """Inverse of parse_edge_list; edges are emitted sorted lexicographically."""
    lines = [f"n {g.n}"]
    lines.extend(f"{u} {v}" for u, v in g.sorted_edges())
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class Condensation:
    """Strong components plus the acyclic quotient and weak-component data.

    Component ids follow a deterministic topological order of the quotient:
    among the components whose predecessors all have ids, the one with the
    smallest contained vertex comes next.  Source components are therefore
    numbered in order of their smallest vertex, though a non-source
    component may come before a source one.  Weak component ids are ordered
    by smallest member.  Every quotient edge goes from a lower component id
    to a higher one.  ``weak_groups[wid]`` holds the sorted ids of the
    strong components inside weak component wid.
    """

    component_of: tuple[int, ...]
    components: tuple[tuple[int, ...], ...]
    quotient_edges: frozenset[Edge]
    source_components: frozenset[int]
    sink_components: frozenset[int]
    weak_components: tuple[tuple[int, ...], ...]
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
        return len(self.weak_components)

    @property
    def c_prime(self) -> int:
        """Number of weak components that are not strongly connected."""
        return sum(1 for group in self.weak_groups if len(group) > 1)

    @property
    def u(self) -> int:
        """Strong components that are a source or a sink, counted once."""
        return len(self.source_components | self.sink_components)


def _tarjan_sccs(n: int, adj: list[list[int]]) -> list[list[int]]:
    """Iterative Tarjan strongly connected components."""
    index = [-1] * n
    low = [0] * n
    on_stack = [False] * n
    stack: list[int] = []
    sccs: list[list[int]] = []
    counter = 0
    for root in range(n):
        if index[root] != -1:
            continue
        work = [(root, 0)]
        while work:
            v, pi = work[-1]
            if pi == 0:
                index[v] = low[v] = counter
                counter += 1
                stack.append(v)
                on_stack[v] = True
            descended = False
            for i in range(pi, len(adj[v])):
                w = adj[v][i]
                if index[w] == -1:
                    work[-1] = (v, i + 1)
                    work.append((w, 0))
                    descended = True
                    break
                if on_stack[w]:
                    low[v] = min(low[v], index[w])
            if descended:
                continue
            if low[v] == index[v]:
                comp = []
                while True:
                    w = stack.pop()
                    on_stack[w] = False
                    comp.append(w)
                    if w == v:
                        break
                sccs.append(comp)
            work.pop()
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[v])
    return sccs


def _union_find_roots(k: int, pairs) -> list[int]:
    """Root of each of k items after joining every pair; a root is the
    smallest item of its class."""
    parent = list(range(k))

    def find(a: int) -> int:
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for a, b in pairs:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)
    return [find(a) for a in range(k)]


def strong_components(g: StrictDigraph) -> Condensation:
    """Condensation of g with deterministically numbered components."""
    # the numbering below does not depend on the order Tarjan visits edges
    # in, so the adjacency lists need no sorting
    adj: list[list[int]] = [[] for _ in range(g.n)]
    for u, v in g.edges:
        adj[u].append(v)
    raw = _tarjan_sccs(g.n, adj)
    raw_of = [0] * g.n
    for i, comp in enumerate(raw):
        for v in comp:
            raw_of[v] = i
    k = len(raw)
    succ: list[set[int]] = [set() for _ in range(k)]
    for u, v in g.edges:
        a, b = raw_of[u], raw_of[v]
        if a != b:
            succ[a].add(b)
    indeg = [0] * k
    for targets in succ:
        for b in targets:
            indeg[b] += 1
    # components are keyed by their smallest vertex, which is unique
    heap = [min(raw[i]) for i in range(k) if indeg[i] == 0]
    heapq.heapify(heap)
    order: list[int] = []
    while heap:
        i = raw_of[heapq.heappop(heap)]
        order.append(i)
        for j in succ[i]:
            indeg[j] -= 1
            if indeg[j] == 0:
                heapq.heappush(heap, min(raw[j]))
    new_id = [0] * k
    for pos, i in enumerate(order):
        new_id[i] = pos
    components = tuple(tuple(sorted(raw[i])) for i in order)
    component_of = tuple(new_id[raw_of[v]] for v in range(g.n))
    quotient = frozenset(
        (new_id[a], new_id[b]) for a in range(k) for b in succ[a]
    )
    has_in = {b for _, b in quotient}
    has_out = {a for a, _ in quotient}
    # weak components join strong ones along quotient edges; numbering them
    # in vertex order orders them by smallest member
    roots = _union_find_roots(k, quotient)
    wid_of_root: dict[int, int] = {}
    blocks: list[list[int]] = []
    for v in range(g.n):
        root = roots[component_of[v]]
        if root not in wid_of_root:
            wid_of_root[root] = len(blocks)
            blocks.append([])
        blocks[wid_of_root[root]].append(v)
    groups: list[list[int]] = [[] for _ in blocks]
    for cid in range(k):
        groups[wid_of_root[roots[cid]]].append(cid)
    return Condensation(
        component_of=component_of,
        components=components,
        quotient_edges=quotient,
        source_components=frozenset(i for i in range(k) if i not in has_in),
        sink_components=frozenset(i for i in range(k) if i not in has_out),
        weak_components=tuple(tuple(block) for block in blocks),
        weak_groups=tuple(tuple(group) for group in groups),
    )


def is_strong(g: StrictDigraph) -> bool:
    """True iff g has exactly one strong component; false on the empty graph."""
    if g.n == 0:
        return False
    if g.n == 1:
        return True
    # reachability does not depend on neighbour order, so the lists are
    # built in one unsorted pass
    out: list[list[int]] = [[] for _ in range(g.n)]
    into: list[list[int]] = [[] for _ in range(g.n)]
    for u, v in g.edges:
        out[u].append(v)
        into[v].append(u)
    return _reaches_all(g.n, out, 0) and _reaches_all(g.n, into, 0)


def _reaches_all(n: int, adj: list[list[int]], start: int) -> bool:
    seen = [False] * n
    seen[start] = True
    count = 1
    stack = [start]
    while stack:
        v = stack.pop()
        for w in adj[v]:
            if not seen[w]:
                seen[w] = True
                count += 1
                stack.append(w)
    return count == n
