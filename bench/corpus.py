"""Seeded corpus generator for the three gated workloads.

``generate(workload, seed, directory)`` writes the input files and a
``manifest.json`` listing the ops, one CLI invocation each.  The same seed
gives byte-identical files; another seed gives a corpus of the same shape
(same strata, op kinds and sizes) with different graphs.  The program only
ever sees the written files.
"""

from __future__ import annotations

import itertools
import json
import math
import os
import random

import graphs

WORKLOADS = ("construct", "decide", "search")

# search: the small random digraphs are those on which a reference exhaustive
# minimum search (brute_force_nodes) tests between these many candidate edge
# sets for strongness.  The band keeps every op well inside the per-op limit
# and the latency quantiles steady from seed to seed; inputs far above it are
# the scaling probe's business.
BRUTE_NODES_BAND = (1500, 2000)


class _Corpus:
    def __init__(self, directory: str):
        self.directory = directory
        self.ops: list[dict] = []
        self.files = 0

    def graph(self, n: int, edges) -> str:
        path = os.path.join(self.directory, f"g{self.files:03d}.txt")
        self.files += 1
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(graphs.serialize(n, edges))
        return path

    def op(self, stratum: str, kind: str, argv: list[str], **extra) -> int:
        op = {"id": len(self.ops), "stratum": stratum, "kind": kind, "argv": argv}
        op.update(extra)
        self.ops.append(op)
        return op["id"]


# ---------------------------------------------------------------- shapes


def dag(rnd: random.Random, n: int, p: float, shuffled: bool):
    labels = list(range(n))
    if shuffled:
        rnd.shuffle(labels)
    return {
        (labels[i], labels[j])
        for i in range(n)
        for j in range(i + 1, n)
        if rnd.random() < p
    }


def oriented(rnd: random.Random, n: int, p: float):
    """Each pair present with probability p, in a random direction."""
    edges = set()
    for i in range(n):
        for j in range(i + 1, n):
            if rnd.random() < p:
                edges.add((i, j) if rnd.random() < 0.5 else (j, i))
    return edges


def _tournament(rnd: random.Random, n: int):
    return oriented(rnd, n, 1.0)


def _tt_minus_path(r: int):
    return r, {(i, j) for i in range(r) for j in range(i + 2, r)}


def _cycles(k: int, m: int):
    return k * m, {(c * k + i, c * k + (i + 1) % k) for c in range(m) for i in range(k)}


def bipartite(p: int, q: int):
    return p + q + 1, {(i, p + j) for i in range(p) for j in range(q)}


def _relabel(rnd: random.Random, n: int, edges):
    perm = list(range(n))
    rnd.shuffle(perm)
    return {(perm[u], perm[v]) for u, v in edges}


def connectable(n: int, edges) -> bool:
    """Strongly connectable but not yet strong."""
    return graphs.score_dicut(n, edges) is None and not graphs.is_strong(n, edges)


def _sample(make, accept=connectable):
    """Draw graphs from ``make`` until one passes ``accept``."""
    while True:
        n, edges = make()
        if accept(n, edges):
            return n, edges


def _strong_bits(n: int, out: list[int], inn: list[int]) -> bool:
    full = (1 << n) - 1
    for adj in (out, inn):
        seen = frontier = 1
        while frontier:
            reach = 0
            while frontier:
                bit = frontier & -frontier
                reach |= adj[bit.bit_length() - 1]
                frontier ^= bit
            frontier = reach & ~seen
            seen |= reach
        if seen != full:
            return False
    return True


def brute_force_nodes(n: int, edges, cap: int) -> int | None:
    """Candidate sets a reference exhaustive search tests for strongness
    before it finds a minimum strong extension, or None beyond ``cap``.

    The reference search tries added-edge sets by increasing size, in
    lexicographic order over both orientations of every non-adjacent pair,
    and tests the sets that use each pair at most once.
    """
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)
             if (u, v) not in edges and (v, u) not in edges]
    candidates = sorted(e for u, v in pairs for e in ((u, v), (v, u)))
    st = graphs.structure(n, edges)
    upper = st["r"] if st["c"] > 1 and st["all_weak_strong"] else st["r"] - 1
    lower = max(st["s"], st["t"])
    tested = lambda size: math.comb(len(pairs), size) * 2 ** size  # noqa: E731
    if sum(tested(k) for k in range(1, lower)) > cap:
        return None
    out, inn = [0] * n, [0] * n
    for u, v in edges:
        out[u] |= 1 << v
        inn[v] |= 1 << u
    nodes = 0
    for size in range(1, upper + 1):
        for combo in itertools.combinations(candidates, size):
            if len({(min(e), max(e)) for e in combo}) < size:
                continue
            nodes += 1
            if nodes > cap:
                return None
            out2, inn2 = out[:], inn[:]
            for u, v in combo:
                out2[u] |= 1 << v
                inn2[v] |= 1 << u
            if _strong_bits(n, out2, inn2):
                return nodes
    return None


# ---------------------------------------------------------------- workloads


def _sparse_dag(rnd: random.Random, n: int):
    """Topologically labelled: each vertex hangs off a random earlier one,
    plus about n/2 further forward edges."""
    edges = {(rnd.randrange(v), v) for v in range(1, n)}
    while len(edges) < n - 1 + n // 2:
        u, v = sorted(rnd.sample(range(n), 2))
        edges.add((u, v))
    return edges


def _construct(rnd: random.Random, b: _Corpus):
    """``analyze --json`` on connectable inputs with n >= 11, so the brute
    force is skipped by its budget and the construction does the work.
    Sizes are fixed; the seed draws the random graphs.  Family members keep
    the labels ``gen`` gives them."""

    def add(stratum, n, edges):
        if n < 11:
            raise ValueError(f"{stratum} input with n={n} is inside the brute-force budget")
        b.op(stratum, "analyze", ["analyze", b.graph(n, edges), "--json"], json=True)

    for kind, sizes, make in (
        ("dense", range(28, 92, 4), lambda n: dag(rnd, n, 0.5, False)),
        ("sparse", range(50, 162, 7), lambda n: _sparse_dag(rnd, n)),
    ):
        for n in sizes:
            _, edges = _sample(lambda: (n, make(n)))
            add(f"topo-{kind}-dag", n, edges)
            # the same DAG with shuffled labels: few extension rounds
            add(f"shuffled-{kind}-dag", *_sample(lambda: (n, _relabel(rnd, n, edges))))
    for r in range(12, 44, 2):
        add("tt-minus-path", *_tt_minus_path(r))
    for k, m in itertools.product((3, 4, 5, 6), (4, 5, 7, 8)):
        add("cycles", *_cycles(k, m))
    for p, q in itertools.product((4, 6, 9, 12), (6, 8, 10, 12)):
        add("bipartite", *bipartite(p, q))
    for n in range(50, 162, 7):
        add("sparse-many-weak", *_sample(lambda: (n, oriented(rnd, n, 1.0 / n))))
    for n in range(40, 264, 14):
        add("edgeless", n, set())


def _plant_dicut(rnd: random.Random, n: int, edges):
    """Orient every pair across a random split, a third of the vertices on
    the chosen side, from that side out."""
    side = set(rnd.sample(range(n), n // 3))
    planted = {(u, v) for u, v in edges if (u in side) == (v in side)}
    planted |= {(x, y) for x in side for y in range(n) if y not in side}
    return side, planted


def _drop_pairs(rnd: random.Random, edges, count: int, keep=lambda e: False):
    removable = sorted(e for e in edges if not keep(e))
    return edges - set(rnd.sample(removable, count))


def _decide(rnd: random.Random, b: _Corpus):
    """``certify`` then ``certify --verify`` on the printed certificate, on
    dense inputs that are already strong or have a complete dicut."""

    def add(stratum, n, edges):
        path = b.graph(n, edges)
        cid = b.op(stratum, "certify", ["certify", path])
        cert = os.path.join(b.directory, f"c{cid:03d}.txt")
        b.op(stratum, "verify", ["certify", path, "--verify", cert], cert=cert, cert_of=cid)

    for n in range(60, 160, 12):
        add("tournament", *_sample(lambda: (n, _tournament(rnd, n)), graphs.is_strong))
    for n in range(60, 160, 12):
        add("tournament-dicut", n, _plant_dicut(rnd, n, _tournament(rnd, n))[1])
    for n in range(60, 160, 12):
        add(
            "near-tournament",
            *_sample(lambda: (n, _drop_pairs(rnd, _tournament(rnd, n), rnd.randint(1, 5))),
                     graphs.is_strong),
        )
    for n in range(60, 160, 12):
        side, edges = _plant_dicut(rnd, n, _tournament(rnd, n))
        crossing = lambda e: (e[0] in side) != (e[1] in side)  # noqa: E731
        add("near-tournament-dicut", n, _drop_pairs(rnd, edges, rnd.randint(1, 5), crossing))


def _search(rnd: random.Random, b: _Corpus):
    """Small inputs where the two exhaustive searches do the work:
    ``analyze`` inside the brute-force budget, and ``dice realize``."""
    low, high = BRUTE_NODES_BAND
    for n in (6, 7, 8) * 16:
        while True:
            edges = oriented(rnd, n, rnd.uniform(0.25, 0.6))
            if connectable(n, edges) and low <= (brute_force_nodes(n, edges, high) or 0):
                break
        b.op("small-random", "analyze", ["analyze", b.graph(n, edges)], json=False)
    # Family members keep their canonical labels: the search order, and so
    # its cost, depends on the labels.
    family = [_tt_minus_path(r) for r in (5, 6, 7, 8)]
    family += [bipartite(2, 2), bipartite(2, 3), bipartite(3, 3), _cycles(3, 2), _cycles(4, 2)]
    for n, edges in family:
        b.op("small-family", "analyze", ["analyze", b.graph(n, edges)], json=False)

    tables = {nk: graphs.realizable_targets(*nk) for nk in ((3, 2), (3, 3), (3, 4), (4, 2), (4, 3))}

    def realizable(n, edges, k):
        return any(edges <= t for t in tables[n, k])

    def realize(stratum, n, edges, k):
        path = b.graph(n, edges)
        b.op(stratum, "realize", ["dice", "realize", path, "-k", str(k)],
             k=k, realizable=realizable(n, edges, k))

    three = graphs.oriented_graph_classes(3)
    for k in (2, 3):
        for cls in three:
            realize(f"dice-3-k{k}", 3, _relabel(rnd, 3, cls), k)
    # k = 4 exhausts 34 650 deals per miss; one miss and two hits per pass.
    labelled = [_relabel(rnd, 3, cls) for cls in three]
    hits = [e for e in labelled if realizable(3, e, 4)]
    misses = [e for e in labelled if not realizable(3, e, 4)]
    for edges in rnd.sample(hits, 2) + rnd.sample(misses, 1):
        realize("dice-3-k4", 3, edges, 4)
    for cls in graphs.oriented_graph_classes(4):
        realize("dice-4-k2", 4, _relabel(rnd, 4, cls), 2)
    realize("dice-4-k3", 4, _relabel(rnd, 4, {(0, 1), (1, 2), (2, 3), (3, 0)}), 3)


_GENERATORS = {"construct": _construct, "decide": _decide, "search": _search}


def generate(workload: str, seed: int, directory: str) -> str:
    """Write the corpus for (workload, seed) into ``directory``; return the
    manifest path."""
    os.makedirs(directory, exist_ok=True)
    rnd = random.Random(f"{workload}:{seed}")
    b = _Corpus(directory)
    _GENERATORS[workload](rnd, b)
    manifest = os.path.join(directory, "manifest.json")
    with open(manifest, "w", encoding="utf-8") as fh:
        json.dump({"workload": workload, "seed": seed, "ops": b.ops}, fh, indent=1)
        fh.write("\n")
    return manifest
