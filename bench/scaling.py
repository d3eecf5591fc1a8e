"""Scaling probe: how single paths grow with input size.  Informational,
not gated, and not part of the timed workloads.

    python3 bench/scaling.py

Each point runs in a fresh process and is stopped at CAP_S; a stopped
point is recorded as over the cap rather than dropped, so the known hangs
stay visible without stalling the gated workloads.  Times are raw wall
seconds on the machine at hand; the median calibration sample taken at the
start (see calibration.py) is recorded beside them for context.  Results
go to ``.bench_work/scaling.json``.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
import time

import calibration
import corpus
import graphs

CAP_S = 30.0
POINT = """
import contextlib, io, sys, time
sys.path.insert(0, 'src')
import strongext.cli as cli
from strongext.digraph import parse_edge_list
from strongext.extend import brute_force_min_extension, extend
mode, path, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
with open(path) as fh:
    g = parse_edge_list(fh.read())
start = time.perf_counter()
rc = 0
if mode == 'extend':
    extend(g)
elif mode == 'brute':
    brute_force_min_extension(g)
else:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        rc = cli.main(argv)
print(time.perf_counter() - start, rc)
"""


def sparse_eight(beyond: int):
    """The first seeded sparse digraph on 8 vertices, connectable and inside
    the program's brute-force budget (at most 24 addable pairs, so at least 4
    edges), on which the reference search tests more than ``beyond``
    candidate sets: far above the search workload's band."""
    rnd = random.Random("scaling-sparse-8")
    while True:
        edges = corpus.oriented(rnd, 8, rnd.uniform(0.2, 0.35))
        if (len(edges) >= 4 and corpus.connectable(8, edges)
                and corpus.brute_force_nodes(8, edges, beyond) is None):
            return 8, edges


def points(rnd: random.Random):
    """(label, mode, graph, cli argv with {} for the file) for every point."""
    for n in (100, 200, 300, 400):
        yield f"topo dense DAG n={n}: extend", "extend", (n, corpus.dag(rnd, n, 0.5, False)), []
    for n in (500, 1000, 2000, 4000, 20000):
        yield f"edgeless n={n}: analyze --json", "cli", (n, set()), ["analyze", "{}", "--json"]
    for p, q in ((3, 3), (3, 4), (4, 4)):
        yield f"bipartite {p} {q}: brute force", "brute", corpus.bipartite(p, q), []
    for beyond in (200_000, 1_000_000):
        yield f"sparse n=8, >{beyond} ref. nodes: brute force", "brute", sparse_eight(beyond), []
    cycle4 = (4, {(0, 1), (1, 2), (2, 3), (3, 0)})
    yield "4-cycle: dice realize -k 3 (found)", "cli", cycle4, ["dice", "realize", "{}", "-k", "3"]
    tt4 = (4, {(i, j) for i in range(4) for j in range(i + 1, 4)})
    yield "TT4: dice realize -k 3 (exhausted)", "cli", tt4, ["dice", "realize", "{}", "-k", "3"]
    cycle5 = (5, {(i, (i + 1) % 5) for i in range(5)})
    yield "5-cycle: dice realize -k 3 (refused)", "cli", cycle5, ["dice", "realize", "{}", "-k", "3"]


def main() -> int:
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "strongext", "cli.py")):
        print("error: run from the repository root; src/strongext is missing", file=sys.stderr)
        return 2
    work = os.path.join(root, ".bench_work")
    os.makedirs(work, exist_ok=True)
    path = os.path.join(work, "scaling-input.txt")
    rows = []
    calibration_ms = calibration.speed(21) * 1000.0
    print(f"calibration sample: {calibration_ms:.3f} ms; cap {CAP_S:g} s per point")
    for label, mode, (n, edges), argv in points(random.Random("scaling")):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(graphs.serialize(n, edges))
        command = [sys.executable, "-c", POINT, mode, path] + [a.replace("{}", path) for a in argv]
        started = time.monotonic()
        try:
            done = subprocess.run(command, cwd=root, capture_output=True, text=True, timeout=CAP_S)
        except subprocess.TimeoutExpired:
            row = {"point": label, "seconds": None, "status": f"over the {CAP_S:g} s cap"}
        else:
            if done.returncode != 0:
                row = {"point": label, "seconds": None, "status": done.stderr.strip()[-200:]}
            else:
                seconds, rc = done.stdout.split()
                row = {"point": label, "seconds": float(seconds), "status": f"exit {rc}"}
        row["wall_s"] = time.monotonic() - started
        rows.append(row)
        shown = "-" if row["seconds"] is None else f"{row['seconds']:.3f} s"
        print(f"{label:<46} {shown:>12}  {row['status']}", flush=True)
    os.remove(path)
    with open(os.path.join(work, "scaling.json"), "w", encoding="utf-8") as fh:
        json.dump({"cap_s": CAP_S, "calibration_ms": calibration_ms, "points": rows}, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
