"""The benchmark's own tests: corpus determinism, independent checks that
catch tampered outputs, and repeatable traced runs.

    python3 -m unittest discover -s bench -p 'test_*.py'
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import os
import signal
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import checks  # noqa: E402
import corpus  # noqa: E402
import graphs  # noqa: E402
import run as bench_run  # noqa: E402
import worker  # noqa: E402
import strongext.cli  # noqa: E402,F401


def _corpus_hashes(workload: str, seed: int) -> dict[str, str]:
    with tempfile.TemporaryDirectory() as tmp:
        corpus.generate(workload, seed, tmp)
        hashes = {}
        for name in sorted(os.listdir(tmp)):
            with open(os.path.join(tmp, name), "rb") as fh:
                data = fh.read().replace(tmp.encode(), b"<dir>")
            hashes[name] = hashlib.sha256(data).hexdigest()
        return hashes


def _shape(workload: str, seed: int) -> list[tuple]:
    with tempfile.TemporaryDirectory() as tmp:
        with open(corpus.generate(workload, seed, tmp)) as fh:
            ops = json.load(fh)["ops"]
        shape = []
        for op in ops:
            with open(op["argv"][2 if op["kind"] == "realize" else 1]) as fh:
                n, _ = graphs.parse(fh.read())
            shape.append((op["stratum"], op["kind"], n, op.get("k")))
        return shape


def _run_cli(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        rc = sys.modules["strongext.cli"].main(argv)
    return rc, out.getvalue()


class CorpusTest(unittest.TestCase):
    def test_same_seed_gives_identical_files(self):
        for workload in corpus.WORKLOADS:
            with self.subTest(workload=workload):
                self.assertEqual(_corpus_hashes(workload, 7), _corpus_hashes(workload, 7))

    def test_other_seed_gives_other_files_of_the_same_shape(self):
        for workload in corpus.WORKLOADS:
            with self.subTest(workload=workload):
                first, second = _corpus_hashes(workload, 7), _corpus_hashes(workload, 8)
                self.assertEqual(first.keys(), second.keys())
                self.assertNotEqual(first, second)
                self.assertEqual(_shape(workload, 7), _shape(workload, 8))


class OracleTest(unittest.TestCase):
    def _all_digraphs(self, n):
        pairs = list(itertools.combinations(range(n), 2))
        for states in itertools.product(range(3), repeat=len(pairs)):
            yield {(a, b) if s == 1 else (b, a) for (a, b), s in zip(pairs, states) if s}

    def test_score_dicut_matches_subset_enumeration(self):
        for n in (2, 3, 4):
            for edges in self._all_digraphs(n):
                subsets = (
                    side for k in range(1, n) for side in itertools.combinations(range(n), k)
                )
                expected = any(graphs.is_complete_dicut(n, edges, s) for s in subsets)
                side = graphs.score_dicut(n, edges)
                self.assertEqual(side is not None, expected, edges)
                if side is not None:
                    self.assertTrue(graphs.is_complete_dicut(n, edges, side))

    def test_three_dice_realizable_exactly_when_dicut_free(self):
        table = graphs.realizable_targets(3, 3)
        for edges in self._all_digraphs(3):
            realizable = any(edges <= t for t in table)
            self.assertEqual(realizable, graphs.score_dicut(3, edges) is None, edges)


class TamperTest(unittest.TestCase):
    """Real program outputs pass the checks; tampered ones are caught."""

    def setUp(self):
        self.tmp = tempfile.TemporaryDirectory()

    def tearDown(self):
        self.tmp.cleanup()

    def _write(self, name, n, edges):
        path = os.path.join(self.tmp.name, name)
        with open(path, "w") as fh:
            fh.write(graphs.serialize(n, edges))
        return path

    def test_analyze_plan(self):
        n, edges = corpus.bipartite(2, 3)
        path = self._write("g.txt", n, edges)
        for as_json, argv in ((True, ["analyze", path, "--json"]), (False, ["analyze", path])):
            rc, out = _run_cli(argv)
            self.assertIsNone(checks.check_analyze(n, edges, out, rc, as_json))
        rc, out = _run_cli(["analyze", path, "--json"])
        payload = json.loads(out)
        payload["plan"]["added"].pop()
        tampered = json.dumps(payload)
        self.assertIsNotNone(checks.check_analyze(n, edges, tampered, rc, True))
        rc, out = _run_cli(["analyze", path])
        tampered = out.replace("brute-min: 5", "brute-min: 6")
        self.assertNotEqual(tampered, out)
        self.assertIsNotNone(checks.check_analyze(n, edges, tampered, rc, False))

    def test_certificates(self):
        n, edges = 6, {(0, 1), (1, 2), (3, 4), (4, 5)}
        path = self._write("g.txt", n, edges)
        rc, out = _run_cli(["certify", path])
        self.assertIsNone(checks.check_certify(n, edges, out, rc))
        dropped = "".join(out.splitlines(keepends=True)[1:])
        self.assertIsNotNone(checks.check_certify(n, edges, dropped, rc))

        tt = {(i, j) for i in range(4) for j in range(i + 1, 4)}
        path = self._write("tt.txt", 4, tt)
        rc, out = _run_cli(["certify", path])
        self.assertEqual(rc, 1)
        self.assertIsNone(checks.check_certify(4, tt, out, rc))
        self.assertIsNotNone(checks.check_certify(4, tt, "dicut: {1}\n", rc))

        cert = os.path.join(self.tmp.name, "cert.txt")
        with open(cert, "w") as fh:
            fh.write("dicut: {1}\n")
        rc, out = _run_cli(["certify", path, "--verify", cert])
        self.assertIsNone(checks.check_verify(4, tt, "dicut: {1}\n", out, rc))
        self.assertIsNotNone(checks.check_verify(4, tt, "dicut: {1}\n", "valid\n", 0))

    def test_dice(self):
        cycle = {(0, 1), (1, 2), (2, 0)}
        path = self._write("h.txt", 3, cycle)
        rc, out = _run_cli(["dice", "realize", path, "-k", "3"])
        self.assertIsNone(checks.check_realize(3, cycle, 3, True, out, rc))
        lines = out.splitlines(keepends=True)
        swapped = " ".join(["99"] + lines[0].split()[1:]) + "\n"
        tampered = "".join([swapped] + lines[1:])
        self.assertIsNotNone(checks.check_realize(3, cycle, 3, True, tampered, rc))
        exhausted = "no balanced realization with 3-sided dice\n" \
            "no complete dicut found; larger dice may admit a realization\n"
        self.assertIsNotNone(checks.check_realize(3, cycle, 3, True, exhausted, 1))


class TracedRunTest(unittest.TestCase):
    def test_two_traced_runs_repeat_counts_and_digests(self):
        signal.signal(signal.SIGALRM, worker._on_alarm)
        exact = ("calls", "nodes_per_call", "leaves_per_call", "found_ratio", "calls_per_op")
        for workload in corpus.WORKLOADS:
            with self.subTest(workload=workload), tempfile.TemporaryDirectory() as tmp:
                with open(corpus.generate(workload, 3, tmp)) as fh:
                    manifest = json.load(fh)
                runs = [worker.run(manifest, 0.0, True, None) for _ in range(2)]
                for run in runs:
                    self.assertEqual(run["failed"], 0, run["failures"])
                    self.assertEqual(run["digest"], run["digest_traced"])
                self.assertEqual(runs[0]["digest"], runs[1]["digest"])
                counts = [
                    {k: v["value"] for k, v in run["layers"].items() if k.endswith(exact)}
                    for run in runs
                ]
                self.assertEqual(counts[0], counts[1])
        self.assertFalse(hasattr(sys.modules["strongext.cli"].main, "__wrapped__"))


class RunLimitTest(unittest.TestCase):
    def test_run_past_its_limit_is_reported(self):
        root = os.path.dirname(HERE)
        margin = bench_run.RUN_MARGIN_S
        bench_run.RUN_MARGIN_S = -1.0
        try:
            with self.assertRaisesRegex(bench_run.RunFailed, "limit"):
                bench_run.run_workload(root, "decide", 1, 0.0, False)
        finally:
            bench_run.RUN_MARGIN_S = margin
        self.assertFalse(os.path.exists(os.path.join(root, ".bench_work", "corpus-decide-1")))


if __name__ == "__main__":
    unittest.main()
