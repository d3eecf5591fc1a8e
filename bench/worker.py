"""Workload process: runs one corpus as a closed loop with one client.

Each op is one in-process call of ``strongext.cli.main(argv)`` with stdout
captured; the next op starts only when the previous one has returned.
Usage (from the repository root; ``bench/run.py`` starts it):

    python3 bench/worker.py MANIFEST --seconds S --trace 0|1 [--spans FILE]

The first pass warms up and checks every output.  Timed passes, each in its
own shuffled order, follow while another pass still fits in S seconds, and
until at least MIN_SAMPLES latencies are recorded.
With ``--trace 1`` the timed passes take half the time and one further pass
runs under the tracer.  A calibration sample is taken before every op, and
the reported latencies are scaled to reference time (see calibration.py).
The last stdout line is a JSON summary.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import random
import resource
import signal
import statistics
import sys
import time
import traceback

import calibration
import checks
import graphs

OP_LIMIT_S = 10.0
MIN_SAMPLES = 100


class OpTimeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise OpTimeout


class Runner:
    def __init__(self, ops: list[dict]):
        self.ops = ops
        self.cli = sys.modules["strongext.cli"]
        self.attempted = 0
        self.failures: list[str] = []
        self.failed = 0
        self.verdicts: dict[int, tuple[str, str | None]] = {}  # op id -> (digest, problem)
        self.stdout_of: dict[int, str] = {}  # certify op id -> its certificate
        self.records: list[tuple[float, float]] = []  # (start, seconds) per op run
        self.cals: list[tuple[float, float]] = []  # calibration sample before each op

    def _call(self, argv: list[str]):
        out, err = io.StringIO(), io.StringIO()
        rc, error = None, None
        self.cals.append(calibration.sample())
        start = time.perf_counter()
        try:
            signal.setitimer(signal.ITIMER_REAL, OP_LIMIT_S)
            try:
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    rc = self.cli.main(argv)
            finally:
                elapsed = time.perf_counter() - start
                signal.setitimer(signal.ITIMER_REAL, 0)
        except OpTimeout:
            elapsed = time.perf_counter() - start
            error = f"over the {OP_LIMIT_S:g} s op limit"
        except Exception:  # the op's failure is reported, the loop goes on
            error = "traceback: " + traceback.format_exc().strip().splitlines()[-1]
        self.records.append((start, elapsed))
        return rc, out.getvalue(), error

    def _check(self, op: dict, rc: int, stdout: str, cert_text: str) -> str | None:
        if rc not in checks.DOCUMENTED_EXIT_CODES:
            return f"undocumented exit code {rc!r}"
        with open(op["argv"][1 if op["kind"] != "realize" else 2], encoding="utf-8") as fh:
            n, edges = graphs.parse(fh.read())
        kind = op["kind"]
        if kind == "analyze":
            return checks.check_analyze(n, edges, stdout, rc, op["json"])
        if kind == "certify":
            return checks.check_certify(n, edges, stdout, rc)
        if kind == "verify":
            return checks.check_verify(n, edges, cert_text, stdout, rc)
        return checks.check_realize(n, edges, op["k"], op["realizable"], stdout, rc)

    def run_pass(self, order: int, tracer=None):
        """One pass over the corpus, in the shuffled order numbered ``order``.

        Shuffling spreads every stratum over the pass, so a slow spell of
        the machine does not land on one kind of op; a verify op stays right
        after the certify op whose output it reads.
        """
        units = [[op] for op in self.ops if op["kind"] != "verify"]
        after = {op["cert_of"]: op for op in self.ops if op["kind"] == "verify"}
        for unit in units:
            if unit[0]["id"] in after:
                unit.append(after[unit[0]["id"]])
        random.Random(order).shuffle(units)
        for op in (op for unit in units for op in unit):
            cert_text = ""
            if op["kind"] == "verify":
                cert_text = self.stdout_of.get(op["cert_of"], "")
                with open(op["cert"], "w", encoding="utf-8") as fh:
                    fh.write(cert_text)
            if tracer is not None:
                tracer.op = op["id"]
            rc, stdout, error = self._call(op["argv"])
            self.attempted += 1
            if op["kind"] == "certify":
                self.stdout_of[op["id"]] = stdout
            if error is None:
                digest = hashlib.sha256(f"{rc}\n{stdout}\n{cert_text}".encode()).hexdigest()
                seen = self.verdicts.get(op["id"])
                if seen is None or seen[0] != digest:
                    seen = (digest, self._check(op, rc, stdout, cert_text))
                    self.verdicts[op["id"]] = seen
                error = seen[1]
            if error is not None:
                self.failed += 1
                if len(self.failures) < 10:
                    self.failures.append(f"op {op['id']} ({op['stratum']}): {error}")

    def digest(self) -> str:
        """Digest of every op's exit code and stdout, in op order."""
        h = hashlib.sha256()
        for op in self.ops:
            h.update(self.verdicts.get(op["id"], ("missing",))[0].encode())
        return h.hexdigest()


def _rate(latencies: list[float]) -> float:
    return len(latencies) / sum(latencies)


def run(manifest: dict, seconds: float, trace: bool, spans_path: str | None) -> dict:
    runner = Runner(manifest["ops"])
    start = time.perf_counter()
    runner.run_pass(0)  # warm-up, checks every output
    first = len(runner.records)
    budget = seconds / 2 if trace else seconds
    passes = 0
    last_pass = 0.0
    # stop before a pass that would end past the budget
    while (
        not passes
        or time.perf_counter() - start + last_pass <= budget
        or len(runner.records) - first < MIN_SAMPLES
    ):
        began = time.perf_counter()
        passes += 1
        runner.run_pass(passes)
        last_pass = time.perf_counter() - began
    last = len(runner.records)
    if trace:
        import tracer as tracing

        t = tracing.Tracer()
        t.install()
        try:
            runner.run_pass(0, tracer=t)
        finally:
            t.uninstall()
    runner.cals.append(calibration.sample())
    scaled = calibration.scaled(runner.records, runner.cals)
    timed = scaled[first:last]
    ms = sorted(s * 1000.0 for s in timed)
    result = {
        "attempted": runner.attempted,
        "failed": runner.failed,
        "failures": runner.failures,
        "digest": runner.digest(),
        "passes": passes,
        "samples": len(ms),
        "ops_per_s": _rate(timed),
        "op_p50_ms": statistics.median(ms),
        "op_p90_ms": statistics.quantiles(ms, n=10, method="inclusive")[-1],
        "raw_ops_per_s": _rate([s for _, s in runner.records[first:last]]),
        "calibration_ms": statistics.median(c for _, c in runner.cals) * 1000.0,
    }
    if trace:
        traced = runner.records[last:]
        op_ms = sum(s for _, s in traced) * 1000.0
        overhead = _rate(scaled[last:]) / result["ops_per_s"]
        metrics = tracing.layer_metrics(t, len(traced), op_ms, overhead)
        result["layers"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
        result["top_self_ms"] = t.top_self()
        result["spans_dropped"] = t.dropped
        result["digest_traced"] = runner.digest()
        if spans_path:
            t.write_spans(spans_path)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return result


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("manifest")
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans")
    args = parser.parse_args()
    sys.path.insert(0, os.path.join(os.getcwd(), "src"))
    import strongext.cli  # noqa: F401  (reached through sys.modules)

    signal.signal(signal.SIGALRM, _on_alarm)
    with open(args.manifest, encoding="utf-8") as fh:
        manifest = json.load(fh)
    print(json.dumps(run(manifest, args.seconds, bool(args.trace), args.spans)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
