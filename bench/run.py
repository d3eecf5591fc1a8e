"""strongext benchmark: three workloads of CLI invocations, stdlib only.

Run from the repository root:

    python3 bench/run.py --workload construct --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1        # every workload, as a table

One workload run generates its corpus from the seed (not timed), measures
set-up time in fresh processes, then starts a workload process
(``bench/worker.py``) that runs the corpus as a closed loop with one client
and checks every output independently.  Times are reported in reference
seconds, scaled by a calibration loop timed alongside (calibration.py), so
that the drifting speed of a shared machine cancels out.  The last stdout line is a JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics of one traced
pass with ``--trace 1``.  A fuller record goes to ``.bench_work/results/``.
The exit code is 0 when every output was right, 1 when one was not or the
workload process ended without a result, and 2 when the program's sources
are missing.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

import corpus

SETUP_PROBES = 11
# Corpus, set-up, warm-up and traced passes, on top of --seconds: 170 s in
# all for the default 30 s run.
RUN_MARGIN_S = 140.0
SETUP_PROBE = (
    "import sys, time\n"
    "sys.path.insert(0, 'src')\n"
    "start = time.perf_counter()\n"
    "import strongext.cli\n"
    "strongext.cli.build_parser()\n"
    "elapsed = time.perf_counter() - start\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "import calibration\n"
    "print(elapsed, elapsed * calibration.REFERENCE_S / calibration.speed())\n"
)
END_TO_END_UNITS = {
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "fail_ratio": "ratio",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
# fail_ratio is 0 on a correct run, so it is printed but not a gated metric;
# the JSON line carries it as ``failed`` / ``attempted``.
GATED = ("ops_per_s", "op_p50_ms", "op_p90_ms", "setup_s", "peak_rss_mb")
BENCH_DIR = os.path.dirname(os.path.abspath(__file__))


class RunFailed(Exception):
    """The workload process ended without a result."""


def measure_setup(root: str) -> tuple[float, float]:
    """Median time for a fresh process to import strongext.cli and build
    the argument parser, in reference and in raw seconds.  One unmeasured
    probe first fills the bytecode cache."""
    raw, scaled = [], []
    for i in range(SETUP_PROBES + 1):
        done = subprocess.run(
            [sys.executable, "-c", SETUP_PROBE, BENCH_DIR],
            cwd=root, capture_output=True, text=True, timeout=60, check=True,
        )
        if i:
            measured, reference = done.stdout.split()
            raw.append(float(measured))
            scaled.append(float(reference))
    return statistics.median(scaled), statistics.median(raw)


def run_workload(root: str, workload: str, seed: int, seconds: float, trace: bool) -> dict:
    started = time.monotonic()
    work = os.path.join(root, ".bench_work")
    results = os.path.join(work, "results")
    os.makedirs(results, exist_ok=True)
    directory = os.path.join(work, f"corpus-{workload}-{seed}")
    shutil.rmtree(directory, ignore_errors=True)
    manifest = corpus.generate(workload, seed, directory)
    try:
        setup_s, setup_raw_s = measure_setup(root)
        tag = f"{workload}-{seed}-trace{int(trace)}"
        command = [
            sys.executable, os.path.join(BENCH_DIR, "worker.py"), manifest,
            "--seconds", str(seconds), "--trace", str(int(trace)),
        ]
        if trace:
            command += ["--spans", os.path.join(results, f"spans-{tag}.jsonl")]
        limit = RUN_MARGIN_S + seconds - (time.monotonic() - started)
        try:
            done = subprocess.run(command, cwd=root, capture_output=True, text=True, timeout=limit)
        except subprocess.TimeoutExpired:
            raise RunFailed(
                f"run passed its {RUN_MARGIN_S + seconds:g} s limit; workload process stopped"
            ) from None
    finally:
        shutil.rmtree(directory, ignore_errors=True)
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        raise RunFailed(f"workload process exited with {done.returncode}")
    record = json.loads(done.stdout.strip().splitlines()[-1])
    record.update(
        workload=workload, seed=seed, seconds=seconds, trace=trace,
        setup_s=setup_s, setup_raw_s=setup_raw_s,
    )
    record["fail_ratio"] = record["failed"] / record["attempted"]
    with open(os.path.join(results, f"{tag}.json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")
    return record


def contract_line(record: dict) -> dict:
    if record["trace"]:
        metrics = record["layers"]
    else:
        metrics = {k: {"value": record[k], "unit": END_TO_END_UNITS[k]} for k in GATED}
    return {
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": metrics,
    }


def describe(record: dict) -> str:
    lines = [
        f"{record['workload']} seed {record['seed']}: {record['attempted']} ops, "
        f"{record['passes']} timed passes, {record['samples']} latency samples, "
        f"output digest {record['digest'][:16]}"
    ]
    for name, unit in END_TO_END_UNITS.items():
        lines.append(f"  {name:<12} {record[name]:>12.4f} {unit}")
    for failure in record["failures"]:
        lines.append(f"  FAILED {failure}")
    if record["trace"]:
        lines.append("  largest self times in the traced pass:")
        for name, ms in record["top_self_ms"]:
            lines.append(f"    {name:<40} {ms:>10.1f} ms")
    return "\n".join(lines)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=corpus.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "strongext", "cli.py")):
        print("error: run from the repository root; src/strongext is missing", file=sys.stderr)
        return 2
    try:
        if args.workload == "all":
            correct = True
            for workload in corpus.WORKLOADS:
                record = run_workload(root, workload, args.seed, args.seconds, bool(args.trace))
                print(describe(record))
                correct &= record["failed"] == 0
            return 0 if correct else 1
        record = run_workload(root, args.workload, args.seed, args.seconds, bool(args.trace))
    except RunFailed as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    print(describe(record), file=sys.stderr)
    line = contract_line(record)
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
