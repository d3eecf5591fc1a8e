"""Independent checks of the program's output, one function per op kind.

Each check reads the op's input graph with the benchmark's own parser and
judges stdout and the exit code with the helpers in ``graphs``; none of
them calls ``strongext``.  A check returns None when the output is right
and a one-line reason otherwise.
"""

from __future__ import annotations

import json
from fractions import Fraction

import graphs

DOCUMENTED_EXIT_CODES = (0, 1, 2, 3)
BRUTE_VERTEX_BUDGET = 10
BRUTE_PAIR_BUDGET = 24


def _dicut_problem(n: int, edges, text: str) -> str | None:
    """Check a ``dicut: {a, b}`` line against the input by set lookups."""
    text = text.strip()
    if not (text.startswith("dicut: {") and text.endswith("}")):
        return f"malformed dicut line {text!r}"
    body = text[len("dicut: {"):-1]
    try:
        side = [int(tok) for tok in body.split(",")] if body.strip() else []
    except ValueError:
        return f"malformed dicut line {text!r}"
    if not graphs.is_complete_dicut(n, edges, side):
        return f"{text} is not a complete dicut"
    return None


def _plan_problem(n: int, edges, added, resulting=None) -> str | None:
    """Added edges keep the graph strict, make it strong, and stay within
    r, or r - 1 unless the input is disconnected with strong weak parts."""
    added = [tuple(e) for e in added]
    combined = set(edges) | set(added)
    if len(combined) != len(edges) + len(added):
        return "plan repeats an edge"
    problem = graphs.strictness_problem(n, combined)
    if problem:
        return f"plan breaks strictness: {problem}"
    if not graphs.is_strong(n, combined):
        return "plan does not make the graph strong"
    if resulting is not None and resulting != (n, combined):
        return "resulting graph is not the input plus the added edges"
    st = graphs.structure(n, edges)
    limit = st["r"] if st["c"] > 1 and st["all_weak_strong"] else st["r"] - 1
    if len(added) > limit:
        return f"plan adds {len(added)} edges, bound is {limit}"
    return None


def _parse_plus_lines(lines) -> list[tuple[int, int]]:
    added = []
    for line in lines:
        tag, u, v = line.split()
        if tag != "+":
            raise ValueError(f"not an added edge: {line!r}")
        added.append((int(u), int(v)))
    return added


def parse_analyze_text(stdout: str) -> dict:
    """Turn the text report of ``analyze`` into the shape of its JSON."""
    lines = stdout.splitlines()
    key, _, verdict = lines[0].partition(": ")
    if key != "verdict":
        raise ValueError("report does not start with a verdict")
    report: dict = {"verdict": verdict}
    i = 1
    if i < len(lines) and lines[i].startswith("dicut:"):
        report["dicut_line"] = lines[i]
        i += 1
    summary = {}
    while i < len(lines) and lines[i] not in ("plan:", "bounds:"):
        k, _, v = lines[i].partition(": ")
        summary[k.replace("-", "_")] = int(v)
        i += 1
    report["summary"] = summary
    if i < len(lines) and lines[i] == "plan:":
        i += 1
        start = i
        while i < len(lines) and lines[i].startswith("+"):
            i += 1
        added = _parse_plus_lines(lines[start:i])
        end = lines.index("bounds:", i) if "bounds:" in lines[i:] else len(lines)
        n, edges = graphs.parse("\n".join(lines[i:end]))
        report["plan"] = {"added": added, "resulting": (n, edges)}
        i = end
    if i < len(lines) and lines[i] == "bounds:":
        report["bounds"] = {
            k.replace("-", "_"): int(v)
            for k, _, v in (line.partition(": ") for line in lines[i + 1:])
        }
    return report


def _report_from_json(stdout: str) -> dict:
    payload = json.loads(stdout)
    report = {"verdict": payload["verdict"], "summary": payload.get("summary", {})}
    if "dicut" in payload:
        inner = ", ".join(str(v) for v in payload["dicut"])
        report["dicut_line"] = f"dicut: {{{inner}}}"
    if "plan" in payload:
        res = payload["plan"]["resulting"]
        report["plan"] = {
            "added": [tuple(e) for e in payload["plan"]["added"]],
            "resulting": (res["n"], {tuple(e) for e in res["edges"]}),
        }
    if "bounds" in payload:
        report["bounds"] = {k: v for k, v in payload["bounds"].items() if v is not None}
    return report


def check_analyze(n: int, edges, stdout: str, rc: int, as_json: bool) -> str | None:
    try:
        report = _report_from_json(stdout) if as_json else parse_analyze_text(stdout)
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        return f"unreadable report: {exc}"
    side = graphs.score_dicut(n, edges)
    if side is not None:
        if rc != 1 or report["verdict"] != "not-strongly-connectable":
            return f"input has a complete dicut, got {report['verdict']} (exit {rc})"
        return _dicut_problem(n, edges, report.get("dicut_line", ""))
    if graphs.is_strong(n, edges):
        if rc != 0 or report["verdict"] != "already-strong":
            return f"input is strong, got {report['verdict']} (exit {rc})"
        return None
    if rc != 0 or report["verdict"] != "strongly-connectable":
        return f"input is connectable, got {report['verdict']} (exit {rc})"
    st = graphs.structure(n, edges)
    summary = report["summary"]
    for key in ("r", "s", "t", "c"):
        if summary.get(key) != st[key]:
            return f"summary {key} = {summary.get(key)}, expected {st[key]}"
    if "plan" not in report or "bounds" not in report:
        return "connectable verdict without plan and bounds"
    plan = report["plan"]
    problem = _plan_problem(n, edges, plan["added"], plan["resulting"])
    if problem:
        return problem
    size = len(plan["added"])
    b = report["bounds"]
    theorem = st["r"] if st["c"] > 1 and st["all_weak_strong"] else st["r"] - 1
    if b.get("upper_theorem") != theorem:
        return f"upper-theorem {b.get('upper_theorem')}, expected {theorem}"
    if not b["lower"] <= size <= theorem:
        return f"bounds violated: lower {b['lower']}, plan {size}, upper {theorem}"
    free = n * (n - 1) // 2 - len(edges)
    in_budget = n <= BRUTE_VERTEX_BUDGET and free <= BRUTE_PAIR_BUDGET
    if ("brute_min" in b) != in_budget:
        return f"brute-min {'missing' if in_budget else 'present'} (n={n}, {free} free pairs)"
    if in_budget:
        brute = b["brute_min"]
        if not max(b["lower"], b.get("lower_matched", 0)) <= brute <= size:
            return f"brute-min {brute} outside [lower, plan size {size}]"
        for key in ("upper_cyclic", "upper_prop"):
            if key in b and brute > b[key]:
                return f"brute-min {brute} exceeds {key} {b[key]}"
    return None


def check_certify(n: int, edges, stdout: str, rc: int) -> str | None:
    lines = stdout.splitlines()
    if graphs.score_dicut(n, edges) is not None:
        if rc != 1 or len(lines) != 1:
            return f"input has a complete dicut, got exit {rc} with {len(lines)} lines"
        return _dicut_problem(n, edges, lines[0])
    if rc != 0:
        return f"input is connectable, got exit {rc}"
    try:
        added = _parse_plus_lines(lines)
    except ValueError as exc:
        return f"unreadable certificate: {exc}"
    return _plan_problem(n, edges, added)


def certificate_valid(n: int, edges, text: str) -> bool:
    """Whether a certificate file of either kind is valid for the input."""
    lines = [line for line in text.splitlines() if line.strip()]
    if lines and lines[0].startswith("dicut:"):
        return len(lines) == 1 and _dicut_problem(n, edges, lines[0]) is None
    try:
        added = _parse_plus_lines(lines)
    except ValueError:
        return False
    combined = set(edges) | set(added)
    return (
        len(combined) == len(edges) + len(added)
        and graphs.strictness_problem(n, combined) is None
        and graphs.is_strong(n, combined)
    )


def check_verify(n: int, edges, cert_text: str, stdout: str, rc: int) -> str | None:
    expected = ("valid\n", 0) if certificate_valid(n, edges, cert_text) else ("invalid\n", 1)
    if (stdout, rc) != expected:
        return f"verify printed {stdout!r} (exit {rc}), expected {expected[0]!r} (exit {expected[1]})"
    return None


def check_realize(n: int, edges, k: int, realizable: bool, stdout: str, rc: int) -> str | None:
    lines = stdout.splitlines()
    if rc == 0:
        if not realizable:
            return "found dice although the enumeration finds no realization"
        try:
            dice = [tuple(int(f) for f in line.split()) for line in lines[:-1]]
            tag, _, p_text = lines[-1].partition(": ")
            p = Fraction(p_text)
        except (ValueError, IndexError, ZeroDivisionError):
            return f"unreadable dice output {stdout!r}"
        faces = [f for die in dice for f in die]
        if tag != "p" or len(dice) != n or any(len(die) != k for die in dice):
            return f"expected {n} dice of {k} faces and a p line"
        if min(faces) < 1 or len(set(faces)) != len(faces):
            return "faces must be distinct positive integers"
        counts = graphs.win_counts(dice)
        total = k * k
        tops = {max(counts[i][j], total - counts[i][j]) for i in range(n) for j in range(i + 1, n)}
        if len(tops) != 1:
            return "dice are not balanced"
        top = tops.pop()
        if 2 * top <= total or Fraction(top, total) != p:
            return f"p is {p}, recount gives {Fraction(top, total)} (must exceed 1/2)"
        beats = {(i, j) for i in range(n) for j in range(n) if 2 * counts[i][j] > total}
        if not set(edges) <= beats:
            return "beats digraph misses a target edge"
        if not graphs.has_cycle(n, beats):
            return "beats digraph has no cycle"
        return None
    if rc != 1:
        return f"unexpected exit {rc}"
    if realizable:
        return "search exhausted although the enumeration finds a realization"
    if len(lines) != 2 or lines[0] != f"no balanced realization with {k}-sided dice":
        return f"unexpected exhausted output {stdout!r}"
    if lines[1].startswith("dicut:"):
        return _dicut_problem(n, edges, lines[1])
    if graphs.score_dicut(n, edges) is not None:
        return "target has a complete dicut the output does not name"
    return None
