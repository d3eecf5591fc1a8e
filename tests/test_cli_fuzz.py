"""The command line's contract on drawn argument lists.

Every call of ``main`` returns a documented exit code (0 to 3) within a
time cap, raises nothing and prints no traceback.  On valid digraphs the
output of ``analyze``, ``certify`` and ``certify --verify`` must also pass
the benchmark's checks in ``bench/checks.py``, which judge it without
calling ``strongext``.
"""

from __future__ import annotations

import contextlib
import importlib.util
import io
import json
import os
import select
import signal
import sys
import time
import traceback
from itertools import takewhile
from pathlib import Path
from typing import NamedTuple

import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from strongext.cli import main
from strategies import dice_sets, strict_edge_sets

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _load_bench_module(name: str):
    """A module of ``bench/``, loaded from its file; registered under its
    bare name, which is how ``checks`` imports ``graphs``."""
    spec = importlib.util.spec_from_file_location(name, BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


graphs = _load_bench_module("graphs")
checks = _load_bench_module("checks")

# wall-clock seconds one call may take; each call below takes well under
# one.  The call runs in a forked child that is killed at the cap, which
# also stops a hang inside a single C call such as math.factorial, where
# a SIGALRM handler would run only once the call returned
CALL_SECONDS = 10

# graph files that are not drawn digraphs: malformed text, limits, and two
# valid headers with many vertices
ODD_GRAPHS = [
    "",
    "n\n",
    "n x\n",
    "n -1\n",
    "0 1\n",
    " 1\n",
    "n 3\n0\n",
    "n 3\n0 0\n",
    "n 3\n0 1\n1 0\n",
    "n 3\n0 3\n",
    "n 3\n-1 2\n",
    "n 3\n0 1 2\n",
    "n 3\r\n0 1\r\n",
    "n ３\n",
    "n 1000001\n",
    "n 99999999999999999999\n",
    "n 2000\n",
    "n 20000\n0 1\n2 1\n",
    b"n 3\n0 1\xff\n",
]
ODD_DICE = ["", "# none\n", "1 2\n3\n", "0 1\n", "1 1\n", "1 x\n", "1 2\n2 3\n", "-1\n", "1.5\n"]
ODD_CERTIFICATES = [
    "",
    "dicut: 0\n",
    "dicut: {x}\n",
    "dicut: {0}\ndicut: {1}\n",
    "dicut: {0}\n+ 0 1\n",
    "+ 0 1\ndicut: {0}\n",
    "+ 0\n",
    "+ a b\n",
    "what\n",
]
EXTREME_K = ["-1000000000000000000", "-1", "0", "4", "1000000000", "1000000000000000000", "x"]
EXTREME_GEN = [-1, 0, 1_000_001, 10**9, 10**18]
ODD_ARGV = [
    (),
    ("--help",),
    ("frobnicate",),
    ("analyze",),
    ("dice",),
    ("dice", "eval", "--help"),
    ("analyze", "/nonexistent/graph.txt"),
    ("certify", "--verify"),
]


class Call(NamedTuple):
    """An argument list and the files it names: ``@name`` in argv stands
    for the path of ``files[name]``, and a None file for the certificate
    ``certify`` prints for ``files["graph"]``.  ``graph`` is the digraph in
    that file, as (n, edges), when the output is to be checked."""

    argv: tuple[str, ...]
    files: dict[str, str | bytes | None]
    graph: tuple[int, frozenset[tuple[int, int]]] | None = None


@st.composite
def graph_files(draw, max_n: int = 8):
    """Graph file text and, when it is a drawn digraph, that digraph."""
    kind = draw(st.integers(min_value=0, max_value=7))
    if kind < 6:
        n, edges = draw(strict_edge_sets(max_n=max_n))
        text = graphs.serialize(n, edges)
        if kind == 5:  # not canonical, so read line by line
            text = "# drawn\n\n" + text
        return text, (n, edges)
    if kind == 6:
        return draw(st.sampled_from(ODD_GRAPHS)), None
    return draw(st.text(max_size=30)), None


@st.composite
def certificates(draw, n: int):
    """Certificate text, or None for the one ``certify`` prints, and
    whether a verdict on it can be checked."""
    kind = draw(st.integers(min_value=0, max_value=4))
    vertices = st.integers(min_value=-1, max_value=n)
    if kind == 0:
        return None, True
    if kind == 1:
        side = sorted(draw(st.sets(vertices, max_size=n + 1)))
        return "dicut: {" + ", ".join(map(str, side)) + "}\n", True
    if kind == 2:
        pairs = sorted(draw(st.sets(st.tuples(vertices, vertices), max_size=6)))
        return "".join(f"+ {u} {v}\n" for u, v in pairs), True
    if kind == 3:
        return draw(st.sampled_from(ODD_CERTIFICATES)), False
    return draw(st.text(max_size=20)), False


@st.composite
def dice_files(draw):
    kind = draw(st.integers(min_value=0, max_value=5))
    if kind < 4:
        d = draw(dice_sets(max_dice=5))
        return "".join(" ".join(map(str, die)) + "\n" for die in d.dice)
    if kind == 4:
        return draw(st.sampled_from(ODD_DICE))
    return draw(st.text(max_size=20))


def _flags(draw, *names: str) -> tuple[str, ...]:
    return tuple(name for name in names if draw(st.booleans()))


@st.composite
def calls(draw) -> Call:
    command = draw(st.sampled_from(
        ["analyze"] * 3 + ["certify"] * 2 + ["verify"] * 3 + ["extend"] * 2
        + ["bounds", "dice eval", "dice eval", "dice realize", "dice realize",
           "gen", "odd"]
    ))
    direction = draw(st.sampled_from(
        [(), ("--direction", "winner-to-loser"), ("--direction", "loser-to-winner")]
    ))
    if command == "odd":
        return Call(draw(st.sampled_from(ODD_ARGV)), {})
    if command == "gen":
        family = draw(st.sampled_from(["tt-minus-path", "bipartite", "cycles", "none"]))
        param = st.one_of(st.integers(min_value=1, max_value=8), st.sampled_from(EXTREME_GEN))
        params = draw(st.lists(param, max_size=3))
        return Call(("gen", family, *map(str, params)), {})
    if command == "dice eval":
        flags = _flags(draw, "--json")
        return Call(("dice", "eval", "@dice", *direction, *flags), {"dice": draw(dice_files())})
    if command == "dice realize":
        # past 5 vertices every k > 1 is over the deal budget
        text, _ = draw(graph_files(max_n=5))
        k = draw(st.one_of(st.sampled_from(["1", "2", "3"]), st.sampled_from(EXTREME_K)))
        flags = _flags(draw, "--json")
        return Call(("dice", "realize", "@graph", "-k", k, *direction, *flags), {"graph": text})
    text, graph = draw(graph_files())
    if command == "verify":
        cert, checked = draw(certificates(graph[0] if graph else 3))
        files = {"graph": text, "cert": cert}
        return Call(("certify", "@graph", "--verify", "@cert"), files, graph if checked else None)
    flags = {
        "analyze": ("--json",),
        "certify": (),
        "extend": ("--minimize", "--json"),
        "bounds": ("--json",),
    }[command]
    checked = command in ("analyze", "certify") and graph is not None and graph[0] >= 3
    return Call((command, "@graph", *_flags(draw, *flags)), {"graph": text},
                graph if checked else None)


class Result(NamedTuple):
    code: int | None  # None when main raised or was stopped
    out: str
    err: str


def run_capped(argv: list[str]) -> Result:
    """main(argv) in a forked child, with what it printed; the child is
    killed once it has run CALL_SECONDS."""
    read_end, write_end = os.pipe()
    pid = os.fork()
    if pid == 0:  # the child never returns into the test run
        try:
            os.close(read_end)
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    code = main(argv)
                except BaseException:
                    code = None
                    traceback.print_exc()
            with os.fdopen(write_end, "w", encoding="utf-8") as fh:
                json.dump([code, out.getvalue(), err.getvalue()], fh)
        finally:
            os._exit(0)
    os.close(write_end)
    chunks = []
    deadline = time.monotonic() + CALL_SECONDS
    with os.fdopen(read_end, "rb", buffering=0) as fh:
        while True:
            left = deadline - time.monotonic()
            if left <= 0 or not select.select([fh], [], [], left)[0]:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
                return Result(None, "", f"killed after {CALL_SECONDS} s")
            chunk = fh.read(1 << 16)
            if not chunk:
                break
            chunks.append(chunk)
    os.waitpid(pid, 0)
    if not chunks:
        return Result(None, "", "the child reported nothing")
    return Result(*json.loads(b"".join(chunks)))


def run_within_contract(argv: list[str]) -> Result:
    result = run_capped(argv)
    assert result.code in (0, 1, 2, 3), (argv, result)
    assert "Traceback" not in result.out + result.err, (argv, result)
    return result


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@settings(max_examples=200, deadline=None)
@given(call=calls())
# dealing 3 dice of 10^9 faces: at 646a9ef the budget check ran
# math.factorial on 3·10^9 and never returned
@example(call=Call(("dice", "realize", "@graph", "-k", "1000000000"),
                   {"graph": "n 3\n0 1\n1 2\n2 0\n"}))
# 2 000 one-face dice: at 646a9ef the budget message formatted a deal
# count of 5 700 digits and died with ValueError
@example(call=Call(("dice", "realize", "@graph", "-k", "1"), {"graph": "n 2000\n"}))
def test_every_call_keeps_the_contract(workdir, call):
    paths: dict[str, str] = {}
    for name, content in call.files.items():
        if content is None:
            content = run_within_contract(["certify", paths["graph"]]).out
        data = content if isinstance(content, bytes) else content.encode("utf-8")
        path = workdir / name
        path.write_bytes(data)
        paths[name] = str(path)
    argv = [paths[arg[1:]] if arg.startswith("@") else arg for arg in call.argv]
    result = run_within_contract(argv)
    # the mix of commands and exit codes, shown by --hypothesis-show-statistics
    words = [*takewhile(lambda arg: not arg.startswith("@"), call.argv[:2])]
    words += [flag for flag in ("--verify", "--minimize") if flag in call.argv]
    event(f"{' '.join(words)}: exit {result.code}, checked {call.graph is not None}")
    if call.graph is None:
        return
    n, edges = call.graph
    if "--verify" in argv:
        cert = Path(paths["cert"]).read_text(encoding="utf-8")
        problem = checks.check_verify(n, edges, cert, result.out, result.code)
    elif argv[0] == "certify":
        problem = checks.check_certify(n, edges, result.out, result.code)
    else:
        problem = checks.check_analyze(n, edges, result.out, result.code, "--json" in argv)
    assert problem is None, (call, result)
