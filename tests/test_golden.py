"""Golden transcripts: the full stdout and exit code of every report command.

Each entry runs one command on one input file and pins its output byte for
byte, so a change to how a report is rendered shows here.
"""

import pytest

from strongext.cli import main

PATH3 = "n 3\n0 1\n1 2\n"
PATH_PLUS_ISOLATED = "n 4\n0 1\n1 2\n"
TWO_CYCLES = "n 6\n0 1\n1 2\n2 0\n3 4\n4 5\n5 3\n"
TT3 = "n 3\n0 1\n0 2\n1 2\n"
EDGELESS5 = "n 5\n"
CYCLE3 = "n 3\n0 1\n1 2\n2 0\n"
K22_MINUS = "n 4\n0 2\n0 3\n1 2\n"

NAMES = {
    PATH3: "path3",
    PATH_PLUS_ISOLATED: "path-plus-isolated",
    TWO_CYCLES: "two-cycles",
    TT3: "tt3",
    EDGELESS5: "edgeless5",
    CYCLE3: "cycle3",
    K22_MINUS: "k22-minus",
}

# (input, command) -> (exit code, stdout)
GOLDEN = {
    (PATH3, 'analyze'): (0, (
        'verdict: strongly-connectable\n'
        'r: 3\n'
        's: 1\n'
        't: 1\n'
        'c: 1\n'
        'c-prime: 1\n'
        'u: 2\n'
        'plan:\n'
        '+ 2 0\n'
        'n 3\n'
        '0 1\n'
        '1 2\n'
        '2 0\n'
        'bounds:\n'
        'lower: 1\n'
        'upper-theorem: 2\n'
        'brute-min: 1\n'
    )),
    (PATH3, 'analyze --json'): (0, (
        '{"verdict": "strongly-connectable", "summary": {"r": 3, "s": 1, '
        '"t": 1, "c": 1, "c_prime": 1, "u": 2}, "plan": {"added": [[2, '
        '0]], "resulting": {"n": 3, "edges": [[0, 1], [1, 2], [2, 0]]}}, '
        '"bounds": {"lower": 1, "lower_matched": null, "upper_theorem": '
        '2, "upper_cyclic": null, "upper_prop": null, "brute_min": 1}}\n'
    )),
    (PATH3, 'extend'): (0, (
        '+ 2 0\n'
        'n 3\n'
        '0 1\n'
        '1 2\n'
        '2 0\n'
    )),
    (PATH3, 'extend --json'): (0, (
        '{"added": [[2, 0]], "resulting": {"n": 3, "edges": [[0, 1], [1, '
        '2], [2, 0]]}}\n'
    )),
    (PATH3, 'extend --minimize'): (0, (
        'minimum: 1\n'
        '+ 2 0\n'
        'n 3\n'
        '0 1\n'
        '1 2\n'
        '2 0\n'
    )),
    (PATH3, 'extend --minimize --json'): (0, (
        '{"minimum": 1, "plan": {"added": [[2, 0]], "resulting": {"n": 3, '
        '"edges": [[0, 1], [1, 2], [2, 0]]}}}\n'
    )),
    (PATH3, 'bounds'): (0, (
        'lower: 1\n'
        'upper-theorem: 2\n'
        'brute-min: 1\n'
    )),
    (PATH3, 'bounds --json'): (0, (
        '{"lower": 1, "lower_matched": null, "upper_theorem": 2, '
        '"upper_cyclic": null, "upper_prop": null, "brute_min": 1}\n'
    )),
    (PATH_PLUS_ISOLATED, 'analyze'): (0, (
        'verdict: strongly-connectable\n'
        'r: 4\n'
        's: 2\n'
        't: 2\n'
        'c: 2\n'
        'c-prime: 1\n'
        'u: 3\n'
        'plan:\n'
        '+ 2 3\n'
        '+ 3 0\n'
        'n 4\n'
        '0 1\n'
        '1 2\n'
        '2 3\n'
        '3 0\n'
        'bounds:\n'
        'lower: 2\n'
        'upper-theorem: 3\n'
        'upper-cyclic: 2\n'
        'upper-prop: 2\n'
        'brute-min: 2\n'
    )),
    (PATH_PLUS_ISOLATED, 'analyze --json'): (0, (
        '{"verdict": "strongly-connectable", "summary": {"r": 4, "s": 2, '
        '"t": 2, "c": 2, "c_prime": 1, "u": 3}, "plan": {"added": [[2, '
        '3], [3, 0]], "resulting": {"n": 4, "edges": [[0, 1], [1, 2], [2, '
        '3], [3, 0]]}}, "bounds": {"lower": 2, "lower_matched": null, '
        '"upper_theorem": 3, "upper_cyclic": 2, "upper_prop": 2, '
        '"brute_min": 2}}\n'
    )),
    (PATH_PLUS_ISOLATED, 'extend'): (0, (
        '+ 2 3\n'
        '+ 3 0\n'
        'n 4\n'
        '0 1\n'
        '1 2\n'
        '2 3\n'
        '3 0\n'
    )),
    (PATH_PLUS_ISOLATED, 'extend --json'): (0, (
        '{"added": [[2, 3], [3, 0]], "resulting": {"n": 4, "edges": [[0, '
        '1], [1, 2], [2, 3], [3, 0]]}}\n'
    )),
    (PATH_PLUS_ISOLATED, 'extend --minimize'): (0, (
        'minimum: 2\n'
        '+ 2 3\n'
        '+ 3 0\n'
        'n 4\n'
        '0 1\n'
        '1 2\n'
        '2 3\n'
        '3 0\n'
    )),
    (PATH_PLUS_ISOLATED, 'extend --minimize --json'): (0, (
        '{"minimum": 2, "plan": {"added": [[2, 3], [3, 0]], "resulting": '
        '{"n": 4, "edges": [[0, 1], [1, 2], [2, 3], [3, 0]]}}}\n'
    )),
    (PATH_PLUS_ISOLATED, 'bounds'): (0, (
        'lower: 2\n'
        'upper-theorem: 3\n'
        'upper-cyclic: 2\n'
        'upper-prop: 2\n'
        'brute-min: 2\n'
    )),
    (PATH_PLUS_ISOLATED, 'bounds --json'): (0, (
        '{"lower": 2, "lower_matched": null, "upper_theorem": 3, '
        '"upper_cyclic": 2, "upper_prop": 2, "brute_min": 2}\n'
    )),
    (TWO_CYCLES, 'analyze'): (0, (
        'verdict: strongly-connectable\n'
        'r: 2\n'
        's: 2\n'
        't: 2\n'
        'c: 2\n'
        'c-prime: 0\n'
        'u: 2\n'
        'plan:\n'
        '+ 0 3\n'
        '+ 4 0\n'
        'n 6\n'
        '0 1\n'
        '0 3\n'
        '1 2\n'
        '2 0\n'
        '3 4\n'
        '4 0\n'
        '4 5\n'
        '5 3\n'
        'bounds:\n'
        'lower: 2\n'
        'upper-theorem: 2\n'
        'upper-cyclic: 2\n'
        'upper-prop: 2\n'
        'brute-min: 2\n'
    )),
    (TWO_CYCLES, 'analyze --json'): (0, (
        '{"verdict": "strongly-connectable", "summary": {"r": 2, "s": 2, '
        '"t": 2, "c": 2, "c_prime": 0, "u": 2}, "plan": {"added": [[0, '
        '3], [4, 0]], "resulting": {"n": 6, "edges": [[0, 1], [0, 3], [1, '
        '2], [2, 0], [3, 4], [4, 0], [4, 5], [5, 3]]}}, "bounds": '
        '{"lower": 2, "lower_matched": null, "upper_theorem": 2, '
        '"upper_cyclic": 2, "upper_prop": 2, "brute_min": 2}}\n'
    )),
    (TWO_CYCLES, 'extend'): (0, (
        '+ 0 3\n'
        '+ 4 0\n'
        'n 6\n'
        '0 1\n'
        '0 3\n'
        '1 2\n'
        '2 0\n'
        '3 4\n'
        '4 0\n'
        '4 5\n'
        '5 3\n'
    )),
    (TWO_CYCLES, 'extend --json'): (0, (
        '{"added": [[0, 3], [4, 0]], "resulting": {"n": 6, "edges": [[0, '
        '1], [0, 3], [1, 2], [2, 0], [3, 4], [4, 0], [4, 5], [5, 3]]}}\n'
    )),
    (TWO_CYCLES, 'extend --minimize'): (0, (
        'minimum: 2\n'
        '+ 0 3\n'
        '+ 3 1\n'
        'n 6\n'
        '0 1\n'
        '0 3\n'
        '1 2\n'
        '2 0\n'
        '3 1\n'
        '3 4\n'
        '4 5\n'
        '5 3\n'
    )),
    (TWO_CYCLES, 'extend --minimize --json'): (0, (
        '{"minimum": 2, "plan": {"added": [[0, 3], [3, 1]], "resulting": '
        '{"n": 6, "edges": [[0, 1], [0, 3], [1, 2], [2, 0], [3, 1], [3, '
        '4], [4, 5], [5, 3]]}}}\n'
    )),
    (TWO_CYCLES, 'bounds'): (0, (
        'lower: 2\n'
        'upper-theorem: 2\n'
        'upper-cyclic: 2\n'
        'upper-prop: 2\n'
        'brute-min: 2\n'
    )),
    (TWO_CYCLES, 'bounds --json'): (0, (
        '{"lower": 2, "lower_matched": null, "upper_theorem": 2, '
        '"upper_cyclic": 2, "upper_prop": 2, "brute_min": 2}\n'
    )),
    (TT3, 'analyze'): (1, (
        'verdict: not-strongly-connectable\n'
        'dicut: {0}\n'
        'r: 3\n'
        's: 1\n'
        't: 1\n'
        'c: 1\n'
        'c-prime: 1\n'
        'u: 2\n'
    )),
    (TT3, 'analyze --json'): (1, (
        '{"verdict": "not-strongly-connectable", "dicut": [0], "summary": '
        '{"r": 3, "s": 1, "t": 1, "c": 1, "c_prime": 1, "u": 2}}\n'
    )),
    (TT3, 'extend'): (1, 'dicut: {0}\n'),
    (TT3, 'extend --json'): (1, '{"dicut": [0]}\n'),
    (TT3, 'extend --minimize'): (1, (
        'no strong extension exists\n'
        'dicut: {0}\n'
    )),
    (TT3, 'extend --minimize --json'): (1, '{"dicut": [0]}\n'),
    (TT3, 'bounds'): (1, 'dicut: {0}\n'),
    (TT3, 'bounds --json'): (1, '{"dicut": [0]}\n'),
    (EDGELESS5, 'analyze'): (0, (
        'verdict: strongly-connectable\n'
        'r: 5\n'
        's: 5\n'
        't: 5\n'
        'c: 5\n'
        'c-prime: 0\n'
        'u: 5\n'
        'plan:\n'
        '+ 0 1\n'
        '+ 1 2\n'
        '+ 2 3\n'
        '+ 3 4\n'
        '+ 4 0\n'
        'n 5\n'
        '0 1\n'
        '1 2\n'
        '2 3\n'
        '3 4\n'
        '4 0\n'
        'bounds:\n'
        'lower: 5\n'
        'upper-theorem: 5\n'
        'upper-cyclic: 5\n'
        'upper-prop: 5\n'
        'brute-min: 5\n'
    )),
    (EDGELESS5, 'analyze --json'): (0, (
        '{"verdict": "strongly-connectable", "summary": {"r": 5, "s": 5, '
        '"t": 5, "c": 5, "c_prime": 0, "u": 5}, "plan": {"added": [[0, '
        '1], [1, 2], [2, 3], [3, 4], [4, 0]], "resulting": {"n": 5, '
        '"edges": [[0, 1], [1, 2], [2, 3], [3, 4], [4, 0]]}}, "bounds": '
        '{"lower": 5, "lower_matched": null, "upper_theorem": 5, '
        '"upper_cyclic": 5, "upper_prop": 5, "brute_min": 5}}\n'
    )),
    (EDGELESS5, 'extend'): (0, (
        '+ 0 1\n'
        '+ 1 2\n'
        '+ 2 3\n'
        '+ 3 4\n'
        '+ 4 0\n'
        'n 5\n'
        '0 1\n'
        '1 2\n'
        '2 3\n'
        '3 4\n'
        '4 0\n'
    )),
    (EDGELESS5, 'extend --json'): (0, (
        '{"added": [[0, 1], [1, 2], [2, 3], [3, 4], [4, 0]], "resulting": '
        '{"n": 5, "edges": [[0, 1], [1, 2], [2, 3], [3, 4], [4, 0]]}}\n'
    )),
    (EDGELESS5, 'extend --minimize'): (0, (
        'minimum: 5\n'
        '+ 0 1\n'
        '+ 1 2\n'
        '+ 2 3\n'
        '+ 3 4\n'
        '+ 4 0\n'
        'n 5\n'
        '0 1\n'
        '1 2\n'
        '2 3\n'
        '3 4\n'
        '4 0\n'
    )),
    (EDGELESS5, 'extend --minimize --json'): (0, (
        '{"minimum": 5, "plan": {"added": [[0, 1], [1, 2], [2, 3], [3, '
        '4], [4, 0]], "resulting": {"n": 5, "edges": [[0, 1], [1, 2], [2, '
        '3], [3, 4], [4, 0]]}}}\n'
    )),
    (EDGELESS5, 'bounds'): (0, (
        'lower: 5\n'
        'upper-theorem: 5\n'
        'upper-cyclic: 5\n'
        'upper-prop: 5\n'
        'brute-min: 5\n'
    )),
    (EDGELESS5, 'bounds --json'): (0, (
        '{"lower": 5, "lower_matched": null, "upper_theorem": 5, '
        '"upper_cyclic": 5, "upper_prop": 5, "brute_min": 5}\n'
    )),
    (CYCLE3, 'analyze'): (0, (
        'verdict: already-strong\n'
        'r: 1\n'
        's: 1\n'
        't: 1\n'
        'c: 1\n'
        'c-prime: 0\n'
        'u: 1\n'
    )),
    (CYCLE3, 'analyze --json'): (0, (
        '{"verdict": "already-strong", "summary": {"r": 1, "s": 1, "t": '
        '1, "c": 1, "c_prime": 0, "u": 1}}\n'
    )),
    (CYCLE3, 'extend'): (0, (
        'n 3\n'
        '0 1\n'
        '1 2\n'
        '2 0\n'
    )),
    (CYCLE3, 'extend --json'): (0, (
        '{"added": [], "resulting": {"n": 3, "edges": [[0, 1], [1, 2], '
        '[2, 0]]}}\n'
    )),
    (CYCLE3, 'extend --minimize'): (0, (
        'minimum: 0\n'
        'n 3\n'
        '0 1\n'
        '1 2\n'
        '2 0\n'
    )),
    (CYCLE3, 'extend --minimize --json'): (0, (
        '{"minimum": 0, "plan": {"added": [], "resulting": {"n": 3, '
        '"edges": [[0, 1], [1, 2], [2, 0]]}}}\n'
    )),
    (CYCLE3, 'bounds'): (0, (
        'lower: 0\n'
        'upper-theorem: 0\n'
        'brute-min: 0\n'
    )),
    (CYCLE3, 'bounds --json'): (0, (
        '{"lower": 0, "lower_matched": null, "upper_theorem": 0, '
        '"upper_cyclic": null, "upper_prop": null, "brute_min": 0}\n'
    )),
    (K22_MINUS, 'analyze'): (0, (
        'verdict: strongly-connectable\n'
        'r: 4\n'
        's: 2\n'
        't: 2\n'
        'c: 1\n'
        'c-prime: 1\n'
        'u: 4\n'
        'plan:\n'
        '+ 3 1\n'
        '+ 1 0\n'
        '+ 2 3\n'
        'n 4\n'
        '0 2\n'
        '0 3\n'
        '1 0\n'
        '1 2\n'
        '2 3\n'
        '3 1\n'
        'bounds:\n'
        'lower: 2\n'
        'lower-matched: 3\n'
        'upper-theorem: 3\n'
        'brute-min: 3\n'
    )),
    (K22_MINUS, 'analyze --json'): (0, (
        '{"verdict": "strongly-connectable", "summary": {"r": 4, "s": 2, '
        '"t": 2, "c": 1, "c_prime": 1, "u": 4}, "plan": {"added": [[3, '
        '1], [1, 0], [2, 3]], "resulting": {"n": 4, "edges": [[0, 2], [0, '
        '3], [1, 0], [1, 2], [2, 3], [3, 1]]}}, "bounds": {"lower": 2, '
        '"lower_matched": 3, "upper_theorem": 3, "upper_cyclic": null, '
        '"upper_prop": null, "brute_min": 3}}\n'
    )),
    (K22_MINUS, 'extend'): (0, (
        '+ 3 1\n'
        '+ 1 0\n'
        '+ 2 3\n'
        'n 4\n'
        '0 2\n'
        '0 3\n'
        '1 0\n'
        '1 2\n'
        '2 3\n'
        '3 1\n'
    )),
    (K22_MINUS, 'extend --json'): (0, (
        '{"added": [[3, 1], [1, 0], [2, 3]], "resulting": {"n": 4, '
        '"edges": [[0, 2], [0, 3], [1, 0], [1, 2], [2, 3], [3, 1]]}}\n'
    )),
    (K22_MINUS, 'extend --minimize'): (0, (
        'minimum: 3\n'
        '+ 1 0\n'
        '+ 2 3\n'
        '+ 3 1\n'
        'n 4\n'
        '0 2\n'
        '0 3\n'
        '1 0\n'
        '1 2\n'
        '2 3\n'
        '3 1\n'
    )),
    (K22_MINUS, 'extend --minimize --json'): (0, (
        '{"minimum": 3, "plan": {"added": [[1, 0], [2, 3], [3, 1]], '
        '"resulting": {"n": 4, "edges": [[0, 2], [0, 3], [1, 0], [1, 2], '
        '[2, 3], [3, 1]]}}}\n'
    )),
    (K22_MINUS, 'bounds'): (0, (
        'lower: 2\n'
        'lower-matched: 3\n'
        'upper-theorem: 3\n'
        'brute-min: 3\n'
    )),
    (K22_MINUS, 'bounds --json'): (0, (
        '{"lower": 2, "lower_matched": 3, "upper_theorem": 3, '
        '"upper_cyclic": null, "upper_prop": null, "brute_min": 3}\n'
    )),
}


@pytest.mark.parametrize(
    "graph, command",
    list(GOLDEN),
    ids=[
        "-".join([NAMES[graph], *(word.lstrip("-") for word in command.split())])
        for graph, command in GOLDEN
    ],
)
def test_transcript(capsys, tmp_path, graph, command):
    path = tmp_path / "graph.txt"
    path.write_text(graph)
    name, *flags = command.split()
    code = main([name, str(path), *flags])
    assert (code, capsys.readouterr().out) == GOLDEN[graph, command]
