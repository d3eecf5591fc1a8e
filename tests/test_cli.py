import argparse
import json
import os
import resource
import subprocess
import sys

import pytest
from hypothesis import given, settings

import strongext
from strongext import (
    MAX_DICE,
    BudgetError,
    DiceSet,
    StrictDigraph,
    StrongExtError,
    beats_digraph,
    bounds,
    brute_force_min_extension,
    extend,
    find_complete_dicut,
    gen_bipartite_plus_isolated,
    gen_disjoint_cycles,
    gen_tt_minus_path,
    is_balanced,
    is_strong,
    parse_edge_list,
    search_balanced_realization,
    serialize_edge_list,
    strong_components,
    win_matrix,
)
from strongext.cli import LOSER_TO_WINNER, WINNER_TO_LOSER, analyze, build_parser, main
from strategies import dice_sets, strict_digraphs

PATH3 = "n 3\n0 1\n1 2\n"
CYCLE3 = "n 3\n0 1\n1 2\n2 0\n"
TT3 = "n 3\n0 1\n0 2\n1 2\n"
ROCK_PAPER = "1 5 9\n3 4 8\n2 6 7\n"


def count_calls(monkeypatch, name: str, *modules: str) -> list[str]:
    """Wrap the function ``name`` in each module; the returned list gets
    one entry per call through any of them."""
    calls: list[str] = []
    original = getattr(sys.modules[modules[0]], name)

    def counted(*args, **kwargs):
        calls.append(name)
        return original(*args, **kwargs)

    for module in modules:
        monkeypatch.setattr(sys.modules[module], name, counted)
    return calls


def count_builds(monkeypatch, cls, name: str) -> list[str]:
    """Wrap the function behind the cached property ``name`` of ``cls``;
    the returned list gets one entry per computation, none per cache hit."""
    calls: list[str] = []
    prop = vars(cls)[name]
    original = prop.func

    def counted(self):
        calls.append(name)
        return original(self)

    monkeypatch.setattr(prop, "func", counted)
    return calls


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def write(tmp_path):
    def _write(text, name="input.txt"):
        path = tmp_path / name
        path.write_text(text)
        return str(path)

    return _write


class TestAnalyze:
    def test_connectable(self, capsys, write):
        code, out, err = run(capsys, "analyze", write(PATH3))
        assert code == 0
        assert out == (
            "verdict: strongly-connectable\n"
            "r: 3\ns: 1\nt: 1\nc: 1\nc-prime: 1\nu: 2\n"
            "plan:\n+ 2 0\nn 3\n0 1\n1 2\n2 0\n"
            "bounds:\nlower: 1\nupper-theorem: 2\nbrute-min: 1\n"
        )
        assert err == ""

    def test_not_connectable(self, capsys, write):
        code, out, _ = run(capsys, "analyze", write(TT3))
        assert code == 1
        assert out == (
            "verdict: not-strongly-connectable\n"
            "dicut: {0}\n"
            "r: 3\ns: 1\nt: 1\nc: 1\nc-prime: 1\nu: 2\n"
        )

    def test_already_strong(self, capsys, write):
        code, out, _ = run(capsys, "analyze", write(CYCLE3))
        assert code == 0
        assert out == (
            "verdict: already-strong\n"
            "r: 1\ns: 1\nt: 1\nc: 1\nc-prime: 0\nu: 1\n"
        )

    def test_too_small(self, capsys, write):
        code, out, _ = run(capsys, "analyze", write("n 2\n0 1\n"))
        assert code == 2
        assert out == "verdict: too-small\n"

    def test_empty_graph_is_an_error(self, capsys, write):
        code, _, err = run(capsys, "analyze", write("n 0\n"))
        assert code == 2
        assert err.startswith("error:")

    def test_json(self, capsys, write):
        code, out, _ = run(capsys, "analyze", write(PATH3), "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["verdict"] == "strongly-connectable"
        assert payload["summary"] == {
            "r": 3, "s": 1, "t": 1, "c": 1, "c_prime": 1, "u": 2,
        }
        assert payload["plan"]["added"] == [[2, 0]]
        assert payload["plan"]["resulting"]["n"] == 3
        assert payload["bounds"]["lower"] == 1
        assert payload["bounds"]["lower_matched"] is None
        assert payload["bounds"]["brute_min"] == 1

    def test_json_edgeless_large(self, capsys, write):
        code, out, _ = run(capsys, "analyze", "--json", write("n 20000\n"))
        assert code == 0
        payload = json.loads(out)
        assert payload["verdict"] == "strongly-connectable"
        assert len(payload["plan"]["added"]) == 20000

    def test_json_one_edge_large(self, capsys, write):
        # 19 999 weak components, each with one source and one sink
        # component: the links alone make the digraph strong
        code, out, _ = run(capsys, "analyze", "--json", write("n 20000\n0 1\n"))
        assert code == 0
        payload = json.loads(out)
        assert payload["verdict"] == "strongly-connectable"
        added = payload["plan"]["added"]
        assert len(added) == 19_999
        assert added[:2] == [[1, 2], [2, 3]] and added[-1] == [19_999, 0]
        assert len(payload["plan"]["resulting"]["edges"]) == 20_000

    def test_json_one_edge_two_sources_large(self, capsys, write):
        # vertex 2's source stays outside the cycle of links, so growth
        # runs, starting from the condensation of the linked digraph
        code, out, _ = run(
            capsys, "analyze", "--json", write("n 20000\n0 1\n2 1\n")
        )
        assert code == 0
        plan = json.loads(out)["plan"]
        assert len(plan["added"]) == 19_999
        resulting = plan["resulting"]
        g = StrictDigraph(resulting["n"], map(tuple, resulting["edges"]))
        assert is_strong(g)

    def test_condenses_once_inside_the_search_budget(
        self, capsys, write, monkeypatch
    ):
        # the report, extend, bounds and the exact search share the
        # digraph's one condensation and one dicut test
        condensed = count_builds(monkeypatch, StrictDigraph, "_condensation")
        tested = count_builds(monkeypatch, StrictDigraph, "_dicut_chain")
        text = serialize_edge_list(gen_bipartite_plus_isolated(2, 3))
        code, out, _ = run(capsys, "analyze", write(text))
        assert code == 0
        assert "brute-min: 5\n" in out
        assert condensed == ["_condensation"]
        assert tested == ["_dicut_chain"]

    def test_reports_through_public_extend_and_bounds(
        self, capsys, write, monkeypatch
    ):
        extended = count_calls(monkeypatch, "extend", "strongext.cli")
        bounded = count_calls(monkeypatch, "bounds", "strongext.cli")
        code, _, _ = run(capsys, "analyze", write(PATH3))
        assert code == 0
        assert extended == ["extend"]
        assert bounded == ["bounds"]

    def test_connected_input_is_not_condensed_again(
        self, capsys, write, monkeypatch
    ):
        # with one weak component there are no links, so growth starts
        # from the input's own condensation
        calls = count_calls(
            monkeypatch, "_tarjan_sccs", "strongext.digraph", "strongext.extend"
        )
        text = serialize_edge_list(gen_tt_minus_path(12))
        code, out, _ = run(capsys, "analyze", write(text))
        assert code == 0
        assert "c: 1\n" in out and "r: 12\n" in out
        assert calls == ["_tarjan_sccs"]

    def test_json_dicut(self, capsys, write):
        code, out, _ = run(capsys, "analyze", write(TT3), "--json")
        assert code == 1
        payload = json.loads(out)
        assert payload["verdict"] == "not-strongly-connectable"
        assert payload["dicut"] == [0]


class TestCertify:
    def test_produce_extension(self, capsys, write):
        code, out, _ = run(capsys, "certify", write(PATH3))
        assert code == 0
        assert out == "+ 2 0\n"

    def test_produce_on_strong_graph_is_empty(self, capsys, write):
        code, out, _ = run(capsys, "certify", write(CYCLE3))
        assert code == 0
        assert out == ""

    def test_produce_dicut(self, capsys, write):
        code, out, _ = run(capsys, "certify", write(TT3))
        assert code == 1
        assert out == "dicut: {0}\n"

    def test_round_trip_extension(self, capsys, write):
        graph = write(PATH3)
        _, out, _ = run(capsys, "certify", graph)
        cert = write(out, "cert.txt")
        code, out, _ = run(capsys, "certify", graph, "--verify", cert)
        assert code == 0
        assert out == "valid\n"

    def test_round_trip_dicut(self, capsys, write):
        graph = write(TT3)
        _, out, _ = run(capsys, "certify", graph)
        cert = write(out, "cert.txt")
        code, out, _ = run(capsys, "certify", graph, "--verify", cert)
        assert code == 0
        assert out == "valid\n"

    def test_dicut_invalid_after_graph_edit(self, capsys, write):
        # same certificate, but the forward edge 0->2 was removed
        cert = write("dicut: {0}\n", "cert.txt")
        code, out, _ = run(
            capsys, "certify", write("n 3\n0 1\n1 2\n"), "--verify", cert
        )
        assert code == 1
        assert out == "invalid\n"

    def test_dicut_with_back_edge_is_invalid(self, capsys, write):
        cert = write("dicut: {1}\n", "cert.txt")
        code, out, _ = run(capsys, "certify", write(TT3), "--verify", cert)
        assert code == 1
        assert out == "invalid\n"

    @pytest.mark.parametrize("side", ["{5}", "{}", "{0, 1, 2}"])
    def test_dicut_side_not_a_nonempty_proper_subset_is_invalid(
        self, capsys, write, side
    ):
        # the empty side and the whole vertex set pass the edge counts, 0
        # edges across of 0 needed; the subset check alone rejects them
        cert = write(f"dicut: {side}\n", "cert.txt")
        code, out, _ = run(capsys, "certify", write(TT3), "--verify", cert)
        assert code == 1
        assert out == "invalid\n"

    def test_extension_not_reaching_strong_is_invalid(self, capsys, write):
        cert = write("+ 0 2\n", "cert.txt")
        code, out, _ = run(capsys, "certify", write(PATH3), "--verify", cert)
        assert code == 1
        assert out == "invalid\n"

    def test_extension_with_bad_edge_is_invalid(self, capsys, write):
        cert = write("+ 5 0\n", "cert.txt")
        code, out, _ = run(capsys, "certify", write(PATH3), "--verify", cert)
        assert code == 1
        assert out == "invalid\n"

    def test_extension_listing_an_edge_twice_is_invalid(self, capsys, write):
        # each added edge must be new to the input and to the list, so the
        # strong extension + 2 0 is invalid once it is listed twice
        graph = write(PATH3)
        for cert, expected in (("+ 2 0\n", 0), ("+ 2 0\n+ 2 0\n", 1)):
            code, out, _ = run(
                capsys, "certify", graph, "--verify", write(cert, "cert.txt")
            )
            assert (code, out) == (expected, ("valid\n", "invalid\n")[expected])

    def test_empty_certificate_on_strong_graph(self, capsys, write):
        cert = write("# nothing added\n", "cert.txt")
        code, out, _ = run(capsys, "certify", write(CYCLE3), "--verify", cert)
        assert code == 0
        assert out == "valid\n"

    def test_garbage_certificate_is_input_error(self, capsys, write):
        cert = write("hello\n", "cert.txt")
        code, _, err = run(capsys, "certify", write(PATH3), "--verify", cert)
        assert code == 2
        assert "line 1" in err

    def test_mixed_certificate_is_input_error(self, capsys, write):
        cert = write("dicut: {0}\n+ 1 0\n", "cert.txt")
        code, _, err = run(capsys, "certify", write(TT3), "--verify", cert)
        assert code == 2
        assert "line 2" in err

    @pytest.mark.parametrize(
        "cert, lineno",
        [
            ("dicut: 0\n", 1),
            ("dicut: {x}\n", 1),
            ("dicut: {0}\ndicut: {1}\n", 2),
            ("dicut: {0}\n+ 0 1\n", 2),
            ("+ 0 1\ndicut: {0}\n", 2),
            ("+ 0\n", 1),
            ("+ a b\n", 1),
            ("what\n", 1),
        ],
    )
    def test_malformed_certificate_names_its_line(self, capsys, write, cert, lineno):
        code, out, err = run(
            capsys, "certify", write(TT3), "--verify", write(cert, "cert.txt")
        )
        assert (code, out) == (2, "")
        assert err.startswith(f"error: line {lineno}: ")

    @pytest.mark.parametrize(
        "cert, err",
        [
            ("dicut: 0\n", "error: line 1: expected '{v1, v2, ...}' after 'dicut:'\n"),
            ("dicut: {x}\n", "error: line 1: bad vertex list 'x'\n"),
        ],
    )
    def test_malformed_dicut_line_message(self, capsys, write, cert, err):
        assert run(
            capsys, "certify", write(TT3), "--verify", write(cert, "cert.txt")
        ) == (2, "", err)

    @pytest.mark.parametrize(
        "graph, cert",
        [
            (PATH3, "+ 2 0\n"),
            (PATH3, "+ 0 2\n"),
            (TT3, "dicut: {0}\n"),
            (TT3, "dicut: {1}\n"),
            (CYCLE3, ""),
        ],
    )
    def test_comments_keep_the_verdict(self, capsys, write, graph, cert):
        commented = "# certificate\n" + cert.replace("\n", "  # checked\n")
        verdicts = [
            run(capsys, "certify", write(graph), "--verify", write(text, "cert.txt"))
            for text in (cert, commented)
        ]
        assert verdicts[0] == verdicts[1]
        assert verdicts[0][2] == ""


class TestExtend:
    def test_plan(self, capsys, write):
        code, out, _ = run(capsys, "extend", write(PATH3))
        assert code == 0
        assert out == "+ 2 0\nn 3\n0 1\n1 2\n2 0\n"

    def test_dicut_input(self, capsys, write):
        code, out, _ = run(capsys, "extend", write(TT3))
        assert code == 1
        assert out == "dicut: {0}\n"

    def test_minimize(self, capsys, write):
        code, out, _ = run(capsys, "extend", write(PATH3), "--minimize")
        assert code == 0
        assert out == "minimum: 1\n+ 2 0\nn 3\n0 1\n1 2\n2 0\n"

    def test_minimize_dicut_input(self, capsys, write):
        code, out, _ = run(capsys, "extend", write(TT3), "--minimize")
        assert code == 1
        assert out == "no strong extension exists\ndicut: {0}\n"

    def test_minimize_dicut_input_inside_budget(self, capsys, write):
        # plain enumeration would try about 10^10 candidate sets here
        out_star = "n 8\n" + "".join(f"0 {v}\n" for v in range(1, 8))
        code, out, _ = run(capsys, "extend", write(out_star), "--minimize")
        assert code == 1
        assert out == "no strong extension exists\ndicut: {0}\n"

    def test_minimize_dicut_input_above_budget(self, capsys, write):
        # a complete dicut needs no search, so the size budget does not apply
        tt11 = "n 11\n" + "".join(
            f"{i} {j}\n" for i in range(11) for j in range(i + 1, 11)
        )
        code, out, err = run(capsys, "extend", write(tt11), "--minimize")
        assert code == 1
        assert out == "no strong extension exists\ndicut: {0}\n"
        assert err == ""

    @pytest.mark.parametrize("graph", ["n 0\n", "n 1\n", "n 2\n", "n 2\n0 1\n"])
    def test_minimize_too_small(self, capsys, write, graph):
        code, out, err = run(capsys, "extend", write(graph), "--minimize")
        assert code == 2
        assert out == ""
        assert err.startswith("error: need at least 3 vertices")

    def test_minimize_budget(self, capsys, write):
        code, _, err = run(capsys, "extend", write("n 23\n"), "--minimize")
        assert code == 3
        assert err.startswith("budget exceeded:")

    def test_json(self, capsys, write):
        code, out, _ = run(capsys, "extend", write(PATH3), "--json")
        assert code == 0
        assert json.loads(out)["added"] == [[2, 0]]

    def test_minimize_json(self, capsys, write):
        code, out, _ = run(
            capsys, "extend", write(PATH3), "--minimize", "--json"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["minimum"] == 1
        assert payload["plan"]["added"] == [[2, 0]]


class TestBounds:
    def test_text(self, capsys, write):
        code, out, _ = run(capsys, "bounds", write(PATH3))
        assert code == 0
        assert out == "lower: 1\nupper-theorem: 2\nbrute-min: 1\n"

    def test_strong_input_outside_search_budget(self, capsys, write):
        cycle12 = "n 12\n" + "".join(f"{i} {(i + 1) % 12}\n" for i in range(12))
        code, out, _ = run(capsys, "bounds", write(cycle12))
        assert code == 0
        assert out == "lower: 0\nupper-theorem: 0\nbrute-min: 0\n"

    def test_dicut_input(self, capsys, write):
        code, out, _ = run(capsys, "bounds", write(TT3))
        assert code == 1
        assert out == "dicut: {0}\n"

    def test_json(self, capsys, write):
        code, out, _ = run(capsys, "bounds", write(PATH3), "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["lower"] == 1
        assert payload["upper_theorem"] == 2
        assert payload["upper_cyclic"] is None


class TestDiceEval:
    def test_report(self, capsys, write):
        code, out, _ = run(capsys, "dice", "eval", write(ROCK_PAPER))
        assert code == 0
        assert out == (
            "dice:\n1 5 9\n3 4 8\n2 6 7\n"
            "win-matrix:\n- 5/9 4/9\n4/9 - 5/9\n5/9 4/9 -\n"
            "balanced: yes (p = 5/9)\n"
            "beats (winner-to-loser):\nn 3\n0 1\n1 2\n2 0\n"
        )

    def test_direction_flag(self, capsys, write):
        code, out, _ = run(
            capsys,
            "dice", "eval", write(ROCK_PAPER),
            "--direction", "loser-to-winner",
        )
        assert code == 0
        assert "beats (loser-to-winner):\nn 3\n0 2\n1 0\n2 1\n" in out

    def test_single_die(self, capsys, write):
        code, out, _ = run(capsys, "dice", "eval", write("1 2\n"))
        assert code == 0
        assert "balanced: n/a (single die)" in out
        assert "win-matrix:\n-\n" in out

    def test_degenerate_sure_win(self, capsys, write):
        code, out, _ = run(capsys, "dice", "eval", write("1 2\n3 4\n"))
        assert code == 0
        assert "balanced: yes (degenerate, p = 1)" in out

    def test_degenerate_dead_even(self, capsys, write):
        code, out, _ = run(capsys, "dice", "eval", write("1 4\n2 3\n"))
        assert code == 0
        assert "balanced: yes (degenerate, p = 1/2)" in out
        assert "beats (winner-to-loser):\nn 2\n" in out

    def test_unbalanced(self, capsys, write):
        code, out, _ = run(capsys, "dice", "eval", write("1 2 6\n3 4 5\n7 8 9\n"))
        assert code == 0
        assert "balanced: no" in out

    def test_json(self, capsys, write):
        code, out, _ = run(capsys, "dice", "eval", write(ROCK_PAPER), "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["dice"] == [[1, 5, 9], [3, 4, 8], [2, 6, 7]]
        assert payload["win_counts"] == [[None, 5, 4], [4, None, 5], [5, 4, None]]
        assert payload["balanced"] is True
        assert payload["p"] == "5/9"
        assert payload["beats"]["edges"] == [[0, 1], [1, 2], [2, 0]]

    def test_twenty_thousand_faces(self, capsys, write):
        # odd faces against even ones: each odd face 2i + 1 beats i faces
        odd = " ".join(str(2 * i + 1) for i in range(20_000))
        even = " ".join(str(2 * i + 2) for i in range(20_000))
        path = write(f"{odd}\n{even}\n")
        code, out, _ = run(capsys, "dice", "eval", path, "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["win_counts"] == [[None, 199_990_000], [200_010_000, None]]
        assert payload["p"] == "20001/40000"
        assert payload["beats"]["edges"] == [[1, 0]]
        code, out, _ = run(capsys, "dice", "eval", path)
        assert code == 0
        assert "- 199990000/400000000\n200010000/400000000 -\n" in out

    @pytest.mark.parametrize("extra", [[], ["--json"]])
    def test_builds_one_win_matrix(self, capsys, write, monkeypatch, extra):
        calls = count_builds(monkeypatch, DiceSet, "_win_matrix")
        code, _, _ = run(capsys, "dice", "eval", write(ROCK_PAPER), *extra)
        assert code == 0
        assert calls == ["_win_matrix"]

    @pytest.mark.parametrize("extra", [[], ["--json"]])
    def test_dice_count_limit(self, capsys, write, monkeypatch, extra):
        # one die past the limit is refused at its line, before any win
        # count is made
        calls = count_builds(monkeypatch, DiceSet, "_win_matrix")
        text = "".join(f"{face}\n" for face in range(1, MAX_DICE + 2))
        code, out, err = run(capsys, "dice", "eval", write(text), *extra)
        assert (code, out) == (2, "")
        assert err == (
            f"error: line {MAX_DICE + 1}: "
            f"dice count exceeds the limit of {MAX_DICE}\n"
        )
        assert calls == []

    def test_bad_dice_file(self, capsys, write):
        code, _, err = run(capsys, "dice", "eval", write("1 2\n2 3\n"))
        assert code == 2
        assert "error:" in err


class TestDiceRealize:
    def test_success(self, capsys, write):
        code, out, _ = run(
            capsys, "dice", "realize", write(CYCLE3), "-k", "3"
        )
        assert code == 0
        assert out == "1 5 9\n3 4 8\n2 6 7\np: 5/9\n"

    def test_dicut_target(self, capsys, write):
        code, out, _ = run(capsys, "dice", "realize", write(TT3), "-k", "3")
        assert code == 1
        assert out == (
            "no balanced realization with 3-sided dice\ndicut: {0}\n"
        )

    def test_exhausted_without_dicut(self, capsys, write):
        code, out, _ = run(capsys, "dice", "realize", write(CYCLE3), "-k", "1")
        assert code == 1
        assert out == (
            "no balanced realization with 1-sided dice\n"
            "no complete dicut found; larger dice may admit a realization\n"
        )

    def test_one_face_answered_at_once(self, capsys, write):
        # 10! deals are inside the budget; dealing them all took minutes
        code, out, _ = run(
            capsys, "dice", "realize", write("n 10\n0 1\n"), "-k", "1"
        )
        assert code == 1
        assert out == (
            "no balanced realization with 1-sided dice\n"
            "no complete dicut found; larger dice may admit a realization\n"
        )

    def test_budget(self, capsys, write):
        code, _, err = run(capsys, "dice", "realize", write("n 4\n"), "-k", "4")
        assert code == 3
        assert err.startswith("budget exceeded:")

    @pytest.mark.parametrize(
        "graph, k",
        [("n 2000\n", "1"), ("n 2000\n", "2"), (CYCLE3, "1000000000")],
    )
    def test_budget_on_huge_deal_counts(self, capsys, write, graph, k):
        # dice of one or two faces need no deal, so 2000! deals or more are
        # answered, not refused; a billion faces on a 3-cycle need one and
        # are refused
        code, out, err = run(capsys, "dice", "realize", write(graph), "-k", k)
        assert "Traceback" not in err
        if k in ("1", "2"):
            assert (code, err) == (1, "")
            assert out == (
                f"no balanced realization with {k}-sided dice\n"
                "no complete dicut found; larger dice may admit a realization\n"
            )
        else:
            assert code == 3
            assert out == ""
            assert err.startswith("budget exceeded:")

    def test_json_success(self, capsys, write):
        code, out, _ = run(
            capsys, "dice", "realize", write(CYCLE3), "-k", "3", "--json"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["dice"] == [[1, 5, 9], [3, 4, 8], [2, 6, 7]]
        assert payload["p"] == "5/9"

    def test_json_failure(self, capsys, write):
        code, out, _ = run(
            capsys, "dice", "realize", write(TT3), "-k", "3", "--json"
        )
        assert code == 1
        payload = json.loads(out)
        assert payload["dice"] is None
        assert payload["reason"] == "complete-dicut"
        assert payload["dicut"] == [0]

    def test_too_small_target(self, capsys, write):
        code, _, err = run(
            capsys, "dice", "realize", write("n 2\n0 1\n"), "-k", "3"
        )
        assert code == 2
        assert "error:" in err


class TestDirection:
    @pytest.mark.parametrize("command", ["eval", "realize"])
    def test_unknown_direction_is_refused(self, capsys, write, command):
        # the library takes no orientation, so the option's choices are
        # the one guard against an unknown one
        text = ROCK_PAPER if command == "eval" else CYCLE3
        argv = ["dice", command, write(text), "--direction", "sideways"]
        if command == "realize":
            argv += ["-k", "3"]
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert "invalid choice: 'sideways'" in err


class TestSearchEntryOrder:
    """Each exhaustive search checks its arguments, answers what needs no
    search, and only then checks its one budget, before any setup."""

    def test_no_search_answers_come_before_the_budget(self, capsys, write):
        # a strong input and a complete dicut past the 10-vertex budget
        cycle12 = gen_disjoint_cycles(12, 1)
        tt11 = StrictDigraph(11, [(i, j) for i in range(11) for j in range(i + 1, 11)])
        assert bounds(cycle12).brute_min == 0
        assert brute_force_min_extension(cycle12)[0] == 0
        assert brute_force_min_extension(tt11) is None
        code, out, _ = run(capsys, "bounds", write(serialize_edge_list(cycle12)))
        assert code == 0 and out.endswith("brute-min: 0\n")
        code, out, err = run(
            capsys, "extend", write(serialize_edge_list(tt11)), "--minimize"
        )
        assert (code, out, err) == (1, "no strong extension exists\ndicut: {0}\n", "")
        # TT5 has no cyclic completion, and dice of one or two faces never
        # cycle; all three are past the deal budget
        tt5 = serialize_edge_list(
            StrictDigraph(5, [(i, j) for i in range(5) for j in range(i + 1, 5)])
        )
        for text, k in ((tt5, 3), ("n 2000\n", 1), ("n 2000\n", 2)):
            assert search_balanced_realization(parse_edge_list(text), k) is None
            for direction in (WINNER_TO_LOSER, LOSER_TO_WINNER):
                code, out, err = run(
                    capsys, "dice", "realize", write(text), "-k", str(k),
                    "--direction", direction,
                )
                assert (code, err) == (1, "")
                assert out.startswith(f"no balanced realization with {k}-sided dice\n")
        # inputs that need a search are refused as before
        edgeless11 = StrictDigraph(11)
        assert bounds(edgeless11).brute_min is None
        with pytest.raises(BudgetError) as refused:
            brute_force_min_extension(edgeless11)
        assert str(refused.value) == (
            "minimum-extension search supports at most 24 addable pairs on "
            "10 vertices; got 55 pairs on 11 vertices"
        )
        with pytest.raises(BudgetError) as refused:
            search_balanced_realization(parse_edge_list(CYCLE3), 10**9)
        assert str(refused.value) == (
            "dealing 3 dice of 1000000000 faces has more than 10000000 "
            "complete deals, the search budget"
        )

    def test_budget_comes_before_the_pair_list(self, capsys, write, monkeypatch):
        # n 200 has 19 899 free pairs; listing them is the search's
        # quadratic setup, which the budget must refuse first
        def no_pairs(self):
            raise AssertionError("listed the free pairs of an input over budget")

        monkeypatch.setattr(StrictDigraph, "nonadjacent_pairs", no_pairs)
        text = "n 200\n0 1\n"
        assert bounds(parse_edge_list(text)).brute_min is None
        report = analyze(parse_edge_list(text))
        assert report.bounds_report.brute_min is None
        code, out, _ = run(capsys, "analyze", write(text))
        assert code == 0 and "brute-min" not in out


class TestGen:
    def test_tt_minus_path(self, capsys):
        code, out, _ = run(capsys, "gen", "tt-minus-path", "3")
        assert code == 0
        assert out == "n 3\n0 2\n"

    def test_bipartite(self, capsys):
        code, out, _ = run(capsys, "gen", "bipartite", "1", "2")
        assert code == 0
        assert out == "n 4\n0 1\n0 2\n"

    def test_cycles(self, capsys):
        code, out, _ = run(capsys, "gen", "cycles", "3", "2")
        assert code == 0
        assert out == "n 6\n0 1\n1 2\n2 0\n3 4\n4 5\n5 3\n"

    def test_wrong_arity(self, capsys):
        code, _, err = run(capsys, "gen", "tt-minus-path")
        assert code == 2
        assert "parameter" in err

    def test_bad_value(self, capsys):
        code, _, err = run(capsys, "gen", "tt-minus-path", "1")
        assert code == 2
        assert "error:" in err

    def test_unknown_family(self, capsys):
        code, _, _ = run(capsys, "gen", "grid", "3")
        assert code == 2


class TestPlumbing:
    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "analyze", "/nonexistent/graph.txt")
        assert code == 2
        assert err.startswith("error:")

    @pytest.mark.parametrize(
        "argv", [("analyze",), ("dice", "eval"), ("certify", "--verify")]
    )
    def test_non_utf8_input_is_an_error(self, capsys, tmp_path, write, argv):
        bad = tmp_path / "latin1.txt"
        bad.write_bytes("n 3\n0 1 # caf\xe9\n".encode("latin-1"))
        if argv[0] == "certify":
            argv = ("certify", write(PATH3), "--verify", str(bad))
        else:
            argv = argv + (str(bad),)
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and "UTF-8" in err

    def test_huge_vertex_count_is_an_error(self, capsys, write):
        code, out, err = run(capsys, "analyze", write("n 3000000000\n"))
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and "Traceback" not in err

    def test_parse_error_reports_line(self, capsys, write):
        code, _, err = run(capsys, "analyze", write("n 3\n0 0\n"))
        assert code == 2
        assert "line 2" in err

    def test_no_arguments(self, capsys):
        assert run(capsys)[0] == 2

    def test_unknown_command(self, capsys):
        assert run(capsys, "frobnicate")[0] == 2

    def test_help(self, capsys):
        assert run(capsys, "--help")[0] == 0


class TestCachedDerivedData:
    @settings(max_examples=200, deadline=None)
    @given(strict_digraphs(min_n=1, max_n=6))
    def test_earlier_queries_leave_analyze_unchanged(self, g):
        text = serialize_edge_list(g)
        fresh, used = parse_edge_list(text), parse_edge_list(text)
        for query in (extend, bounds, find_complete_dicut, is_strong):
            try:
                query(used)
            except StrongExtError:
                pass
        if g.n >= 3:
            assert "_dicut_chain" in vars(used)
        # the caches take no part in equality, hashing or repr
        assert vars(fresh).keys().isdisjoint(["_condensation", "_dicut_chain"])
        assert used == fresh and hash(used) == hash(fresh)
        assert repr(used) == repr(fresh)
        reports = analyze(fresh), analyze(used)
        assert reports[1].to_text() == reports[0].to_text()
        assert reports[1].to_json() == reports[0].to_json()
        assert strong_components(used) is strong_components(used)

    @given(dice_sets(min_dice=2))
    def test_win_matrix_is_cached_on_the_frozen_set(self, d):
        fresh = DiceSet(d.dice)
        with pytest.raises(AttributeError):
            d.dice = fresh.dice[::-1]
        assert d.dice == fresh.dice
        is_balanced(d)
        assert win_matrix(d) is vars(d)["_win_matrix"]
        # the cache takes no part in equality, hashing or repr
        assert "_win_matrix" not in vars(fresh)
        assert d == fresh and hash(d) == hash(fresh) and repr(d) == repr(fresh)
        assert beats_digraph(d) == beats_digraph(fresh)


class TestParserReuse:
    def test_calls_in_one_process_share_no_state(self, capsys, write):
        graph = write(PATH3)
        code, _, err = run(capsys, "dice", "realize", graph)
        assert code == 2
        assert "-k" in err
        code, out, _ = run(capsys, "analyze", graph, "--json")
        assert code == 0
        assert json.loads(out)["verdict"] == "strongly-connectable"
        code, out, _ = run(capsys, "analyze", graph)
        assert code == 0
        assert out.startswith("verdict: strongly-connectable\n")
        code, out, _ = run(capsys, "--help")
        assert code == 0
        assert out.startswith("usage: strongext")

    def test_build_parser_returns_a_parser(self):
        assert isinstance(build_parser(), argparse.ArgumentParser)


class RootParsed(Exception):
    pass


class TestCommandParsers:
    """A command's arguments go to that command's own parser; the root
    parser runs only for help, unknown words and leftover arguments."""

    @staticmethod
    def refuse_root(monkeypatch):
        def refuse(*args, **kwargs):
            raise RootParsed

        for name in ("parse_args", "parse_known_args"):
            monkeypatch.setattr(build_parser(), name, refuse)

    def test_commands_skip_the_root(self, capsys, write, monkeypatch):
        graph, dice = write(PATH3), write(ROCK_PAPER, "dice.txt")
        cert = write(run(capsys, "certify", graph)[1], "cert.txt")
        calls = [
            ("analyze", graph),
            ("analyze", graph, "--json"),
            ("certify", graph),
            ("certify", graph, "--verify", cert),
            ("extend", graph, "--json"),
            ("bounds", graph),
            ("dice", "eval", dice),
            ("dice", "realize", graph, "-k", "3"),
            ("gen", "cycles", "3", "2"),
        ]
        unpatched = [run(capsys, *argv) for argv in calls]
        assert {code for code, _, _ in unpatched} == {0}
        self.refuse_root(monkeypatch)
        assert [run(capsys, *argv) for argv in calls] == unpatched

    def test_leftovers_reach_the_root(self, capsys, write, monkeypatch):
        graph = write(PATH3)
        code, out, err = run(capsys, "analyze", graph, "extra")
        assert (code, out) == (2, "")
        assert err.startswith("usage: strongext [-h]")
        assert err.endswith("error: unrecognized arguments: extra\n")
        self.refuse_root(monkeypatch)
        with pytest.raises(RootParsed):
            main(["analyze", graph, "extra"])


class TestFreshProcess:
    """``python -m strongext.cli`` in a new interpreter, with and without -O."""

    @staticmethod
    def cli(flags, *argv, preexec_fn=None):
        src = os.path.dirname(os.path.dirname(os.path.abspath(strongext.__file__)))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        return subprocess.run(
            [sys.executable, *flags, "-m", "strongext.cli", *argv],
            capture_output=True, text=True, env=env, timeout=60,
            preexec_fn=preexec_fn,
        )

    @pytest.mark.parametrize("flags", [(), ("-O",)])
    def test_analyze_json_is_one_line(self, capsys, write, flags):
        graph = write(PATH3)
        done = self.cli(flags, "analyze", graph, "--json")
        assert done.returncode == 0
        assert done.stdout.endswith("\n") and done.stdout.count("\n") == 1
        _, expected, _ = run(capsys, "analyze", graph, "--json")
        assert json.loads(done.stdout) == json.loads(expected)

    @pytest.mark.parametrize("flags", [(), ("-O",)])
    def test_parse_error_exits_2_without_traceback(self, write, flags):
        done = self.cli(flags, "analyze", write("n 3\n0 0\n"))
        assert done.returncode == 2
        assert done.stdout == ""
        assert "line 2" in done.stderr
        assert "Traceback" not in done.stderr

    @pytest.mark.parametrize(
        "params, stderr",
        [
            # each id names the refused count
            pytest.param(
                ("cycles", "3", "400000"),
                "error: vertex count 1200000 exceeds the limit of 1000000\n",
                id="params0-1200000",
            ),
            pytest.param(
                ("bipartite", "500000", "500000"),
                "error: vertex count 1000001 exceeds the limit of 1000000\n",
                id="params1-1000001",
            ),
            pytest.param(
                ("tt-minus-path", "1000000"),
                "error: edge count 499998500001 exceeds the limit of 1000000\n",
                id="params2-499998500001",
            ),
            pytest.param(
                ("bipartite", "1000", "1001"),
                "error: edge count 1001000 exceeds the limit of 1000000\n",
                id="params3-1001000",
            ),
        ],
    )
    def test_gen_vertex_limit(self, params, stderr):
        # gen refuses the vertex or edge count before building any edge; the
        # 1 GiB address-space cap makes a missing check fail fast (the first
        # bipartite case would build 2.5 * 10**11 edges) instead of filling
        # memory
        def cap():
            resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

        done = self.cli((), "gen", *params, preexec_fn=cap)
        assert done.returncode == 2
        assert done.stdout == ""
        assert done.stderr == stderr
