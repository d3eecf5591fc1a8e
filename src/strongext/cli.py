"""Command-line interface.

Subcommands: analyze, certify, extend, bounds, dice eval, dice realize, gen.
Exit codes: 0 success or connectable, 1 negative verdict, 2 input error,
3 budget exceeded.  All output is deterministic; --json switches the
report-style commands to a machine-readable variant with the same content,
printed as one compact JSON line.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from typing import NamedTuple

from .dice import (
    beats_digraph,
    is_balanced,
    parse_dice,
    search_balanced_realization,
    serialize_dice,
    win_matrix,
)
from .dicut import (
    find_complete_dicut,
    format_added_edges,
    format_certificate,
    verify_certificate,
)
from .digraph import (
    Condensation,
    StrictDigraph,
    parse_edge_list,
    serialize_edge_list,
    strong_components,
)
from .errors import (
    BudgetError,
    EmptyGraphError,
    HasCompleteDicutError,
    InvalidInputError,
    StrongExtError,
)
from .extend import (
    BoundsReport,
    ExtensionPlan,
    bounds,
    brute_force_min_extension,
    extend,
    gen_bipartite_plus_isolated,
    gen_disjoint_cycles,
    gen_tt_minus_path,
)

VERDICT_CONNECTABLE = "strongly-connectable"
VERDICT_NOT = "not-strongly-connectable"
VERDICT_STRONG = "already-strong"
VERDICT_TOO_SMALL = "too-small"


class AnalysisReport(NamedTuple):
    verdict: str
    summary: Condensation | None = None
    certificate: tuple[int, ...] | None = None
    plan: ExtensionPlan | None = None
    bounds_report: BoundsReport | None = None

    @property
    def exit_code(self) -> int:
        if self.verdict == VERDICT_TOO_SMALL:
            return 2
        return 1 if self.verdict == VERDICT_NOT else 0

    def to_text(self) -> str:
        out = f"verdict: {self.verdict}\n"
        if self.certificate is not None:
            out += format_certificate(self.certificate) + "\n"
        if self.summary is not None:
            out += _key_lines(_summary_dict(self.summary))
        if self.plan is not None:
            out += "plan:\n" + _plan_text(self.plan)
        if self.bounds_report is not None:
            out += "bounds:\n" + _key_lines(self.bounds_report._asdict())
        return out

    def to_json(self) -> str:
        payload: dict = {"verdict": self.verdict}
        if self.certificate is not None:
            payload["dicut"] = list(self.certificate)
        if self.summary is not None:
            payload["summary"] = _summary_dict(self.summary)
        if self.plan is not None:
            payload["plan"] = _plan_dict(self.plan)
        if self.bounds_report is not None:
            payload["bounds"] = self.bounds_report._asdict()
        return _dump(payload)


def analyze(g: StrictDigraph) -> AnalysisReport:
    if g.n == 0:
        raise EmptyGraphError("the empty digraph has nothing to analyze")
    if g.n < 3:
        return AnalysisReport(VERDICT_TOO_SMALL)
    cond = strong_components(g)
    cert = find_complete_dicut(g)
    if cert is not None:
        return AnalysisReport(VERDICT_NOT, summary=cond, certificate=cert)
    if cond.r == 1:
        return AnalysisReport(VERDICT_STRONG, summary=cond)
    return AnalysisReport(
        VERDICT_CONNECTABLE,
        summary=cond,
        plan=extend(g),
        bounds_report=bounds(g),
    )


def _summary_dict(cond: Condensation) -> dict:
    return {
        "r": cond.r,
        "s": cond.s,
        "t": cond.t,
        "c": cond.c,
        "c_prime": cond.c_prime,
        "u": cond.u,
    }


def _plan_dict(plan: ExtensionPlan) -> dict:
    return {
        "added": plan.added,
        "resulting": _graph_dict(plan.resulting),
    }


def _plan_text(plan: ExtensionPlan) -> str:
    """Added edges as ``+ u v`` lines, followed by the resulting edge list."""
    return format_added_edges(plan.added) + serialize_edge_list(plan.resulting)


def _graph_dict(g: StrictDigraph) -> dict:
    return {"n": g.n, "edges": g.sorted_edges()}


def _key_lines(payload: dict) -> str:
    """The text form of a flat report dict: one ``key: value`` line per
    entry in order, ``_`` in keys written as ``-``, None entries left out."""
    return "".join(
        f"{key.replace('_', '-')}: {value}\n"
        for key, value in payload.items()
        if value is not None
    )


def _dump(payload: dict) -> str:
    # one compact line: without indent, json uses its C encoder.  Every
    # payload is built fresh as a tree, which has no cycle to check for
    return json.dumps(payload, check_circular=False) + "\n"


def _read_text(path: str) -> str:
    """Contents of a UTF-8 text file; undecodable bytes are an input error."""
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise InvalidInputError(f"{path}: not UTF-8 text ({exc.reason})") from None


def _read_graph(path: str) -> StrictDigraph:
    return parse_edge_list(_read_text(path))


def cmd_analyze(args) -> int:
    report = analyze(_read_graph(args.file))
    sys.stdout.write(report.to_json() if args.json else report.to_text())
    return report.exit_code


def cmd_certify(args) -> int:
    g = _read_graph(args.file)
    if args.verify is not None:
        valid = verify_certificate(g, _read_text(args.verify))
        print("valid" if valid else "invalid")
        return 0 if valid else 1
    sys.stdout.write(format_added_edges(extend(g).added))
    return 0


def cmd_extend(args) -> int:
    g = _read_graph(args.file)
    if args.minimize:
        result = brute_force_min_extension(g)
        if result is None:
            # brute_force_min_extension returns None only on a complete dicut
            if not args.json:
                print("no strong extension exists")
            raise HasCompleteDicutError(find_complete_dicut(g))
        minimum, plan = result
        if args.json:
            payload = {"minimum": minimum, "plan": _plan_dict(plan)}
            sys.stdout.write(_dump(payload))
        else:
            print(f"minimum: {minimum}")
            sys.stdout.write(_plan_text(plan))
        return 0
    plan = extend(g)
    sys.stdout.write(_dump(_plan_dict(plan)) if args.json else _plan_text(plan))
    return 0


def cmd_bounds(args) -> int:
    payload = bounds(_read_graph(args.file))._asdict()  # fields in declared order
    sys.stdout.write(_dump(payload) if args.json else _key_lines(payload))
    return 0


WINNER_TO_LOSER = "winner-to-loser"
LOSER_TO_WINNER = "loser-to-winner"


def _add_direction(p: argparse.ArgumentParser, meaning: str):
    """The ``--direction`` option of the dice commands."""
    p.add_argument(
        "--direction",
        choices=[WINNER_TO_LOSER, LOSER_TO_WINNER],
        default=WINNER_TO_LOSER,
        help=f"{meaning} (default: %(default)s)",
    )


def _oriented(g: StrictDigraph, direction: str) -> StrictDigraph:
    """g with its edges in the given direction.  The library's beats
    digraph runs winner-to-loser; loser-to-winner is its reverse."""
    if direction == WINNER_TO_LOSER:
        return g
    return StrictDigraph(g.n, [(v, u) for u, v in g.sorted_edges()])


def cmd_dice_eval(args) -> int:
    d = parse_dice(_read_text(args.file))
    # balance and the beats digraph are both read off d's one cached matrix
    m = win_matrix(d)
    balanced, p = (None, None) if d.count < 2 else is_balanced(d)
    beats = _oriented(beats_digraph(d), args.direction)
    if args.json:
        payload = {
            "dice": d.dice,
            "sides": d.sides,
            "win_counts": [
                [None if i == j else m[i][j] for j in range(d.count)]
                for i in range(d.count)
            ],
            "balanced": balanced,
            "p": None if p is None else str(p),
            "direction": args.direction,
            "beats": _graph_dict(beats),
        }
        sys.stdout.write(_dump(payload))
        return 0
    total = d.sides * d.sides
    print("dice:")
    sys.stdout.write(serialize_dice(d))
    print("win-matrix:")
    for i in range(d.count):
        row = [
            "-" if i == j else f"{m[i][j]}/{total}"
            for j in range(d.count)
        ]
        print(" ".join(row))
    if balanced is None:
        print("balanced: n/a (single die)")
    elif not balanced:
        print("balanced: no")
    elif 2 * p == 1 or p == 1:
        print(f"balanced: yes (degenerate, p = {p})")
    else:
        print(f"balanced: yes (p = {p})")
    print(f"beats ({args.direction}):")
    sys.stdout.write(serialize_edge_list(beats))
    return 0


def cmd_dice_realize(args) -> int:
    h = _read_graph(args.file)
    found = search_balanced_realization(_oriented(h, args.direction), args.k)
    if found is not None:
        _, p = is_balanced(found)
        if args.json:
            payload = {
                "dice": found.dice,
                "p": str(p),
                "direction": args.direction,
            }
            sys.stdout.write(_dump(payload))
        else:
            sys.stdout.write(serialize_dice(found))
            print(f"p: {p}")
        return 0
    # the dicut of h as written: reversing h swaps a dicut's sides
    cert = find_complete_dicut(h)
    if args.json:
        payload = {
            "dice": None,
            "reason": "complete-dicut" if cert is not None else "search-exhausted",
        }
        if cert is not None:
            payload["dicut"] = list(cert)
        sys.stdout.write(_dump(payload))
        return 1
    print(f"no balanced realization with {args.k}-sided dice")
    if cert is not None:
        print(format_certificate(cert))
    else:
        print("no complete dicut found; larger dice may admit a realization")
    return 1


GEN_FAMILIES = {
    "tt-minus-path": (1, gen_tt_minus_path),
    "bipartite": (2, gen_bipartite_plus_isolated),
    "cycles": (2, gen_disjoint_cycles),
}


def cmd_gen(args) -> int:
    arity, builder = GEN_FAMILIES[args.family]
    if len(args.params) != arity:
        raise InvalidInputError(
            f"family {args.family} takes {arity} parameter(s), "
            f"got {len(args.params)}"
        )
    sys.stdout.write(serialize_edge_list(builder(*args.params)))
    return 0


@functools.cache
def _parsers() -> tuple[
    argparse.ArgumentParser, dict[tuple[str, ...], argparse.ArgumentParser]
]:
    """The root parser, and each command's own parser keyed by the words
    that name it, as the root hands arguments to it.  Built once per
    process and shared by every call of main; callers must not modify
    them."""
    parser = argparse.ArgumentParser(
        prog="strongext",
        description="Decide strong connectability of strict digraphs, "
        "construct extensions, and evaluate dice sets.",
    )
    commands = {}

    def command(sub, words: tuple[str, ...], func, help: str):
        # the words go in as defaults under the subparsers' dests, so the
        # command's namespace equals the one the root builds
        p = sub.add_parser(words[-1], help=help)
        p.set_defaults(func=func, **dict(zip(("command", "dice_command"), words)))
        commands[words] = p
        return p

    sub = parser.add_subparsers(dest="command", required=True)

    p = command(sub, ("analyze",), cmd_analyze, "full verdict/plan/bounds report")
    p.add_argument("file", help="edge-list file")
    p.add_argument("--json", action="store_true", help="machine-readable output")

    p = command(sub, ("certify",), cmd_certify, "emit or verify a certificate")
    p.add_argument("file", help="edge-list file")
    p.add_argument("--verify", metavar="CERT", help="certificate file to check")

    p = command(sub, ("extend",), cmd_extend, "construct a strong extension")
    p.add_argument("file", help="edge-list file")
    p.add_argument(
        "--minimize",
        action="store_true",
        help="brute-force the exact minimum (small inputs only)",
    )
    p.add_argument("--json", action="store_true", help="machine-readable output")

    p = command(sub, ("bounds",), cmd_bounds, "report extension-size bounds")
    p.add_argument("file", help="edge-list file")
    p.add_argument("--json", action="store_true", help="machine-readable output")

    dice = sub.add_parser("dice", help="dice-set commands")
    dice_sub = dice.add_subparsers(dest="dice_command", required=True)

    p = command(
        dice_sub,
        ("dice", "eval"),
        cmd_dice_eval,
        "win matrix, balance, beats digraph",
    )
    p.add_argument("file", help="dice file, one die per line")
    _add_direction(p, "beats-digraph edge direction")
    p.add_argument("--json", action="store_true", help="machine-readable output")

    p = command(
        dice_sub,
        ("dice", "realize"),
        cmd_dice_realize,
        "search dice realizing a digraph",
    )
    p.add_argument("file", help="edge-list file for the target digraph")
    p.add_argument("-k", type=int, required=True, help="faces per die")
    _add_direction(p, "how target edges map to wins")
    p.add_argument("--json", action="store_true", help="machine-readable output")

    p = command(sub, ("gen",), cmd_gen, "generate example digraphs")
    p.add_argument("family", choices=sorted(GEN_FAMILIES))
    p.add_argument("params", nargs="*", type=int)

    return parser, commands


def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process and shared by every
    call of main; callers must not modify it."""
    return _parsers()[0]


def _parse_argv(argv: list[str]) -> argparse.Namespace:
    """argv's namespace, as the root parser gives it.

    When argv starts with a command's words, the rest goes straight to
    that command's parser, the one the root would hand it to; walking the
    root and its subparsers costs more than some commands themselves.
    Help, words that name no command, and arguments the command leaves
    over go to the root, so usage, errors and exit codes stay the root's.
    """
    root, commands = _parsers()
    for words in (tuple(argv[:1]), tuple(argv[:2])):
        parser = commands.get(words)
        if parser is not None:
            args, rest = parser.parse_known_args(argv[len(words):])
            if not rest:
                return args
            break
    return root.parse_args(argv)


def main(argv=None) -> int:
    try:
        args = _parse_argv(sys.argv[1:] if argv is None else list(argv))
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.func(args)
    except BudgetError as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return 3
    except HasCompleteDicutError as exc:
        if getattr(args, "json", False):
            sys.stdout.write(_dump({"dicut": list(exc.certificate)}))
        else:
            print(format_certificate(exc.certificate))
        return 1
    except (StrongExtError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
