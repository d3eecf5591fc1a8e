"""End-to-end acceptance checks.

One test per acceptance criterion; each records a single PASS/FAIL line
that the terminal-summary hook prints after the run.
"""

from contextlib import contextmanager
from fractions import Fraction
from functools import lru_cache
from random import Random

from strongext import (
    DiceSet,
    StrictDigraph,
    beats_digraph,
    bounds,
    brute_force_min_extension,
    extend,
    find_complete_dicut,
    format_certificate,
    gen_bipartite_plus_isolated,
    gen_tt_minus_path,
    is_balanced,
    is_strong,
    search_balanced_realization,
    serialize_edge_list,
    strong_components,
    verify_complete_dicut,
)
from strongext.cli import main

from conftest import record_verdict
from helpers import (
    all_strict_digraphs,
    brute_force_complete_dicut,
    criterion_sample,
    edge_set,
    has_strong_completion,
    oracle_extend,
    oracle_is_strong,
    random_digraph,
    win_probability,
)

SEED = 20260814


def _report(num: int, label: str, ok: bool) -> None:
    verdict = "PASS" if ok else "FAIL"
    line = f"criterion {num}: {label}: {verdict}"
    print(line)
    record_verdict(line)


@contextmanager
def criterion(num: int, label: str):
    try:
        yield
    except BaseException:
        _report(num, label, False)
        raise
    _report(num, label, True)


@lru_cache(maxsize=1)
def _sample() -> tuple[StrictDigraph, ...]:
    return tuple(criterion_sample(SEED))


def test_criterion_01_connectable_iff_dicut_free():
    label = "dicut-free digraphs are exactly the strongly connectable ones (n <= 5)"
    # the same pass checks the construction against the re-condensing oracle
    with criterion(1, label):
        for n in (3, 4):
            for g in all_strict_digraphs(n):
                dicut_free = find_complete_dicut(g) is None
                assert dicut_free == has_strong_completion(g)
                if dicut_free:
                    plan = extend(g)
                    assert (plan.added, plan.resulting) == oracle_extend(g)
        for g in all_strict_digraphs(5):
            cert = find_complete_dicut(g)
            if cert is None:
                plan = extend(g)
                assert oracle_is_strong(plan.resulting)
                assert (plan.added, plan.resulting) == oracle_extend(g)
            else:
                assert verify_complete_dicut(g, cert)


def test_criterion_02_extension_size_bound():
    label = "extension adds at most r edges, exactly r only when disconnected all-strong"
    with criterion(2, label):
        for g in _sample():
            cond = strong_components(g)
            plan = extend(g)
            assert edge_set(g) <= edge_set(plan.resulting)
            assert oracle_is_strong(plan.resulting)
            assert len(plan.added) <= cond.r
            all_weak_strong = all(len(group) == 1 for group in cond.weak_groups)
            hits_r = len(plan.added) == cond.r
            assert hits_r == (cond.c > 1 and all_weak_strong)


def test_criterion_03_tt_minus_path_sharpness():
    label = "tt-minus-path on r vertices needs exactly r - 1 added edges"
    with criterion(3, label):
        for r in (3, 4, 5, 6):
            result = brute_force_min_extension(gen_tt_minus_path(r))
            assert result is not None and result[0] == r - 1


def test_criterion_04_bipartite_sharpness():
    label = "oriented bipartite plus isolated vertex needs exactly p + q added edges"
    with criterion(4, label):
        for p in range(1, 5):
            for q in range(1, 6 - p):
                result = brute_force_min_extension(
                    gen_bipartite_plus_isolated(p, q)
                )
                assert result is not None and result[0] == p + q


def test_criterion_05_bound_sandwich():
    label = "bound sandwich holds and s + t - c = u - c' exactly"
    with criterion(5, label):
        for g in _sample():
            cond = strong_components(g)
            added = len(extend(g).added)
            report = bounds(g)
            assert report.lower == (max(cond.s, cond.t) if cond.r > 1 else 0)
            assert report.lower <= added <= report.upper_theorem
            if report.brute_min is not None:
                assert report.lower <= report.brute_min <= added
            if cond.c > 1:
                assert report.upper_cyclic <= report.upper_prop
                assert report.upper_prop == cond.s + cond.t - cond.c
                assert report.upper_prop == cond.u - cond.c_prime


def test_criterion_06_detector_equivalence():
    label = "fast dicut detector matches the brute-force oracle"
    with criterion(6, label):
        for n in range(6):
            for g in all_strict_digraphs(n):
                fast = find_complete_dicut(g)
                slow = brute_force_complete_dicut(g)
                assert (fast is None) == (slow is None)
                if fast is not None:
                    assert verify_complete_dicut(g, fast)
                    assert verify_complete_dicut(g, slow)
        rng = Random(SEED + 6)
        for _ in range(1000):
            g = random_digraph(
                rng, rng.randint(3, 12), rng.choice([0.15, 0.3, 0.5, 0.7, 0.9])
            )
            fast = find_complete_dicut(g)
            slow = brute_force_complete_dicut(g)
            assert (fast is None) == (slow is None)
            if fast is not None:
                assert verify_complete_dicut(g, fast)
                assert verify_complete_dicut(g, slow)


def test_criterion_07_reference_dice_set():
    label = "reference dice set is balanced at exactly 5/9 with a cyclic beats digraph"
    with criterion(7, label):
        assert win_probability((1, 5, 9), (3, 4, 8)) == Fraction(5, 9)
        d = DiceSet(((1, 5, 9), (3, 4, 8), (2, 6, 7)))
        assert is_balanced(d) == (True, Fraction(5, 9))
        beats = beats_digraph(d)
        assert edge_set(beats) == frozenset({(0, 1), (1, 2), (2, 0)})
        assert is_strong(beats)


def test_criterion_08_three_dice_realizability():
    label = "3-vertex targets admit balanced dice realizations exactly when dicut-free"
    with criterion(8, label):
        for h in all_strict_digraphs(3):
            found = search_balanced_realization(h, 3)
            assert (found is not None) == (find_complete_dicut(h) is None)


def test_criterion_10_certificate_round_trip(capsys, tmp_path):
    label = "certificates re-verify; tampered dicut certificates are rejected"
    with criterion(10, label):
        rng = Random(SEED + 10)
        graphs = []
        for _ in range(60):
            graphs.append(
                random_digraph(rng, rng.randint(3, 8), rng.choice([0.2, 0.4, 0.6, 0.8]))
            )
        for _ in range(20):
            p = rng.randint(1, 3)
            q = rng.randint(2 if p == 1 else 1, 3)
            edges = {(i, p + j) for i in range(p) for j in range(q)}
            graphs.append(StrictDigraph(p + q, frozenset(edges)))
        for _ in range(20):
            n = rng.randint(3, 7)
            edges = {(i, j) for i in range(n) for j in range(i + 1, n)}
            graphs.append(StrictDigraph(n, frozenset(edges)))
        assert len(graphs) == 100
        dicut_cases = 0
        for idx, g in enumerate(graphs):
            gpath = tmp_path / f"g{idx}.txt"
            gpath.write_text(serialize_edge_list(g))
            main(["certify", str(gpath)])
            produced = capsys.readouterr().out
            cpath = tmp_path / f"c{idx}.txt"
            cpath.write_text(produced)
            code = main(["certify", str(gpath), "--verify", str(cpath)])
            assert code == 0
            assert capsys.readouterr().out == "valid\n"
            if not produced.startswith("dicut:"):
                continue
            dicut_cases += 1
            xs = find_complete_dicut(g)
            assert produced == format_certificate(xs) + "\n"
            u, v = min(e for e in g.sorted_edges() if e[0] in xs and e[1] not in xs)
            for tampered in (
                StrictDigraph(g.n, edge_set(g) - {(u, v)}),
                StrictDigraph(g.n, (edge_set(g) - {(u, v)}) | {(v, u)}),
            ):
                tpath = tmp_path / f"t{idx}.txt"
                tpath.write_text(serialize_edge_list(tampered))
                code = main(["certify", str(tpath), "--verify", str(cpath)])
                assert code == 1
                assert capsys.readouterr().out == "invalid\n"
        assert dicut_cases >= 40
