"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run `pytest -s tests/test_acceptance.py` to watch the lines appear; in a
captured run they surface on failure.  Every expected value here is either
trivially forced, frozen from an independent oracle in this suite, or a
verifier outcome cross-checked against those oracles.
"""

import itertools
import json
import random
import subprocess
import sys
import time
from contextlib import contextmanager

from ccelab import (
    ConditionKind,
    Digraph,
    SimpleGraph,
    canonical_form,
    cce_graph,
    competition_graph,
    complete_plus_isolated,
    dag_masks,
    decompose_kr_iq,
    double_competition_number,
    isolated_vertices,
    niche_graph,
    recognize_interval_order,
    recognize_semiorder,
    satisfies_condition,
    semiorder_from,
    interval_order_from,
    verify_theorem_acyclic,
    verify_theorem_kr,
    verify_theorem_loopless,
    verify_theorem_main0,
    witness_loopless,
)
from ccelab.conditions import condition_violation
from ccelab.dk import search_realization
from ccelab.fileformats import parse_digraph, serialize_digraph
from ccelab.orders import (
    interval_feasible_masks,
    semiorder_feasible_masks,
)

import oracles


@contextmanager
def criterion(num: int, title: str):
    start = time.time()
    try:
        yield
    except BaseException:
        print(f"[criterion {num:2d}] FAIL: {title}")
        raise
    print(f"[criterion {num:2d}] PASS: {title} ({time.time() - start:.1f}s)")


def _shape_classes(n: int, min_q: int):
    classes = {canonical_form(complete_plus_isolated(0, n))}
    for r in range(2, n + 1):
        q = n - r
        if q >= min_q:
            classes.add(canonical_form(complete_plus_isolated(r, q)))
    return classes


def _derived_classes(n: int, masks, use_cce: bool):
    out = set()
    for mask in masks:
        d = Digraph.from_arc_mask(n, mask)
        g = cce_graph(d) if use_cce else competition_graph(d)
        out.add(canonical_form(g))
    return out


def test_criterion_1_main0_families():
    with criterion(1, "CCE families of semiorders/interval orders = K_r u I_q (q>=2)"):
        expected_shapes = {3: {(0, 3)}, 4: {(0, 4), (2, 2)}, 5: {(0, 5), (2, 3), (3, 2)}}
        for n in (3, 4, 5):
            start = time.time()
            outcome = verify_theorem_main0(n)
            assert outcome.verified, outcome
            assert time.time() - start < 120
            # independent cross-check straight from the grid oracles
            shape_canons = _shape_classes(n, min_q=2)
            semi = _derived_classes(n, oracles.semiorder_mask_set(n), True)
            intv = _derived_classes(n, oracles.interval_mask_set(n), True)
            assert semi == intv == shape_canons
            named = {s for c in shape_canons if (s := _rebuild(n, c)) is not None}
            assert {(s.r, s.q) for s in named} == expected_shapes[n]


def _rebuild(n, canon):
    from ccelab import graph_from_canonical

    return decompose_kr_iq(graph_from_canonical(n, canon))


def test_criterion_2_kr_families():
    with criterion(2, "competition families of semiorders/interval orders = K_r u I_q (q>=1)"):
        expected_shapes = {
            2: {(0, 2)},
            3: {(0, 3), (2, 1)},
            4: {(0, 4), (2, 2), (3, 1)},
            5: {(0, 5), (2, 3), (3, 2), (4, 1)},
        }
        for n in (2, 3, 4, 5):
            outcome = verify_theorem_kr(n)
            assert outcome.verified, outcome
            shape_canons = _shape_classes(n, min_q=1)
            semi = _derived_classes(n, oracles.semiorder_mask_set(n), False)
            intv = _derived_classes(n, oracles.interval_mask_set(n), False)
            assert semi == intv == shape_canons
            named = {s for c in shape_canons if (s := _rebuild(n, c)) is not None}
            assert {(s.r, s.q) for s in named} == expected_shapes[n]


def test_criterion_3_loopless_theorem():
    with criterion(3, "loopless characterization sweep + witnesses to r+q=8"):
        for p in (2, 3):
            for n in (2, 3, 4, 5):
                outcome = verify_theorem_loopless(p, n)
                assert outcome.verified, (p, n, outcome)
        for p in (2, 3):
            for total in range(4, 9):
                for r in range(p, total - 1):
                    q = total - r
                    w = witness_loopless(r, q)
                    expected = complete_plus_isolated(r, q)
                    assert cce_graph(w) == expected
                    assert w.is_loopless()
                    assert satisfies_condition(w, ConditionKind.C, p).satisfied
                    assert satisfies_condition(w, ConditionKind.C_PRIME, p).satisfied


def test_criterion_4_acyclic_theorem():
    with criterion(4, "acyclic shape classification over all DAGs, n <= 5"):
        start = time.time()
        dag_counts = {2: 3, 3: 25, 4: 543, 5: 29281}
        for p in (2, 3):
            for n in (2, 3, 4, 5):
                outcome = verify_theorem_acyclic(p, n)
                assert outcome.verified, (p, n, outcome)
                assert outcome.checked == dag_counts[n]
        assert time.time() - start < 300


LABELED_PREORDERS = (1, 1, 4, 29, 355)                  # OEIS A000798, n <= 4


def _feet(below, members):
    """The feet of a vertex set: its members x with below(x, y), x's row
    inside y's, for every member y."""
    return {x for x in members if all(below(x, y) for y in members)}


def _assert_row_lemmas(n, below):
    """Monotonicity of the foot condition in p, and the foot-set union
    lemma over every (T, U) pair, for rows compared by below."""
    sets = [
        frozenset(s) for k in range(1, n + 1) for s in itertools.combinations(range(n), k)
    ]
    feet = {s: _feet(below, s) for s in sets}
    # the condition fails at q iff some q-set has no foot; C(q-1) => C(q)
    footless = {len(s) for s in sets if not feet[s]}
    for q in range(3, n + 1):
        assert q not in footless or q - 1 in footless, (n, q)
    for t in sets:
        for u in sets:
            if feet[t] & u:
                assert feet[u] <= feet[t | u], (n, t, u)


def test_criterion_5_monotonicity_and_lemma():
    title = "monotonicity + foot-set lemma (all preorders n<=4, randomized n in {5,6})"
    with criterion(5, title):
        # feet depend on the rows only through their containment preorder,
        # and every row tuple is some digraph's out-rows and another's in-rows
        for n in range(5):
            preorders = {oracles.containment_preorder(n, m) for m in range(1 << (n * n))}
            assert len(preorders) == LABELED_PREORDERS[n]
            for leq in preorders:
                _assert_row_lemmas(n, lambda x, y: leq[y] >> x & 1)
        rng = random.Random(87431)
        for n in (5, 6):
            for _ in range(10_000):
                mask = rng.getrandbits(n * n)
                d = Digraph.from_arc_mask(n, mask)
                for masks in (d.out_masks, d.in_masks):
                    held = False
                    for p in range(2, n + 1):
                        sat = condition_violation(masks, n, p, False) is None
                        assert sat or not held, (n, mask, p)
                        held = held or sat

                    def below(x, y):
                        return not masks[x] & ~masks[y]

                    # a random T with the foot a, and a random U holding a
                    a = rng.randrange(n)
                    t = {a} | {y for y in range(n) if below(a, y) and rng.random() < 0.5}
                    u = {a} | {y for y in range(n) if rng.random() < 0.5}
                    assert a in _feet(below, t)
                    assert _feet(below, u) <= _feet(below, t | u), (n, mask, t, u)


def test_criterion_6_clique_proposition():
    with criterion(6, "clique proposition exhaustive at n=4, p in {2,3}"):
        n = 4
        for mask in oracles.loopless_masks(n):
            d = Digraph.from_arc_mask(n, mask)
            for p in (2, 3):
                if not satisfies_condition(d, ConditionKind.C, p).satisfied:
                    continue
                if not satisfies_condition(d, ConditionKind.C_PRIME, p).satisfied:
                    continue
                g = cce_graph(d)
                core = [v for v in range(n) if g.adj_masks[v]]
                if len(core) >= p:
                    from ccelab import is_clique

                    assert is_clique(g, core), (mask, p)


def test_criterion_7_dk_values():
    with criterion(7, "dk values oracle-derived; pruned search = naive oracle to |V|+k=5"):
        for q in range(6):
            got = double_competition_number(SimpleGraph(q), 0)
            assert got is not None and got.k == 0
            assert oracles.naive_dk(SimpleGraph(q), 0) == 0
        k2 = SimpleGraph(2, [(0, 1)])
        k3 = complete_plus_isolated(3, 0)
        assert double_competition_number(k2, 3).k == 2
        assert double_competition_number(k3, 2).k == 2
        assert oracles.naive_dk(k2, 3) == 2
        assert oracles.naive_dk(k3, 2) == 2

        # stratum-by-stratum agreement of pruned search and naive oracle
        for m in range(6):
            for g in oracles.all_graphs(m):
                for k in range(5 - m + 1):
                    got = search_realization(g, k)
                    want = oracles.naive_stratum_feasible(g, k)
                    assert (got is not None) == want, (m, sorted(g.edges), k)
                    if got is not None:
                        assert got.is_acyclic()
                        assert cce_graph(got).edges == g.edges

        # any CCE graph of a DAG with an edge has >= 2 isolated vertices
        for n in range(1, 6):
            for mask in dag_masks(n):
                g = cce_graph(Digraph.from_arc_mask(n, mask))
                if g.edges:
                    assert len(isolated_vertices(g)) >= 2, (n, mask)

        # padding with an isolated vertex never increases dk (oracle scope)
        for m in range(5):
            for g in oracles.all_graphs(m):
                d = oracles.naive_dk(g, 5 - m)
                if d is None:
                    continue
                padded = SimpleGraph(m + 1, g.edges)
                assert search_realization(padded, d) is not None, (m, sorted(g.edges), d)


def test_criterion_8_recognition_against_oracle():
    with criterion(8, "recognizer verdicts = representation oracle; exact regeneration"):
        # exhaustive including loops at n <= 4
        for n in range(5):
            semi = oracles.semiorder_mask_set(n)
            intv = oracles.interval_mask_set(n)
            for mask in range(1 << (n * n)):
                d = Digraph.from_arc_mask(n, mask)
                srep = recognize_semiorder(d)
                irep = recognize_interval_order(d)
                assert (srep is not None) == (mask in semi), (n, mask)
                assert (irep is not None) == (mask in intv), (n, mask)
                if srep is not None:
                    assert semiorder_from(srep) == d
                    assert srep.delta == 1
                    if srep.f:
                        assert min(srep.f) == 0
                if irep is not None:
                    assert interval_order_from(irep) == d

        # n = 5: exhaustive over the 2^20 loopless digraphs via the
        # recognizer cores, plus sampled loopy digraphs (loops force an
        # absent verdict on both sides)
        n = 5
        nm = (1 << n) - 1
        semi = oracles.semiorder_mask_set(n)
        intv = oracles.interval_mask_set(n)
        row_shift = [v * n for v in range(n)]
        for mask in oracles.loopless_masks(n):
            out = [(mask >> s) & nm for s in row_shift]
            assert semiorder_feasible_masks(n, out) == (mask in semi), mask
            assert interval_feasible_masks(n, out) == (mask in intv), mask
        for mask in semi:
            d = Digraph.from_arc_mask(n, mask)
            rep = recognize_semiorder(d)
            assert rep is not None and semiorder_from(rep) == d
        for mask in intv:
            d = Digraph.from_arc_mask(n, mask)
            rep = recognize_interval_order(d)
            assert rep is not None and interval_order_from(rep) == d
        rng = random.Random(555)
        loop_bits = [v * n + v for v in range(n)]
        for _ in range(10_000):
            mask = rng.getrandbits(n * n) | (1 << rng.choice(loop_bits))
            d = Digraph.from_arc_mask(n, mask)
            assert recognize_semiorder(d) is None
            assert recognize_interval_order(d) is None
            assert mask not in semi and mask not in intv


def test_criterion_9_operator_sanity():
    with criterion(9, "operator chain, reversal invariance, definitional oracle at n <= 4"):
        for n in range(5):
            for mask in range(1 << (n * n)):
                d = Digraph.from_arc_mask(n, mask)
                comp = competition_graph(d)
                cce = cce_graph(d)
                niche = niche_graph(d)
                assert cce.edges <= comp.edges <= niche.edges
                ocomp, occe, oniche = oracles.derived_edges_oracle(d)
                assert comp.edges == frozenset(ocomp)
                assert cce.edges == frozenset(occe)
                assert niche.edges == frozenset(oniche)
                r = d.reverse()
                assert cce_graph(r) == cce
                assert niche_graph(r) == niche
                # reversing arcs turns common prey into common enemies
                rcomp, _, _ = oracles.derived_edges_oracle(r)
                assert competition_graph(r).edges == frozenset(rcomp)


def test_criterion_10_cli_contract(tmp_path):
    with criterion(10, "CLI golden files, exit codes, parse/serialize identity"):
        def run(*args):
            return subprocess.run(
                [sys.executable, "-m", "ccelab", *args],
                capture_output=True, text=True, cwd=tmp_path,
            )

        chain = tmp_path / "chain.digraph"
        chain.write_text("digraph 3\n0 -> 1\n0 -> 2\n1 -> 2\n")
        twocycle = tmp_path / "twocycle.digraph"
        twocycle.write_text("digraph 2\n0 -> 1\n1 -> 0\n")
        k2 = tmp_path / "k2.graph"
        k2.write_text("graph 2\n0 -- 1\n")

        r = run("derive", "--kind", "cce", "--in", str(chain),
                "--out", str(tmp_path / "c.graph"), "--dot", str(tmp_path / "c.dot"))
        assert r.returncode == 0
        assert (tmp_path / "c.graph").read_text() == "graph 3\n"
        assert "cluster_derived" in (tmp_path / "c.dot").read_text()

        r = run("check", "--condition", "C", "--p", "2", "--in", str(chain))
        assert r.returncode == 0 and r.stdout == "C(2): satisfied\n"
        r = run("check", "--condition", "C", "--p", "2", "--in", str(twocycle))
        assert r.returncode == 1 and "{0, 1}" in r.stdout
        r = run("check", "--condition", "C", "--p", "1", "--in", str(chain))
        assert r.returncode == 2

        r = run("recognize", "--model", "semiorder", "--in", str(chain))
        assert r.returncode == 0
        assert r.stdout == "semiorder 3 delta=1\n0: f=3\n1: f=3/2\n2: f=0\n"

        r = run("witness", "--shape", "2,2", "--model", "semiorder")
        assert r.returncode == 0
        assert r.stdout == "semiorder 4 delta=1\n0: f=0\n1: f=0\n2: f=2\n3: f=-2\n"
        r = run("witness", "--shape", "3,2", "--model", "loopless", "--json")
        assert json.loads(r.stdout)["n"] == 5

        r = run("dk", "--in", str(k2), "--kmax", "3",
                "--witness-out", str(tmp_path / "w.digraph"))
        assert r.returncode == 0 and r.stdout == "dk = 2\n"
        assert parse_digraph((tmp_path / "w.digraph").read_text()).is_acyclic()
        r = run("dk", "--in", str(k2), "--kmax", "1")
        assert r.returncode == 1
        r = run("dk", "--in", str(k2), "--kmax", "99")
        assert r.returncode == 4

        r = run("verify", "--theorem", "main0", "--n", "4", "--json")
        assert r.returncode == 0 and json.loads(r.stdout)["verified"] is True
        r = run("verify", "--theorem", "loopless", "--n", "3", "--p", "2")
        assert r.returncode == 0
        r = run("verify", "--theorem", "main0", "--n", "99")
        assert r.returncode == 4

        r = run("explore", "--problem", "1", "--p", "3", "--n", "4", "--json")
        assert r.returncode == 0
        assert json.loads(r.stdout)["sections"]["C&Cp"]

        r = run("derive", "--kind", "cce", "--in", str(tmp_path / "missing"),
                "--out", str(tmp_path / "x"))
        assert r.returncode == 3
        bad = tmp_path / "bad.digraph"
        bad.write_text("digraph 2\n0 => 1\n")
        r = run("derive", "--kind", "cce", "--in", str(bad),
                "--out", str(tmp_path / "x"))
        assert r.returncode == 2 and "line 2" in r.stderr

        rng = random.Random(2468)
        for _ in range(50):
            nn = rng.randint(0, 6)
            arcs = [
                (u, v)
                for u in range(nn)
                for v in range(nn)
                if rng.random() < 0.35
            ]
            d = Digraph(nn, arcs)
            assert parse_digraph(serialize_digraph(d)) == d


def test_empirical_star_note():
    # open question: the head-set conditions on constructed interval orders
    # are reported, not asserted
    held = 0
    total = 0
    for n in range(2, 5):
        for mask in oracles.interval_mask_set(n):
            d = Digraph.from_arc_mask(n, mask)
            total += 1
            if (
                satisfies_condition(d, ConditionKind.C_STAR, 2).satisfied
                and satisfies_condition(d, ConditionKind.C_STAR_PRIME, 2).satisfied
            ):
                held += 1
    print(
        f"[note] C*(2) and C*'(2) held on {held}/{total} interval orders "
        f"with n <= 4 (reported, not asserted)"
    )
