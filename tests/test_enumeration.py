import functools
import itertools
import math
import random

import pytest

from ccelab import (
    Digraph,
    EnumerationFilter,
    ResourceCapError,
    SimpleGraph,
    SweepOutcome,
    dag_masks,
    double_competition_number,
    enumerate_digraphs,
    explore_open_problem,
    is_cce_of_acyclic,
    verify_theorem_acyclic,
    verify_theorem_kr,
    verify_theorem_loopless,
    verify_theorem_main0,
    verify_theorem_props,
)
from ccelab import dk, enumeration
from ccelab.caps import CAP_ENV_VAR, check_cap
from ccelab.conditions import ConditionKind, peel_left
from ccelab.digraph import rows_mask
from ccelab.enumeration import (
    _CHECKERS,
    _condition_gate,
    _dag_count,
    _digraph_rows,
    _family_sweep,
    _first_rows,
    _kr_iq_shapes,
)
from ccelab.graphs import (
    canonical_form,
    cce_adj,
    competition_adj,
    complete_plus_isolated,
    graph_of_adj,
)
from ccelab.levels import least_relabeled_mask, level_matrices
from ccelab.orders import interval_feasible_masks

import oracles


DAG_COUNTS = [1, 1, 3, 25, 543, 29281]
FOOT = (ConditionKind.C, ConditionKind.C_PRIME)
HEAD = (ConditionKind.C_STAR, ConditionKind.C_STAR_PRIME)
# the kinds a gate is built with: each kind alone (explore problem 3), and
# the foot and head pairs (the theorem sweeps and explore problems 1 and 2)
GATE_KINDS = [(kind,) for kind in ConditionKind] + [FOOT, HEAD]


def test_enumeration_counts_closed_forms():
    assert sum(1 for _ in enumerate_digraphs(EnumerationFilter(1, loopless=True))) == 1
    assert sum(1 for _ in enumerate_digraphs(EnumerationFilter(2))) == 16
    assert sum(1 for _ in enumerate_digraphs(EnumerationFilter(3, loopless=True))) == 64
    assert sum(1 for _ in enumerate_digraphs(EnumerationFilter(4, loopless=True))) == 4096


@pytest.mark.parametrize("n", range(6))
def test_dag_counts_match_known_sequence(n):
    assert sum(1 for _ in dag_masks(n)) == DAG_COUNTS[n]


def test_dag_count_recurrence_matches_the_generator():
    # the acyclic sweep reports Robinson's recurrence as its checked count
    for n in range(6):
        dags = _digraph_rows(EnumerationFilter(n, acyclic=True))
        assert _dag_count(n) == sum(1 for _ in dags)
    assert _dag_count(6) == sum(1 for _ in dag_masks(6))


def test_dag_masks_match_permutation_oracle():
    for n in range(6):
        masks = list(dag_masks(n))
        assert masks == sorted(set(masks))              # ascending, unique
        assert set(masks) == oracles.dag_mask_set(n)


def test_generated_dag_rows_match_their_masks():
    # DAGs, loopless digraphs and all digraphs:
    # (flags, largest n, count, membership test)
    spaces = [
        ((False, True), 5, lambda n: DAG_COUNTS[n], Digraph.is_acyclic),
        ((True, False), 4, lambda n: 1 << (n * n - n), Digraph.is_loopless),
        ((False, False), 4, lambda n: 1 << (n * n), lambda d: True),
    ]
    for flags, max_n, count, member in spaces:
        for n in range(max_n + 1):
            masks = []
            for mask, out, inc in _digraph_rows(EnumerationFilter(n, *flags)):
                d = Digraph.from_arc_mask(n, mask)
                assert (tuple(out), tuple(inc)) == (d.out_masks, d.in_masks)
                assert member(d)
                masks.append(mask)
            assert len(masks) == len(set(masks)) == count(n)


def test_loopless_mask_oracle_yields_the_generated_loopless_space():
    # the acceptance suite streams its loopless digraphs from this oracle
    for n in range(5):
        rows = _digraph_rows(EnumerationFilter(n, loopless=True))
        assert sorted(oracles.loopless_masks(n)) == [mask for mask, _, _ in rows]


@functools.lru_cache(maxsize=None)
def conditions_met(n, mask, p):
    return oracles.conditions_met_oracle(Digraph.from_arc_mask(n, mask), p)


def test_every_space_comes_out_ascending_by_mask():
    # rows are assigned from the top vertex down, so a sweep's first hit is
    # its least-mask one, gated or not, and chunk by chunk
    for flags, max_n in (((False, False), 4), ((True, False), 4), ((False, True), 5)):
        for n in range(max_n + 1):
            filt = EnumerationFilter(n, *flags)
            gates = [None] + [
                _condition_gate(p, kinds) for p in (2, 3) for kinds in GATE_KINDS
            ]
            for gate in gates:
                masks = [mask for mask, _, _ in _digraph_rows(filt, gate=gate)]
                assert all(a < b for a, b in zip(masks, masks[1:]))
            below = -1
            for row in _first_rows(filt):
                chunk = [mask for mask, _, _ in _digraph_rows(filt, row)]
                assert chunk[0] > below
                below = chunk[-1]


def test_acyclic_enumeration_streams():
    # the least DAGs on 7 vertices come without generating all 1,138,779,265,
    # from either public generator
    dags = enumerate_digraphs(EnumerationFilter(7, acyclic=True))
    first = [d.arc_mask() for d in itertools.islice(dags, 200)]
    least = itertools.islice(
        (m for m in itertools.count() if Digraph.from_arc_mask(7, m).is_acyclic()), 200
    )
    assert first == list(least)
    assert list(itertools.islice(dag_masks(7), 200)) == first


def test_gated_rows_are_exactly_the_digraphs_meeting_the_condition_pair():
    # a gated generator yields the digraphs meeting every condition of its
    # kinds, each once and with its own rows
    spaces = (
        ((True, False), 4, lambda n: 1 << (n * n - n)),
        ((False, False), 4, lambda n: 1 << (n * n)),
        ((False, True), 5, lambda n: len(oracles.dag_mask_set(n))),
    )
    for flags, max_n, size in spaces:
        for n in range(max_n + 1):
            filt = EnumerationFilter(n, *flags)
            space = [mask for mask, _, _ in _digraph_rows(filt)]
            assert len(space) == size(n)
            for p in (2, 3, 4):
                for kinds in GATE_KINDS:
                    gate = _condition_gate(p, kinds)
                    leaves = []
                    for mask, out, inc in _digraph_rows(filt, gate=gate):
                        d = Digraph.from_arc_mask(n, mask)
                        assert (tuple(out), tuple(inc)) == (d.out_masks, d.in_masks)
                        leaves.append(mask)
                    met = {kind.value for kind in kinds}
                    expected = {m for m in space if met <= conditions_met(n, m, p)}
                    assert len(leaves) == len(set(leaves))
                    assert set(leaves) == expected


def test_foot_gated_loopless_leaves_are_the_labeled_interval_orders():
    # at p = 2 the loopless digraphs meeting C(2) and C'(2) are the labeled
    # interval orders (OEIS A079144)
    for n, count in enumerate([1, 3, 19, 207, 3451], start=1):
        gate = _condition_gate(2, FOOT)
        rows = _digraph_rows(EnumerationFilter(n, loopless=True), gate=gate)
        assert sum(1 for _ in rows) == count


def test_enumeration_order_and_uniqueness():
    seen = [d.arc_mask() for d in enumerate_digraphs(EnumerationFilter(3, loopless=True))]
    assert seen == sorted(seen)
    assert len(seen) == len(set(seen))
    every = [d.arc_mask() for d in enumerate_digraphs(EnumerationFilter(2))]
    assert every == list(range(16))


def test_acyclic_filter_agrees_with_api():
    dags = {d.arc_mask() for d in enumerate_digraphs(EnumerationFilter(3, acyclic=True))}
    expected = {
        m for m in range(1 << 9) if Digraph.from_arc_mask(3, m).is_acyclic()
    }
    assert dags == expected


def no_sweep(*args, **kwargs):
    raise AssertionError("a sweep started above its cap")


def test_props_has_its_own_cap(monkeypatch):
    # props covers all 2^(n^2) digraphs through the level matrices, never the
    # labeled generator
    monkeypatch.delenv(CAP_ENV_VAR, raising=False)
    monkeypatch.setattr(enumeration, "_digraph_rows", no_sweep)
    for n in range(6):
        assert verify_theorem_props(n) == SweepOutcome(1 << n * n)
    with pytest.raises(ResourceCapError, match="props enumeration cap 7"):
        verify_theorem_props(8)
    check_cap("props", 7)
    check_cap("general", 6)
    monkeypatch.setenv(CAP_ENV_VAR, "8")
    check_cap("props", 8)


def test_cap_refusal_and_env_override(monkeypatch):
    with pytest.raises(ResourceCapError):
        enumerate_digraphs(EnumerationFilter(7))        # refused eagerly
    enumerate_digraphs(EnumerationFilter(7, acyclic=True))  # within the DAG cap
    monkeypatch.setenv(CAP_ENV_VAR, "3")
    with pytest.raises(ResourceCapError):
        enumerate_digraphs(EnumerationFilter(4))
    monkeypatch.setenv(CAP_ENV_VAR, "4")
    assert sum(1 for _ in enumerate_digraphs(EnumerationFilter(4, loopless=True))) == 4096
    monkeypatch.setenv(CAP_ENV_VAR, "not-a-number")
    with pytest.raises(ValueError):
        enumerate_digraphs(EnumerationFilter(2))


class Reached(Exception):
    """A stubbed generator or search ran: the cap check let the call through."""


def reached(*args, **kwargs):
    raise Reached


# entry point -> (cap kind, the call at size n: n, or |V(G)| + k_max for dk)
CAPPED_CALLS = {
    "enumerate_digraphs": ("general", lambda n: enumerate_digraphs(EnumerationFilter(n))),
    "dag_masks": ("acyclic", dag_masks),
    "loopless": ("loopless", lambda n: verify_theorem_loopless(2, n)),
    "acyclic": ("acyclic", lambda n: verify_theorem_acyclic(2, n)),
    "main0": ("order", verify_theorem_main0),
    "kr": ("order", verify_theorem_kr),
    "props": ("props", verify_theorem_props),
    "explore": ("explore", lambda n: explore_open_problem(1, 2, n)),
    "dk": ("dk", lambda n: double_competition_number(SimpleGraph(n), 0)),
    "is_cce_of_acyclic": ("dk", lambda n: is_cce_of_acyclic(SimpleGraph(n))),
}


@pytest.mark.parametrize("name", sorted(CAPPED_CALLS))
def test_each_entry_point_checks_its_cap_before_generating(name, monkeypatch):
    kind, call = CAPPED_CALLS[name]
    monkeypatch.setenv(CAP_ENV_VAR, "3")
    monkeypatch.setattr(enumeration, "_digraph_rows", reached)
    monkeypatch.setattr(enumeration, "level_matrices", reached)
    monkeypatch.setattr(dk, "search_realization", reached)
    search = "search" if kind == "dk" else "enumeration"
    with pytest.raises(ResourceCapError, match=f"{kind} {search} cap 3"):
        call(4)
    with pytest.raises(Reached):
        call(3)


@pytest.mark.parametrize("call", [
    lambda: enumerate_digraphs(EnumerationFilter(-1)),
    lambda: dag_masks(-1),
    lambda: verify_theorem_loopless(2, -1),
    lambda: verify_theorem_acyclic(2, -1),
    lambda: verify_theorem_props(-1),
    lambda: verify_theorem_main0(-1),
    lambda: verify_theorem_kr(-1),
    lambda: explore_open_problem(1, 2, -1),
], ids=["enumerate", "dag_masks", "loopless", "acyclic", "props", "main0", "kr",
        "explore"])
def test_negative_vertex_count_is_refused(call):
    with pytest.raises(ValueError, match="vertex count must be non-negative"):
        call()


def test_sweep_inline_condition_check_matches_api():
    # the peel lemma, as the sweeps' gates use it: every row tuple on n <= 3
    # (each is some digraph's out-rows and another's in-rows), and random
    # digraphs on 4 and 5 vertices
    rng = random.Random(17)
    digraphs = [Digraph.from_arc_mask(n, m) for n in range(4) for m in range(1 << n * n)]
    for _ in range(400):
        n = rng.randint(4, 5)
        digraphs.append(Digraph.from_arc_mask(n, rng.getrandbits(n * n)))
    for d in digraphs:
        for p in range(2, d.n + 1):
            for kind, rows, head in (
                ("C", d.out_masks, False),
                ("Cp", d.in_masks, False),
                ("Cs", d.out_masks, True),
                ("Csp", d.in_masks, True),
            ):
                assert (peel_left(rows, head) < p) == oracles.condition_oracle(d, kind, p)


INTERVAL_ORDER_COUNTS = [1, 1, 3, 19, 207, 3451, 81663, 2602699, 107477247]   # A079144
LEVEL_MATRIX_COUNTS = [1, 2, 8, 46, 352, 3394]
FISHBURN_COUNTS = [1, 1, 2, 5, 15, 53, 217, 1014, 5335, 31240]    # OEIS A022493


def relabelings(n, mask):
    """The arc masks of every relabeling of a digraph, by brute force."""
    arcs = Digraph.from_arc_mask(n, mask).arcs
    return {
        oracles.arc_mask_of(n, [(perm[u], perm[v]) for u, v in arcs])
        for perm in itertools.permutations(range(n))
    }


def test_level_matrix_counts():
    for n, count in enumerate(LEVEL_MATRIX_COUNTS):
        assert sum(1 for _ in level_matrices(n, False)) == count
    for n, count in enumerate(FISHBURN_COUNTS):
        assert sum(1 for _ in level_matrices(n, True)) == count


def chains_times_surjections(n):
    """Labeled digraphs on n vertices with nested out-rows, counted apart
    from the generator: the distinct rows are a strict chain of m subsets of
    [n], and the vertices map onto them, both by inclusion-exclusion."""
    def chains(m):
        # each element enters the chain at one of m + 1 steps (the last:
        # never), and steps 2 .. m each take at least one
        return sum((-1) ** j * math.comb(m - 1, j) * (m + 1 - j) ** n for j in range(m))

    def surjections(m):
        return sum((-1) ** j * math.comb(m, j) * (m - j) ** n for j in range(m + 1))

    return sum(chains(m) * surjections(m) for m in range(1, n + 1)) if n else 1


def test_level_matrix_weights_count_the_labeled_digraphs_with_nested_rows():
    # brute force for n <= 3 in the representatives test below
    assert chains_times_surjections(8) == 276054834902
    for n in range(7):
        weights = sum(w for w, _, _ in level_matrices(n, False))
        assert weights == chains_times_surjections(n)
    for n, count in enumerate(INTERVAL_ORDER_COUNTS):
        assert sum(w for w, _, _ in level_matrices(n, True)) == count


def test_level_matrix_representatives_stand_for_their_weight_in_labeled_digraphs():
    # the relabelings of the representatives are every labeled digraph with
    # nested out-rows (loopless: every labeled interval order) once each, a
    # matrix's weight of them, and the in-rows are the out-rows' transpose
    for loopless, space in (
        (False, lambda n: {m for m in range(1 << n * n) if oracles.condition_oracle(
            Digraph.from_arc_mask(n, m), "C", 2)}),
        (True, oracles.interval_mask_set),
    ):
        for n in range(5 if loopless else 4):
            seen = set()
            for weight, out, inc in level_matrices(n, loopless):
                d = Digraph.from_arc_mask(n, rows_mask(n, out))
                assert list(inc) == list(d.in_masks)
                labeled = relabelings(n, d.arc_mask())
                assert len(labeled) == weight and not labeled & seen
                seen |= labeled
            assert seen == set(space(n))


def test_every_fishburn_representative_is_an_interval_order():
    for n in range(8):
        for _, out, _ in level_matrices(n, True):
            assert interval_feasible_masks(n, out)


def test_least_relabeled_mask_matches_brute_force():
    rng = random.Random(5)
    for n in range(6):
        for _ in range(30 if n > 1 else 3):
            # few distinct rows, so that twins occur
            rows = [rng.getrandbits(n) for _ in range(2)]
            out = [rng.choice(rows) for _ in range(n)]
            d = Digraph.from_arc_mask(n, rows_mask(n, out))
            least = min(relabelings(n, d.arc_mask()))
            assert least_relabeled_mask(n, d.out_masks, d.in_masks) == least


def test_order_sweep_leaves_are_the_labeled_interval_orders():
    # the class sweep's checked is the Fishburn matrices' weight, which the
    # tests above match to the labeled interval orders; the CCE and
    # competition classes equal those of the labeled gated scan
    for n, count in enumerate(INTERVAL_ORDER_COUNTS[:7]):
        assert verify_theorem_main0(n).checked == count
        assert verify_theorem_kr(n).checked == count
    for n in range(7):
        labeled = {True: set(), False: set()}
        gate = _condition_gate(2, (ConditionKind.C,))
        for _, out, inc in _digraph_rows(EnumerationFilter(n, acyclic=True), gate=gate):
            labeled[True].add(canonical_form(graph_of_adj(cce_adj(out, inc))))
            labeled[False].add(canonical_form(graph_of_adj(competition_adj(out))))
        # verified against exactly the labeled classes: no class outside
        # them, and none of them missing
        for use_cce, classes in labeled.items():
            shapes = {canon: (0, n) for canon in classes}
            outcome = _family_sweep(n, use_cce, shapes)
            assert outcome == SweepOutcome(INTERVAL_ORDER_COUNTS[n])


def test_main0_and_kr_count_the_interval_orders_they_sweep():
    for n in range(5):
        assert verify_theorem_main0(n).checked == len(oracles.interval_mask_set(n))
        assert verify_theorem_kr(n).checked == len(oracles.interval_mask_set(n))


@pytest.mark.parametrize("n", [2, 3, 4])
def test_verify_main0_and_kr_small(n):
    assert verify_theorem_main0(n).verified
    assert verify_theorem_kr(n).verified


def derived_edges(d, use_cce):
    competition, cce, _ = oracles.derived_edges_oracle(d)
    return cce if use_cce else competition


def least_mask_per_class(n, masks, use_cce):
    """canonical form -> least mask among masks, by the edge oracle."""
    least = {}
    for mask in sorted(masks):
        d = Digraph.from_arc_mask(n, mask)
        least.setdefault(
            canonical_form(SimpleGraph(n, derived_edges(d, use_cce))), mask
        )
    return least


def family_sweep(monkeypatch, n, use_cce, shapes):
    """The main0 (use_cce) or kr sweep against the given shape table."""
    monkeypatch.setattr(enumeration, "_kr_iq_shapes", lambda n, q_min: dict(shapes))
    verify = verify_theorem_main0 if use_cce else verify_theorem_kr
    return verify(n)


@pytest.mark.parametrize("use_cce", [True, False])
def test_family_sweep_witnesses_are_least_masks(use_cce, monkeypatch):
    # each class keeps its least interval order, and its least semiorder
    def reported(n, shapes):
        outcome = family_sweep(monkeypatch, n, use_cce, shapes)
        assert outcome.checked == len(oracles.interval_mask_set(n))
        return outcome.counterexample

    def expect(n, mask, family):
        d = Digraph.from_arc_mask(n, mask)
        return (d, f"{family} derived graph outside the shape family")

    for n in range(5):
        semi = least_mask_per_class(n, oracles.semiorder_mask_set(n), use_cce)
        assert reported(n, {}) == expect(n, semi[min(semi)], "semiorder")
        for omitted in semi:
            shapes = {canon: (0, n) for canon in semi if canon != omitted}
            assert reported(n, shapes) == expect(n, semi[omitted], "semiorder")

    # with no semiorder found, the interval-order witnesses are reported
    monkeypatch.setattr(enumeration, "semiorder_feasible_masks", lambda n, out: False)
    for n in range(5):
        interval = least_mask_per_class(n, oracles.interval_mask_set(n), use_cce)
        assert reported(n, {}) == expect(n, interval[min(interval)], "interval-order")
        for omitted in interval:
            shapes = {canon: (0, n) for canon in interval if canon != omitted}
            assert reported(n, shapes) == expect(n, interval[omitted], "interval-order")


def test_family_sweep_reports_a_missing_shape_without_a_digraph(monkeypatch):
    # K_4 is neither a CCE nor a competition graph of an order on 4 vertices
    for use_cce, q_min in ((True, 2), (False, 1)):
        shapes = _kr_iq_shapes(4, q_min)
        shapes[canonical_form(complete_plus_isolated(4, 0))] = (4, 0)
        outcome = family_sweep(monkeypatch, 4, use_cce, shapes)
        assert outcome == SweepOutcome(207, missing_shape=(4, 0, "interval order"))
        assert not outcome.verified

    # a shape some interval order realizes but no semiorder does
    monkeypatch.setattr(enumeration, "semiorder_feasible_masks", lambda n, out: False)
    outcome = family_sweep(monkeypatch, 4, True, _kr_iq_shapes(4, 2))
    assert outcome == SweepOutcome(207, missing_shape=(0, 4, "semiorder"))
    assert not outcome.verified


def semiorder_tests_expected(n, use_cce):
    """Semiorder tests of an order sweep, by the oracles: the Fishburn
    matrices' representatives of a class, in generator order, up to and
    including its first semiorder."""
    semi = oracles.semiorder_mask_set(n)
    done, tests = set(), 0
    for _, out, _ in level_matrices(n, True):
        mask = rows_mask(n, out)
        edges = derived_edges(Digraph.from_arc_mask(n, mask), use_cce)
        canon = canonical_form(SimpleGraph(n, edges))
        if canon not in done:
            tests += 1
            if mask in semi:
                done.add(canon)
    return tests


def test_family_sweep_tests_a_class_for_a_semiorder_until_it_has_one(monkeypatch):
    calls = []
    real = enumeration.semiorder_feasible_masks

    def counting(n, out):
        calls.append(n)
        return real(n, out)

    monkeypatch.setattr(enumeration, "semiorder_feasible_masks", counting)
    n = 5
    for verify, use_cce in ((verify_theorem_main0, True), (verify_theorem_kr, False)):
        del calls[:]
        assert verify(n) == SweepOutcome(INTERVAL_ORDER_COUNTS[n])
        expected = semiorder_tests_expected(n, use_cce)
        assert len(calls) == expected
        assert expected < FISHBURN_COUNTS[n] / 2


def count_canonical_calls(monkeypatch):
    calls = []
    real = enumeration.canonical_form

    def counting(g):
        calls.append(g)
        return real(g)

    monkeypatch.setattr(enumeration, "canonical_form", counting)
    return calls


def test_family_sweep_computes_each_canonical_form_once(monkeypatch):
    # one canonical form per distinct derived graph of the representatives
    n = 5
    expected = {}
    for use_cce, q_min in ((True, 2), (False, 1)):
        shapes = _kr_iq_shapes(n, q_min)
        reps = (Digraph.from_arc_mask(n, rows_mask(n, out)) for _, out, _ in
                level_matrices(n, True))
        adjacencies = {frozenset(derived_edges(d, use_cce)) for d in reps}
        expected[use_cce] = (shapes, len(adjacencies))
    calls = count_canonical_calls(monkeypatch)
    for use_cce, (shapes, distinct) in expected.items():
        del calls[:]
        outcome = _family_sweep(n, use_cce, shapes)
        assert outcome == SweepOutcome(INTERVAL_ORDER_COUNTS[n])
        assert len(calls) == distinct


EXPLORE_P2 = {
    # problem -> (section member test at p = 2, derived edges)
    1: (lambda d: len({v for e in oracles.derived_edges_oracle(d)[1] for v in e}) < 2,
        lambda d: oracles.derived_edges_oracle(d)[1]),
    2: (lambda d: True, lambda d: oracles.derived_edges_oracle(d)[1]),
    3: (lambda d: True, lambda d: oracles.derived_edges_oracle(d)[2]),
}


def test_explore_computes_each_canonical_form_once(monkeypatch):
    # at p = 2 the sections of a problem share one class set: one canonical
    # form per distinct derived graph of the section members among the
    # matrices' representatives and the ascending scan of the digraphs with
    # nested rows, which stops at the last class's least mask
    n = 4
    digraphs = map(functools.partial(Digraph.from_arc_mask, n), range(1 << n * n))
    nested = [d for d in digraphs if oracles.condition_oracle(d, "C", 2)]
    reps = [
        Digraph.from_arc_mask(n, rows_mask(n, out))
        for _, out, _ in level_matrices(n, False)
    ]
    expected = {}
    for problem, (member, derived) in EXPLORE_P2.items():
        least = {}
        for d in filter(member, nested):
            least.setdefault(canonical_form(SimpleGraph(n, derived(d))), d.arc_mask())
        scanned = [d for d in nested if d.arc_mask() <= max(least.values())]
        expected[problem] = len({frozenset(derived(d)) for d in reps + scanned if member(d)})
    reports = {problem: explore_open_problem(problem, 2, n) for problem in expected}
    calls = count_canonical_calls(monkeypatch)
    for problem, count in expected.items():
        del calls[:]
        assert explore_open_problem(problem, 2, n) == reports[problem]
        assert len(calls) == count


def test_explore_p2_classes_match_the_labeled_gated_scan():
    # the matrices' classes and the stopped scan's witnesses equal a full
    # labeled gated scan of every section
    for n in range(5):
        for problem, sections in enumeration._EXPLORE.items():
            report = explore_open_problem(problem, 2, n)
            for section, (kinds, sweep) in sections.items():
                filt = EnumerationFilter(n)
                classes = enumeration._run_scan(sweep, filt, 2, kinds)
                witnesses = report.sections[section]
                assert {c.canonical: c.witness.arc_mask() for c in witnesses} == classes


@pytest.mark.parametrize("p,n", [(2, 0), (2, 1), (2, 2), (2, 3), (2, 4), (3, 4)])
def test_verify_loopless_small(p, n):
    outcome = verify_theorem_loopless(p, n)
    assert outcome.verified
    assert outcome.checked == sum(1 for _ in oracles.loopless_masks(n))


@pytest.mark.parametrize("p,n", [(2, 3), (2, 4), (3, 4)])
def test_verify_acyclic_small(p, n):
    outcome = verify_theorem_acyclic(p, n)
    assert outcome.verified
    assert outcome.checked == DAG_COUNTS[n]


def test_verify_props_small():
    assert verify_theorem_props(2).verified
    seen = []
    assert verify_theorem_props(3, progress=lambda *step: seen.append(step)).verified
    # one step per level count (k = 1 .. 4) of the p = 2 pass, its only pass
    assert seen == [(i, 4) for i in range(1, 5)]


def test_props_runs_one_pass_at_p2(monkeypatch):
    calls, violation = [], enumeration._violation

    def spy(sweep, filt, p, progress, workers=1):
        calls.append((sweep, filt, p))
        return violation(sweep, filt, p, progress, workers)

    monkeypatch.setattr(enumeration, "_violation", spy)
    for n in range(5):
        del calls[:]
        assert verify_theorem_props(n) == SweepOutcome(1 << n * n)
        assert calls == [("clique", EnumerationFilter(n), 2)]


def test_sweeps_deterministic_across_worker_counts():
    explored = {
        (problem, p): explore_open_problem(problem, p, 4)
        for problem in (1, 2, 3) for p in (2, 3)
    }
    # main0, kr and props take no worker count: one run each
    assert verify_theorem_props(4) == SweepOutcome(2**16)
    assert verify_theorem_main0(5) == SweepOutcome(3451)
    assert verify_theorem_kr(5) == SweepOutcome(3451)
    for workers in (1, 2, 3):
        for p in (2, 3):
            outcome = verify_theorem_loopless(p, 5, workers=workers)
            assert outcome == SweepOutcome(2**20)
            outcome = verify_theorem_acyclic(p, 5, workers=workers)
            assert outcome == SweepOutcome(DAG_COUNTS[5])
        for (problem, p), report in explored.items():
            assert explore_open_problem(problem, p, 4, workers=workers) == report
            assert report.checked == 2**16


# The report must carry the least flagged mask, the first one the scan
# meets.  The theorem scans cut every digraph failing C(p) or C'(p), so the
# checker flags only digraphs meeting both.
def flagged(n, p, mask):
    three_arcs = bin(mask).count("1") >= 3
    return three_arcs and {"C", "Cp"} <= conditions_met(n, mask, p)


def flag_three_arcs(p, out, inc):
    n = len(out)
    return "at least 3 arcs, C and C'" if flagged(n, p, rows_mask(n, out)) else None


def test_acyclic_counterexample_is_least_mask(monkeypatch):
    monkeypatch.setitem(_CHECKERS, "core_shape", flag_three_arcs)
    for n in (3, 4, 5):
        for p in (2, 3):
            outcome = verify_theorem_acyclic(p, n, workers=1)
            least = min(m for m in oracles.dag_mask_set(n) if flagged(n, p, m))
            assert outcome.checked == DAG_COUNTS[n]
            assert outcome.counterexample == (
                Digraph.from_arc_mask(n, least), "at least 3 arcs, C and C'"
            )


def test_loopless_counterexample_is_least_mask(monkeypatch):
    monkeypatch.setitem(_CHECKERS, "core_shape", flag_three_arcs)
    for n in (3, 4):
        for p in (2, 3):
            outcome = verify_theorem_loopless(p, n, workers=1)
            least = next(
                m for m in range(1 << (n * n))
                if Digraph.from_arc_mask(n, m).is_loopless() and flagged(n, p, m)
            )
            assert outcome.checked == 1 << (n * n - n)
            assert outcome.counterexample == (
                Digraph.from_arc_mask(n, least), "at least 3 arcs, C and C'"
            )


def rows_nested(n, mask):
    out = Digraph.from_arc_mask(n, mask).out_masks
    return all(a & b in (a, b) for a, b in itertools.combinations(out, 2))


def test_theorem_checker_sees_exactly_the_digraphs_meeting_c_and_c_prime(monkeypatch):
    # the theorem sweeps see one representative per isomorphism class of the
    # digraphs meeting the foot conditions (not the head ones, which coincide
    # with them only at p = 2) with nested rows, whose relabelings are each
    # of them once; the rest of those meeting both, at p = 3 only, are the
    # digraphs with two arcs and unnested rows, the two-arc matchings
    seen = []

    def record(p, out, inc):
        seen.append(rows_mask(len(out), out))

    def loopless_masks(n):
        return [m for m in range(1 << (n * n)) if Digraph.from_arc_mask(n, m).is_loopless()]

    monkeypatch.setitem(_CHECKERS, "core_shape", record)
    for verify, space in (
        (verify_theorem_acyclic, oracles.dag_mask_set),
        (verify_theorem_loopless, loopless_masks),
    ):
        for n in (2, 3, 4):
            for p in (2, 3):
                del seen[:]
                verify(p, n, workers=1)
                met = {m for m in space(n) if {"C", "Cp"} <= conditions_met(n, m, p)}
                assert all(rows_nested(n, m) for m in seen)
                classes = [relabelings(n, m) for m in seen]
                covered = set().union(*classes)
                assert sum(map(len, classes)) == len(covered)
                assert covered <= met
                assert met - covered == {
                    m for m in met if bin(m).count("1") == 2 and not rows_nested(n, m)
                }


def test_props_counterexample_is_least_mask(monkeypatch):
    # the clique scan cuts every digraph failing C(2) or C'(2), so the
    # checker flags only digraphs meeting both: the report is the least
    # flagged mask of the p = 2 scan
    monkeypatch.setitem(_CHECKERS, "clique", flag_three_arcs)
    for n in (2, 3, 4):
        outcome = verify_theorem_props(n)
        least = next(m for m in range(1 << (n * n)) if flagged(n, 2, m))
        assert outcome.checked == 1 << (n * n)
        assert outcome.counterexample == (
            Digraph.from_arc_mask(n, least), "at least 3 arcs, C and C'"
        )


def degree_pairs(n, mask):
    """The sorted (out-degree, in-degree) pairs of a digraph: the same for
    every relabeling, and a different one for each class of Ferrers digraphs."""
    d = Digraph.from_arc_mask(n, mask)
    degrees = zip(d.out_masks, d.in_masks)
    return tuple(sorted((bin(out).count("1"), bin(inc).count("1")) for out, inc in degrees))


# p = 2 sweep -> (its call at n, the checker it runs, whether its level
# matrices are loopless, its labeled space ascending, the largest n)
P2_SWEEPS = {
    "loopless": (lambda n: verify_theorem_loopless(2, n), "core_shape", True,
                 lambda n: sorted(oracles.loopless_masks(n)), 4),
    "acyclic": (lambda n: verify_theorem_acyclic(2, n), "core_shape", True,
                lambda n: sorted(oracles.dag_mask_set(n)), 5),
    "props": (verify_theorem_props, "clique", False, lambda n: range(1 << n * n), 4),
}


def unsorted_classes(name, n, loopless):
    """The degree pairs of the level matrices whose representative is not
    its least relabeling; 8 of them for props at n = 4."""
    targets = sorted({
        degree_pairs(n, rows_mask(n, out)) for _, out, _ in level_matrices(n, loopless)
        if rows_mask(n, out) != min(relabelings(n, rows_mask(n, out)))
    })
    assert targets
    return random.Random(4).sample(targets, 8) if (name, n) == ("props", 4) else targets


@pytest.mark.parametrize("name", sorted(P2_SWEEPS))
def test_p2_sweep_reports_the_least_labeled_failing_mask(name, monkeypatch):
    # a checker flagging classes at p = 2 whose representatives are not their
    # least relabelings: the report is the least labeled digraph of the space
    # meeting C(2) and C'(2) in a flagged class, by brute force
    verify, sweep, loopless, space, max_n = P2_SWEEPS[name]
    for n in range(2, max_n + 1):
        targets = unsorted_classes(name, n, loopless)
        least = {}
        for m in space(n):
            key = degree_pairs(n, m)
            if key in targets and key not in least:
                if {"C", "Cp"} <= conditions_met(n, m, 2):
                    least[key] = m
        # each target class alone, then all of them: the least of their masks
        for flagged_keys in [[target] for target in targets] + [targets]:
            def flag_targets(p, out, inc):
                mask = rows_mask(len(out), out)
                flag = p == 2 and degree_pairs(len(out), mask) in flagged_keys
                return "target class" if flag else None

            monkeypatch.setitem(_CHECKERS, sweep, flag_targets)
            expected = min(least[key] for key in flagged_keys)
            assert verify(n).counterexample == (
                Digraph.from_arc_mask(n, expected), "target class"
            )


def is_two_arc_matching(n, mask):
    """Whether the digraph has exactly two arcs a -> c and b -> d, with a != b
    and c != d."""
    arcs = Digraph.from_arc_mask(n, mask).arcs
    return len(arcs) == 2 and all(x != y for x, y in zip(*arcs))


# space flags -> (its largest n in a gated scan, whether its level matrices
# are loopless, its membership test, its target pairs (c, d) per source pair,
# its leaves meeting C(3) and C'(3) at that n); a matching's loops a -> a and
# b -> b occur in the props space only, and the acyclic space drops the
# 2-cycle a -> b, b -> a
P3_SPACES = {
    (False, False): (4, False, lambda d: True, lambda n: n * (n - 1), 6974),
    (True, False): (5, True, Digraph.is_loopless, lambda n: n * n - 3 * n + 3, 3581),
    (False, True): (5, True, Digraph.is_acyclic, lambda n: (n - 1) * (n - 2), 3571),
}


def two_arc_matchings(n, flags):
    """The masks of the space's two-arc matchings, by brute force over its
    two-arc digraphs."""
    in_space = P3_SPACES[flags][2]
    return {
        m for a, b in itertools.combinations(range(n * n), 2)
        for m in (1 << a | 1 << b,)
        if is_two_arc_matching(n, m) and in_space(Digraph.from_arc_mask(n, m))
    }


def test_p3_foot_gated_leaves_are_the_ferrers_digraphs_and_the_two_arc_matchings():
    # the lemma of _violation: a digraph of the space meets C(3) and C'(3)
    # iff its rows are nested (a labeling of one of the level matrices) or
    # it is one of the two-arc matchings, C(n, 2) source pairs times the
    # target pairs of each space
    for flags, (max_n, loopless, _, target_pairs, leaf_count) in P3_SPACES.items():
        for n in range(max_n + 1):
            filt = EnumerationFilter(n, *flags)
            gate = _condition_gate(3, FOOT)
            leaves = {mask for mask, _, _ in _digraph_rows(filt, gate=gate)}
            ferrers = {m for m in leaves if rows_nested(n, m)}
            assert len(ferrers) == sum(w for w, _, _ in level_matrices(n, loopless))
            assert len(leaves - ferrers) == math.comb(n, 2) * target_pairs(n)
            assert leaves - ferrers == two_arc_matchings(n, flags)
        assert len(leaves) == leaf_count
    # n = 7, beyond a gated scan in a test: 651 and 630 (the ROADMAP table)
    assert len(two_arc_matchings(7, (True, False))) == 651
    assert len(two_arc_matchings(7, (False, True))) == 630


def test_theorem_checkers_pass_every_two_arc_matching():
    # a matching's CCE graph has no edge, so the checkers that _violation runs
    # at p = 3 pass it, and the p = 3 sweeps need not see it
    for flags in P3_SPACES:
        for n in range(6):
            for mask in two_arc_matchings(n, flags):
                d = Digraph.from_arc_mask(n, mask)
                for sweep in ("core_shape", "clique"):
                    assert _CHECKERS[sweep](3, d.out_masks, d.in_masks) is None


def test_clique_flags_at_p3_only_what_it_flags_at_p2():
    # why props runs p = 2 alone: on a Ferrers digraph, a core of at least 3
    # vertices is a core of at least 2
    clique = _CHECKERS["clique"]
    for n in range(6):
        for loopless in (False, True):
            for _, out, inc in level_matrices(n, loopless):
                if clique(3, out, inc) is not None:
                    assert clique(2, out, inc) is not None


P3_CALLS = {
    "loopless": lambda n: verify_theorem_loopless(3, n),
    "acyclic": lambda n: verify_theorem_acyclic(3, n),
}


@pytest.mark.parametrize("name", sorted(P3_CALLS))
def test_p3_sweep_reports_the_least_labeled_failing_mask(name, monkeypatch):
    # a checker flagging at p = 3 classes of Ferrers digraphs whose
    # representatives are not their least relabelings: the report is the
    # least labeled digraph of the space meeting C(3) and C'(3) in a flagged
    # class, by brute force
    _, sweep, loopless, space, max_n = P2_SWEEPS[name]
    for n in range(3, max_n + 1):
        targets = unsorted_classes(name, n, loopless)
        least = {}
        for m in space(n):
            key = degree_pairs(n, m)
            if key in targets and key not in least:
                if {"C", "Cp"} <= conditions_met(n, m, 3):
                    least[key] = m
        for flagged_keys in [[target] for target in targets] + [targets]:
            def flag(p, out, inc):
                mask = rows_mask(len(out), out)
                flag = p == 3 and degree_pairs(len(out), mask) in flagged_keys
                return "flagged" if flag else None

            monkeypatch.setitem(_CHECKERS, sweep, flag)
            expected = min(least[key] for key in flagged_keys)
            assert P3_CALLS[name](n).counterexample == (
                Digraph.from_arc_mask(n, expected), "flagged"
            )


def test_p2_and_p3_sweeps_never_run_the_labeled_scan(monkeypatch):
    monkeypatch.setattr(enumeration, "_run_scan", reached)
    for p in (2, 3):
        for n in range(7):
            for workers in (1, 2):
                outcome = verify_theorem_loopless(p, n, workers)
                assert outcome == SweepOutcome(1 << n * (n - 1))
                assert verify_theorem_acyclic(p, n, workers) == SweepOutcome(_dag_count(n))
    # nor does props, whose clique check runs at p = 2 only
    for n in range(5):
        assert verify_theorem_props(n) == SweepOutcome(1 << n * n)


def test_sweeps_above_n_never_run_the_labeled_scan(monkeypatch):
    # at p > n no CCE core has p vertices, so no checker can flag a digraph:
    # at p >= 4 no chunk runs, and at p <= 3 the class pass steps as before
    monkeypatch.setattr(enumeration, "_run_scan", reached)
    steps = []

    def progress(*step):
        steps.append(step)

    for n in range(1, 7):
        for p in (n + 1, n + 2):
            for workers in (1, 2):
                del steps[:]
                outcome = verify_theorem_loopless(p, n, workers, progress)
                assert outcome == SweepOutcome(1 << n * (n - 1)) and outcome.verified
                outcome = verify_theorem_acyclic(p, n, workers, progress)
                assert outcome == SweepOutcome(_dag_count(n)) and outcome.verified
                assert (steps == []) == (p >= 4)


def test_p4_sweeps_run_the_labeled_scan(monkeypatch):
    calls, run_scan = [], enumeration._run_scan

    def spy(sweep, filt, p, kinds, workers=1, progress=None):
        calls.append((sweep, filt, p, kinds, workers))
        return run_scan(sweep, filt, p, kinds, workers, progress)

    monkeypatch.setattr(enumeration, "_run_scan", spy)
    assert verify_theorem_loopless(4, 5, 2) == SweepOutcome(1 << 20)
    assert verify_theorem_acyclic(4, 5, 2) == SweepOutcome(_dag_count(5))
    assert calls == [
        ("core_shape", EnumerationFilter(5, loopless=True), 4, FOOT, 2),
        ("core_shape", EnumerationFilter(5, acyclic=True), 4, FOOT, 2),
    ]


def test_clique_checker_flags_a_core_that_is_not_a_clique():
    # CCE edges 0-1, 1-2 and 3-4: a core of 5 vertices, not a clique
    d = Digraph(5, [(0, 3), (1, 3), (1, 4), (2, 4), (3, 0), (3, 1), (4, 1), (4, 2)])
    check = _CHECKERS["clique"]
    assert check(2, d.out_masks, d.in_masks) == "clique proposition fails at p=2"
    assert check(3, d.out_masks, d.in_masks) == "clique proposition fails at p=3"
    assert check(3, (0, 0, 0), (0, 0, 0)) is None


def test_verify_rejects_bad_p():
    with pytest.raises(ValueError):
        verify_theorem_loopless(1, 3)
    with pytest.raises(ValueError):
        verify_theorem_acyclic(0, 3)


def test_explore_problem1_example():
    from ccelab import decompose_kr_iq

    report = explore_open_problem(1, 3, 4)
    shapes = set()
    for cls in report.sections["C&Cp"]:
        shape = decompose_kr_iq(cls.graph)
        if shape is not None:
            shapes.add((shape.r, shape.q))
    # a nontrivial component on fewer than 3 vertices appears: K_2 u I_2
    assert (2, 2) in shapes
    assert report.checked == 1 << 16


@pytest.mark.parametrize("n", range(3))
def test_explore_checked_is_every_digraph(n):
    for problem in (1, 2, 3):
        for p in (2, 3):
            assert explore_open_problem(problem, p, n).checked == 2 ** (n * n)


def test_explore_problem3_example():
    report = explore_open_problem(3, 2, 3)
    assert set(report.sections) == {"C", "Cp", "Cs", "Csp"}
    assert all(report.sections[k] for k in report.sections)


def test_explore_problem2_example():
    report = explore_open_problem(2, 2, 3)
    assert report.sections["Cs&Csp"]


def test_explore_witnesses_satisfy_their_conditions():
    from ccelab import ConditionKind, satisfies_condition, cce_graph, niche_graph
    from ccelab.graphs import canonical_form

    report = explore_open_problem(1, 2, 3)
    for cls in report.sections["C&Cp"]:
        w = cls.witness
        assert satisfies_condition(w, ConditionKind.C, 2).satisfied
        assert satisfies_condition(w, ConditionKind.C_PRIME, 2).satisfied
        assert canonical_form(cce_graph(w)) == cls.canonical

    report = explore_open_problem(3, 2, 3)
    for section, kind in (
        ("C", ConditionKind.C),
        ("Cp", ConditionKind.C_PRIME),
        ("Cs", ConditionKind.C_STAR),
        ("Csp", ConditionKind.C_STAR_PRIME),
    ):
        for cls in report.sections[section]:
            assert satisfies_condition(cls.witness, kind, 2).satisfied
            assert canonical_form(niche_graph(cls.witness)) == cls.canonical


def test_explore_witnesses_are_least_masks():
    from ccelab import SimpleGraph
    from ccelab.graphs import canonical_form

    n, p = 3, 2
    digraphs = [Digraph.from_arc_mask(n, m) for m in range(1 << (n * n))]

    def least_masks(member, derived):
        least = {}
        for mask, d in enumerate(digraphs):
            if member(d):
                canon = canonical_form(SimpleGraph(n, derived(d)))
                least.setdefault(canon, mask)     # masks ascend
        return least

    def recorded(report, section):
        return {c.canonical: c.witness.arc_mask() for c in report.sections[section]}

    def cce_edges(d):
        return oracles.derived_edges_oracle(d)[1]

    def problem1(d):
        core = {v for edge in cce_edges(d) for v in edge}
        return (
            oracles.condition_oracle(d, "C", p)
            and oracles.condition_oracle(d, "Cp", p)
            and len(core) < p
        )

    report = explore_open_problem(1, p, n)
    assert recorded(report, "C&Cp") == least_masks(problem1, cce_edges)

    def problem2(d):
        return {"Cs", "Csp"} <= oracles.conditions_met_oracle(d, p)

    report = explore_open_problem(2, p, n)
    assert recorded(report, "Cs&Csp") == least_masks(problem2, cce_edges)

    report = explore_open_problem(3, p, n)
    for section in ("C", "Cp", "Cs", "Csp"):
        expected = least_masks(
            lambda d: oracles.condition_oracle(d, section, p),
            lambda d: oracles.derived_edges_oracle(d)[2],
        )
        assert recorded(report, section) == expected


def test_explore_rejects_bad_arguments():
    with pytest.raises(ValueError):
        explore_open_problem(4, 2, 3)
    with pytest.raises(ValueError):
        explore_open_problem(1, 1, 3)
