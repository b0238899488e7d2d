"""Acceptance suite: one test per criterion, one pass/fail line each.

Quantitative baselines were frozen from the first validated runs of the
deterministic engine (the engine itself is validated by step replay and
independent model checks on the small instances).
"""

import math
import time
from collections import defaultdict
from contextlib import contextmanager

import pytest

from chasekit.analysis import analyze
from chasekit.arboreal import (build_null_forest, build_term_tree,
                               check_locality, check_order_soundness)
from chasekit.chase import Deterministic, Seeded, chase
from chasekit.corpus import (QbfFormula, gen_counter, gen_dexp, gen_dexp_nonterm,
                             gen_qbf, gen_sets, gen_sets_nonterm, qbf_truth)
from chasekit.datalog import entails
from chasekit.matching import evaluate_bcq
from chasekit.model import Constant, Null, Position, substitute
from chasekit.saturation import enumerate_ebar_paths, path_query
from chasekit.treechase import tree_chase_guided
from oracles import naive_entails, qbf_brute_force

CHASE_CAP = 100_000

QBF_SUITE = (
    ("e", ((1,),)), ("a", ((1,),)), ("e", ((-1,),)),
    ("ea", ((1, 2), (1, -2))), ("ae", ((1, 2), (-1, -2))), ("ae", ((1, 2), (1, -2))),
    ("aa", ((1, -1), (2, -2))), ("ee", ((1, -2), (-1, 2))),
    ("eae", ((1, 2, 3), (-1, -3), (2, -2))), ("aea", ((1, 2), (-1, -2), (3, -3))),
    ("aaa", ((1, 2, 3),)), ("aaa", ((1, -1), (2, -2), (3, -3))),
)

# regression baselines, frozen from the first validated deterministic runs
DEXP_TOP_NULLS = {1: 4, 2: 16, 3: 256}
DEXP_TOTAL_NULLS = {1: 4, 2: 24, 3: 296}
SETS_NULLS = {1: 1, 2: 4, 3: 15, 4: 64}
QBF_FULL_NULLS = {1: 2, 2: 6, 3: 14}


@contextmanager
def criterion(number: int, budget: float = None):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"[acceptance] criterion {number}: FAIL")
        raise
    elapsed = time.perf_counter() - start
    note = f" ({elapsed:.1f}s)" if budget else ""
    if budget is not None and elapsed >= budget:
        print(f"[acceptance] criterion {number}: FAIL (runtime {elapsed:.1f}s "
              f">= {budget:.0f}s)")
        pytest.fail(f"criterion {number} exceeded its runtime budget")
    print(f"[acceptance] criterion {number}: PASS{note}")


class Cache:
    """Shared deterministic runs and analyses for the whole session."""

    def __init__(self):
        self.analyses = {}
        self.runs = {}

    def analysis(self, program):
        key = program.to_text()
        if key not in self.analyses:
            self.analyses[key] = analyze(program)
        return self.analyses[key]

    def run(self, name, inst, cap=CHASE_CAP):
        if name not in self.runs:
            self.runs[name] = (inst, chase(inst.program, inst.database,
                                           Deterministic(), cap))
        return self.runs[name]


@pytest.fixture(scope="module")
def cache():
    return Cache()


@pytest.fixture(scope="module")
def qbf_results(cache):
    out = []
    for qs, cl in QBF_SUITE:
        formula = QbfFormula(qs, cl)
        inst = gen_qbf(formula)
        _, full = cache.run(f"qbf:{qs}:{cl}", inst)
        assert full.terminated
        info = cache.analysis(inst.program).arboreous
        guided = tree_chase_guided(inst.program, inst.database,
                                   inst.queries[0], info)
        out.append((formula, inst, full, guided))
    return out


def test_criterion_1_golden_analysis(cache):
    with criterion(1, budget=5.0):
        dexp = cache.analysis(gen_dexp(2, True).program)
        assert dexp.saturation.verdict == "saturating"
        (e,) = dexp.saturation.certificates[0]
        assert (e.src.name, e.label.name, e.dst.name) == ("V", "X", "W")
        assert len(dexp.graph.edges) == 3
        omega = {v.name: dexp.graph.omega[v] for v in dexp.graph.vertices}
        assert omega["V"] == {Position("cat", 4), Position("part", 2),
                              Position("up", 1)}
        # the published example set plus <part,1>, which the closure forces
        assert omega["W"] == {Position("up", 3), Position("lvl", 1),
                              Position("cat", 1), Position("cat", 2),
                              Position("part", 1)}

        sets = cache.analysis(gen_sets(1).program)
        assert sets.saturation.verdict == "saturating"
        comp = sets.saturation.components[0]
        (loop,) = comp.e_set
        assert loop.src == loop.dst and loop.label.name == "S"
        # the only avoiding continuation is the empty path
        scc = sets.scc
        paths = enumerate_ebar_paths(scc, 0, comp.e_set)
        assert [p for _, p in paths] == [()]

        nonterm = cache.analysis(gen_sets_nonterm().program)
        assert nonterm.saturation.verdict == "not-saturating"


def _saturating_sweep_instances():
    yield "dexp(1)", gen_dexp(1, True)
    yield "dexp(2)", gen_dexp(2, True)
    yield "dexp(1,cyclic)", gen_dexp(1, True, "first(1) .\nlast(1) .\nnext(1,1) .\n")
    for n in (0, 1, 2):
        yield f"sets({n})", gen_sets(n)
    yield "counter(1)", gen_counter(1)
    yield "counter(2)", gen_counter(2)
    yield "qbf(ea)", gen_qbf(QbfFormula("ea", ((1, 2), (1, -2))))
    yield "qbf(ae)", gen_qbf(QbfFormula("ae", ((1, 2), (1, -2))))


def test_criterion_2_termination_soundness_sweep(cache):
    with criterion(2, budget=60.0):
        strategies = [Deterministic()] + [Seeded(s) for s in range(1, 21)]
        for name, inst in _saturating_sweep_instances():
            report = cache.analysis(inst.program)
            assert report.saturation.verdict == "saturating", name
            for strategy in strategies:
                result = chase(inst.program, inst.database, strategy, CHASE_CAP)
                assert result.terminated, f"{name} under {strategy}"


def test_criterion_3_nontermination_sentinels(cache):
    with criterion(3, budget=30.0):
        for name, inst in (("dexp-nonterm", gen_dexp_nonterm()),
                           ("sets-nonterm", gen_sets_nonterm())):
            _, result = cache.run(name, inst, cap=10_000)
            assert not result.terminated, name
            assert result.steps == 10_000


def _top_level_constructor_nulls(inst, result):
    """Nulls created by the pairing rule at the database's last level."""
    top = Constant(str(inst.params["levels"]))
    rule = inst.program.rule(2)
    level_var = rule.frontier[-1]
    assert level_var.name == "Z"
    return sum(1 for s in result.trace.steps
               if s.rule_id == 2 and s.match[level_var] == top)


def test_criterion_4_growth_curves(cache):
    with criterion(4, budget=120.0):
        counts = {}
        for lvl in (1, 2, 3):
            inst, result = cache.run(f"dexp({lvl})", gen_dexp(lvl, True))
            assert result.terminated
            counts[lvl] = _top_level_constructor_nulls(inst, result)
            assert counts[lvl] == DEXP_TOP_NULLS[lvl]
            assert len(result.interpretation.nulls()) == DEXP_TOTAL_NULLS[lvl]
        assert counts[2] >= counts[1] ** 2
        assert counts[3] >= counts[2] ** 2

        for n in (1, 2, 3, 4):
            inst, result = cache.run(f"sets({n})", gen_sets(n))
            assert result.terminated
            measured = len(result.interpretation.nulls())
            # independent oracle: one null per injective insertion sequence
            expected = sum(math.perm(n, k) for k in range(1, n + 1))
            assert measured == expected == SETS_NULLS[n]


def _check_chain_projection(inst, trace):
    report = analyze(inst.program)
    edges = {(e.src, e.label, e.dst) for e in report.graph.edges}
    for t, y, n in trace.null_chain_edges():
        assert (trace.var_of_null[t], y, trace.var_of_null[n]) in edges


def _check_distinct_contexts(inst, trace, e_set):
    succ = defaultdict(list)
    for t, _y, n in trace.chain_edges:
        if isinstance(t, Null):
            succ[t].append(n)
    for e in e_set:
        rule = inst.program.rule_of_var[e.dst]
        z_vars = [v for v in rule.frontier if v != e.label]
        apps = [s for s in trace.steps
                if s.rule_id == rule.rule_id and isinstance(s.match[e.label], Null)]
        for a in apps:
            reach = {a.extension[e.dst]}
            frontier = [a.extension[e.dst]]
            while frontier:
                cur = frontier.pop()
                for nxt in succ.get(cur, ()):
                    if nxt not in reach:
                        reach.add(nxt)
                        frontier.append(nxt)
            for b in apps:
                if b.index > a.index and b.match[e.label] in reach:
                    assert tuple(a.match[z] for z in z_vars) != \
                        tuple(b.match[z] for z in z_vars), \
                        f"same context along a chain of {e}"


def test_criterion_5_trace_invariants(cache, qbf_results):
    with criterion(5):
        runs = [cache.run(f"dexp({lvl})", gen_dexp(lvl, True)) for lvl in (1, 2, 3)]
        runs += [cache.run("dexp-nonterm", gen_dexp_nonterm(), cap=10_000)]
        runs += [cache.run(f"sets({n})", gen_sets(n)) for n in (0, 1, 2, 3, 4)]
        runs += [cache.run("sets-nonterm", gen_sets_nonterm(), cap=10_000)]
        runs += [cache.run(f"counter({lvl})", gen_counter(lvl)) for lvl in (1, 2)]
        runs += [(inst, full) for _f, inst, full, _g in qbf_results]
        for inst, result in runs:
            _check_chain_projection(inst, result.trace)
            report = cache.analysis(inst.program)
            if report.saturation.verdict != "saturating":
                continue
            for comp in report.saturation.components:
                if comp.e_set:
                    _check_distinct_contexts(inst, result.trace, comp.e_set)
            info = report.arboreous
            if info is None or not info.arboreous:
                continue
            build_null_forest(result.trace, info)   # in-degree <= 1
            tree = build_term_tree(result.trace, info)  # partition
            check_order_soundness(tree, report.order, result.interpretation)
            if report.path_guarded.guarded:
                check_locality(inst.program, result.trace, tree)


def test_criterion_6_engine_agreement(qbf_results):
    with criterion(6, budget=60.0):
        for formula, inst, full, guided in qbf_results:
            truth = qbf_truth(formula)
            assert truth == qbf_brute_force(formula.quantifiers, formula.clauses)
            (q,) = inst.queries
            assert evaluate_bcq(full.interpretation, q) == truth
            assert guided.entailed == truth


def test_criterion_7_space_profile(qbf_results):
    with criterion(7, budget=60.0):
        for formula, inst, full, guided in qbf_results:
            profile = guided.profile
            n_quant = len(formula.quantifiers)
            # the bounded run keeps one root-to-leaf path of bags
            assert profile.max_stack <= n_quant + 2
            # live fact set stays within a linear corridor above the database
            assert profile.max_atoms <= len(inst.database) + 18 * n_quant
            full_nulls = len(full.interpretation.nulls())
            assert full_nulls == QBF_FULL_NULLS[n_quant]
            if n_quant == 3:
                # materialized values: full chase exceeds the bounded run
                # at least fourfold at three quantifiers
                assert full_nulls >= 4 * max(profile.max_live_nulls, 1)


def test_criterion_8_propagation_oracle_equivalence(cache):
    with criterion(8):
        checked = 0
        for program in (gen_dexp(2, True).program, gen_dexp(2, False).program,
                        gen_sets(1).program):
            report = cache.analysis(program)
            scc = report.scc
            datalog = [r for r in program.rules if r.is_datalog]
            for ci in scc.nontrivial():
                intra = scc.intra_edges[ci]
                # certificate edge set if one exists, else the first
                # feedback candidate: certificate of ci or single edges
                candidates = [comp.e_set for comp in report.saturation.components
                              if comp.component == ci and comp.e_set]
                if not candidates:
                    candidates = [(e,) for e in intra
                                  if _feedback(scc, ci, (e,))]
                for e_set in candidates:
                    ebar = enumerate_ebar_paths(scc, ci, e_set)
                    for e in e_set:
                        for start, cont in ebar:
                            if start != e.dst:
                                continue
                            path = (e,) + cont
                            pq = path_query(program, path)
                            first = pq.renamings[0][path[0].label]
                            conclusion = [substitute(a, {first: pq.chain_vars[-1]})
                                          for a in pq.head_parts[0]]
                            fast = entails(datalog, pq.atoms, conclusion)
                            slow = naive_entails(datalog, pq.atoms, conclusion)
                            assert fast == slow
                            from chasekit.saturation import is_base_propagating
                            assert is_base_propagating(program, path) == slow
                            checked += 1
        assert 0 < checked <= 20


def _feedback(scc, ci, e_set):
    from chasekit.saturation import _Component
    keys = {(e.src, e.label, e.dst) for e in e_set}
    rest = [e for e in scc.intra_edges[ci] if (e.src, e.label, e.dst) not in keys]
    return _Component(scc.components[ci], rest)._walks((), ()) is not None


def test_criterion_9_counter_total_order(cache):
    with criterion(9, budget=10.0):
        # at one level the ordered elements are the two seed constants
        inst, result = cache.run("counter(1)", gen_counter(1))
        assert result.terminated
        _assert_total_order(result.interpretation, level="1", expected_size=2)
        # at two levels the order runs over the four promoted nulls
        inst, result = cache.run("counter(2)", gen_counter(2))
        assert result.terminated
        top = {a.args[0] for a in result.interpretation.by_pred("lvl")
               if a.args[1] == Constant("2")}
        assert all(isinstance(t, Null) for t in top) and len(top) == 4
        _assert_total_order(result.interpretation, level="2", expected_size=4,
                            expected_elements=top)


def _assert_total_order(interp, level, expected_size, expected_elements=None):
    lvl = Constant(level)
    succ = [a for a in interp.by_pred("succ") if a.args[2] == lvl]
    mins = [a.args[0] for a in interp.by_pred("min") if a.args[1] == lvl]
    maxs = [a.args[0] for a in interp.by_pred("max") if a.args[1] == lvl]
    assert len(mins) == 1 and len(maxs) == 1
    nxt = {}
    for a in succ:
        assert a.args[0] != a.args[1], "successor must be irreflexive"
        assert a.args[0] not in nxt, "an element has two successors"
        nxt[a.args[0]] = a.args[1]
    seen = [mins[0]]
    while seen[-1] in nxt:
        seen.append(nxt[seen[-1]])
        assert seen[-1] not in seen[:-1], "successor chain has a cycle"
    assert seen[-1] == maxs[0]
    assert len(seen) == expected_size
    if expected_elements is not None:
        assert set(seen) == expected_elements
