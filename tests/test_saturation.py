import hashlib
import itertools
import json
import random
import types

import pytest

from chasekit import saturation
from chasekit.corpus import (CORPUS_NAMES, gen_counter, gen_dexp, gen_sets,
                             gen_sets_nonterm, instance_from_name)
from chasekit.depgraph import DepEdge, build_ledgraph, scc_analysis
from chasekit.datalog import entails
from chasekit.model import Variable, parse_program, substitute
from chasekit.saturation import (NonComposablePath, PathBudgetExceeded, PathQuery,
                                 PropagationCache, _Component, _Ebar, check_e_saturating,
                                 enumerate_ebar_paths, find_saturating_certificate,
                                 is_base_propagating, is_step_propagating,
                                 path_query)
from oracles import naive_entails, naive_path_query


@pytest.fixture(scope="module")
def dexp():
    program = gen_dexp(2, True).program
    graph = build_ledgraph(program)
    scc = scc_analysis(graph)
    return program, graph, scc


def _edge(graph, label_name):
    return next(e for e in graph.edges if e.label.name == label_name)


def test_path_query_matches_hand_expansion(dexp):
    program, graph, _ = dexp
    e1 = _edge(graph, "X")
    e2 = _edge(graph, "X1")
    pq = path_query(program, (e1, e2))
    preds = sorted(a.pred for a in pq.atoms)
    assert preds == ["cat", "cat", "lvl", "lvl", "next", "up"]
    # the up head chains into the second step's first lvl argument
    up_atom = next(a for a in pq.atoms if a.pred == "up")
    assert up_atom.args[2] == pq.chain_vars[1]
    second_cat = pq.head_parts[1][0]
    assert second_cat.args[0] == pq.chain_vars[1]
    assert second_cat.args[3] == pq.chain_vars[2]
    assert pq.head_parts[0] == (up_atom,)


def test_path_query_single_self_loop():
    program = gen_sets(1).program
    graph = build_ledgraph(program)
    (loop,) = graph.edges
    pq = path_query(program, (loop,))
    # body of the constructor plus its head with the null renamed forward
    assert sorted(a.pred for a in pq.atoms) == ["elem", "set", "set", "su", "su"]
    su_member = [a for a in pq.atoms if a.pred == "su" and a.args[1] == a.args[2]]
    assert su_member and su_member[0].args[1] == pq.chain_vars[-1]


def test_non_composable_path_rejected(dexp):
    program, graph, _ = dexp
    e1 = _edge(graph, "X")
    with pytest.raises(NonComposablePath):
        path_query(program, (e1, e1))


def test_base_propagation_dexp(dexp):
    program, graph, _ = dexp
    e1 = _edge(graph, "X")
    for label in ("X1", "X2"):
        assert is_base_propagating(program, (e1, _edge(graph, label)))


def test_base_propagation_fails_without_propagation_rules():
    program = gen_dexp(2, False).program
    graph = build_ledgraph(program)
    e1 = _edge(graph, "X")
    e2 = _edge(graph, "X1")
    assert not is_base_propagating(program, (e1, e2))


def test_base_propagation_sets_self_loop():
    program = gen_sets(1).program
    graph = build_ledgraph(program)
    (loop,) = graph.edges
    assert is_base_propagating(program, (loop,))


@pytest.mark.parametrize("generate, labels, verdict, queries", [
    (lambda: gen_dexp(2, True), ("X", "X1"), True, 1),    # needs the fixpoint
    (lambda: gen_dexp(2, False), ("X", "X1"), False, 0),  # no rule derives the head
    (lambda: gen_sets(1), ("S",), True, 0),               # the head is in the query
])
def test_base_check_builds_the_path_query_only_for_the_fixpoint(
        monkeypatch, generate, labels, verdict, queries):
    program = generate().program
    graph = build_ledgraph(program)
    path = tuple(_edge(graph, label) for label in labels)
    built = []
    monkeypatch.setattr(saturation, "path_query",
                        lambda *args: built.append(args) or path_query(*args))
    assert is_base_propagating(program, path) is verdict
    assert len(built) == queries


def test_step_propagation_dexp_all_four(dexp):
    program, graph, _ = dexp
    e1 = _edge(graph, "X")
    conts = [_edge(graph, "X1"), _edge(graph, "X2")]
    for ca in conts:
        for cb in conts:
            assert is_step_propagating(program, (e1, ca), (e1, cb), e1)


def test_step_propagation_sets_empty_continuations():
    program = gen_sets(1).program
    graph = build_ledgraph(program)
    (loop,) = graph.edges
    assert is_step_propagating(program, (loop,), (loop,), loop)


def test_step_propagation_fails_without_step_rule():
    inst = gen_dexp(2, True)
    # drop the last rule (the step-propagation one)
    text = "\n".join(str(r) for r in inst.program.rules[:-1])
    program = parse_program(text)
    graph = build_ledgraph(program)
    e1 = _edge(graph, "X")
    c = _edge(graph, "X1")
    assert not is_step_propagating(program, (e1, c), (e1, c), e1)


def test_ebar_paths_dexp(dexp):
    program, graph, scc = dexp
    e1 = _edge(graph, "X")
    paths = enumerate_ebar_paths(scc, 0, (e1,))
    rendered = sorted(tuple(e.label.name for e in p) for _, p in paths)
    assert rendered == [("X1",), ("X2",)]


def test_ebar_paths_sets_only_empty():
    program = gen_sets(1).program
    scc = scc_analysis(build_ledgraph(program))
    paths = enumerate_ebar_paths(scc, 0, scc.intra_edges[0])
    assert [p for _, p in paths] == [()]


def test_ebar_paths_all_edges_leaves_empties(dexp):
    program, graph, scc = dexp
    paths = enumerate_ebar_paths(scc, 0, scc.intra_edges[0])
    assert all(p == () for _, p in paths)
    # both vertices are simultaneously a target and a source of the set
    assert len(paths) == 2


def test_check_e_saturating_dexp_certificate(dexp):
    program, graph, scc = dexp
    e1 = _edge(graph, "X")
    report = check_e_saturating(program, scc, 0, (e1,))
    assert report.conditions == (True, True, True, True)
    assert report.base_paths_checked == 2
    assert report.step_pairs_checked == 4


def test_check_e_saturating_condition2_failure():
    program = gen_sets_nonterm().program
    scc = scc_analysis(build_ledgraph(program))
    loops = scc.intra_edges[0]
    report = check_e_saturating(program, scc, 0, loops)
    assert report.conditions[0] is True
    assert report.conditions[1] is False


def test_shared_label_counterexample_pinned_on_sets_nonterm_loops():
    program = gen_sets_nonterm().program
    scc = scc_analysis(build_ledgraph(program))
    report = check_e_saturating(program, scc, 0, scc.intra_edges[0])
    assert report.conditions == (True, False, True, True)
    assert report.counterexample == "edges into V carry labels ['S', 'X']"
    assert (report.base_paths_checked, report.step_pairs_checked) == (0, 0)


def test_shared_label_counterexample_names_the_first_clashing_target():
    # a hand-made component: T1's in-edges carry X and Y, T2's W and U, and
    # R's and S's one label each; E leaves out S -(Y)-> T1, so E's edges
    # into T1 share X, E's edges into T2 do not, and the rest is acyclic
    r, s, t1, t2, *labels = [Variable(i, name) for i, name in enumerate(
        ["R", "S", "T1", "T2", "Rl", "Ql", "X", "Y", "W", "U"], start=1)]
    rl, ql, x, y, w, u = labels
    e_set = (DepEdge(t1, rl, r), DepEdge(r, ql, s), DepEdge(s, x, t1),
             DepEdge(t2, x, t1), DepEdge(t1, w, t2), DepEdge(s, u, t2))
    edges = e_set + (DepEdge(s, y, t1),)
    vertices = (r, s, t1, t2)
    scc = types.SimpleNamespace(
        components=[frozenset(vertices)], intra_edges=[edges],
        beta_of={v: len({e.label for e in edges if e.dst == v}) for v in vertices})
    assert [scc.beta_of[v] for v in vertices] == [1, 1, 2, 2]
    report = check_e_saturating(gen_sets_nonterm().program, scc, 0, e_set)
    assert report.conditions == (True, False, True, True)
    assert report.counterexample == "edges into T2 carry labels ['U', 'W']"


def test_check_e_saturating_condition1_failure(dexp):
    program, graph, scc = dexp
    report = check_e_saturating(program, scc, 0, ())
    assert report.conditions[0] is False


def test_find_certificate_dexp(dexp):
    program, graph, scc = dexp
    result = find_saturating_certificate(program, scc)
    assert result.verdict == "saturating"
    (e,) = result.certificates[0]
    assert e.label.name == "X" and e.src.name == "V" and e.dst.name == "W"


def test_find_certificate_dexp_without_props_fails():
    program = gen_dexp(2, False).program
    scc = scc_analysis(build_ledgraph(program))
    result = find_saturating_certificate(program, scc)
    assert result.verdict == "not-saturating"


def test_find_certificate_sets():
    program = gen_sets(1).program
    scc = scc_analysis(build_ledgraph(program))
    result = find_saturating_certificate(program, scc)
    assert result.verdict == "saturating"


def test_find_certificate_sets_nonterm():
    program = gen_sets_nonterm().program
    scc = scc_analysis(build_ledgraph(program))
    result = find_saturating_certificate(program, scc)
    assert result.verdict == "not-saturating"


@pytest.mark.parametrize("budget, verdict, tried", [
    (1, "inconclusive", 1), (10, "inconclusive", 10), (254, "inconclusive", 254),
    (255, "not-saturating", 255), (4096, "not-saturating", 255)])
def test_candidate_budget_counts_only_checked_candidates(budget, verdict, tried):
    # a ring of 8 rules: one component with 8 edges, 2^8 - 1 candidate sets
    program = parse_program("".join(f"n{i}(X) -> n{(i + 1) % 8}(V), e(X,V) .\n"
                                    for i in range(8)))
    scc = scc_analysis(build_ledgraph(program))
    result = find_saturating_certificate(program, scc, candidate_budget=budget)
    assert result.verdict == verdict
    assert [c.candidates_tried for c in result.components if c.candidates_tried] == [tried]


def test_propagation_agrees_with_naive_oracle(dexp):
    # cross-check the production path (worklist saturation of the body)
    # against a brute-force materializer on the same implications
    from chasekit.saturation import path_query as _pq
    program, graph, _ = dexp
    e1 = _edge(graph, "X")
    for label in ("X1", "X2"):
        path = (e1, _edge(graph, label))
        pq = _pq(program, path)
        first_label = pq.renamings[0][path[0].label]
        from chasekit.model import substitute
        conclusion = [substitute(a, {first_label: pq.chain_vars[-1]})
                      for a in pq.head_parts[0]]
        datalog = [r for r in program.rules if r.is_datalog]
        assert naive_entails(datalog, pq.atoms, conclusion) == \
            is_base_propagating(program, path)


def test_propagation_invariant_under_renaming(dexp):
    program, graph, _ = dexp
    renamed = parse_program(program.to_text())
    graph2 = build_ledgraph(renamed)
    e1 = _edge(graph2, "X")
    for label in ("X1", "X2"):
        assert is_base_propagating(renamed, (e1, _edge(graph2, label)))


def test_acyclicity_check_is_iterative_on_long_paths():
    # far deeper than the interpreter's recursion limit
    vs = [Variable(i, f"V{i}") for i in range(3000)]
    label = Variable(10_000, "Y")
    path = [DepEdge(a, label, b) for a, b in zip(vs, vs[1:])]
    assert _Component(vs, path)._walks((), ()) is not None
    assert _Component(vs, path + [DepEdge(vs[-1], label, vs[0])])._walks((), ()) is None


def _ring(n):
    return parse_program("".join(f"n{i}(X) -> n{(i + 1) % n}(V), e(X,V) .\n"
                                 for i in range(n)))


# -- the candidate walks against a naive depth-first search ------------------------

def _naive_acyclic(vertices, edges) -> bool:
    out = {v: [e.dst for e in edges if e.src == v] for v in vertices}
    state = dict.fromkeys(vertices, 0)          # 0 new, 1 on the stack, 2 done

    def visit(v):
        state[v] = 1
        for w in out[v]:
            if state[w] == 1 or (state[w] == 0 and not visit(w)):
                return False
        state[v] = 2
        return True

    return all(state[v] or visit(v) for v in vertices)


def _naive_ebar(vertices, edges, e_set) -> list:
    """The Ē-paths by recursion, starts in id order: at each vertex the
    edges into an end are reported in edge order, then the walk descends
    into the edges in reverse order."""
    ends = {e.src for e in e_set}
    out = {v: [e for e in edges if e.src == v and e not in e_set] for v in vertices}
    paths = []

    def walk(start, v, path):
        paths.extend((start, path + (e,)) for e in out[v] if e.dst in ends)
        for e in reversed(out[v]):
            walk(start, e.dst, path + (e,))

    for start in sorted({e.dst for e in e_set}, key=lambda v: v.id):
        if start in ends:
            paths.append((start, ()))
        walk(start, start, ())
    return paths


def _random_digraph(rnd):
    vertices = [Variable(i, f"V{i}") for i in range(rnd.randint(1, 7))]
    labels = [Variable(100 + i, f"L{i}") for i in range(2)]
    triples = {(rnd.choice(vertices), rnd.choice(labels), rnd.choice(vertices))
               for _ in range(rnd.randint(1, 12))}
    edges = [DepEdge(*t) for t in triples]
    rnd.shuffle(edges)
    return vertices, edges


def test_candidate_walks_agree_with_a_naive_search():
    # one component for all edge sets, so single-edge cuts recorded early
    # bound the later candidates, as in a search; enumerate_ebar_paths
    # compiles a fresh one per call and raises at the budget
    rnd = random.Random(2701)
    checked = bounded = raised = 0
    for _ in range(120):
        vertices, edges = _random_digraph(rnd)
        comp = _Component(vertices, edges)
        scc = types.SimpleNamespace(components=[frozenset(vertices)], intra_edges=[edges])
        for e_set in itertools.chain.from_iterable(
                itertools.combinations(edges, k) for k in range(1, 4)):
            removed = comp.removed(e_set)
            acyclic = _naive_acyclic(vertices, [e for e in edges if e not in e_set])
            assert (comp._walks(removed, ()) is not None) == acyclic
            if not acyclic:
                assert comp.ebar_bound(e_set, removed, 10_000) is None
                with pytest.raises(ValueError, match="cyclic"):
                    enumerate_ebar_paths(scc, 0, e_set)
                continue
            expected = _naive_ebar(vertices, edges, e_set)
            count = len(expected)
            bound = comp.ebar_bound(e_set, removed, 10_000)
            assert count <= bound
            bounded += bound > count
            # over the budget the bound is the exact count
            assert comp.ebar_bound(e_set, removed, count - 1) == count
            assert comp.ebar_bound(e_set, removed, count) == count
            ebar = _Ebar(comp, e_set, removed)
            walked = [(start, cont) for start in sorted({e.dst for e in e_set},
                                                        key=lambda v: v.id)
                      for cont in ebar[start]]
            assert walked == expected
            if count:
                with pytest.raises(PathBudgetExceeded):
                    enumerate_ebar_paths(scc, 0, e_set, path_budget=count - 1)
                raised += 1
            assert enumerate_ebar_paths(scc, 0, e_set, path_budget=count) == expected
            checked += 1
    assert checked > 800 and bounded > 400 and raised > 400


def test_a_cut_bound_over_the_budget_still_counts_the_paths():
    # ring(3) without one edge is a chain of 3 vertices: 6 walks, and the
    # edge set of that one edge has one path
    scc = scc_analysis(build_ledgraph(_ring(3)))
    edges = scc.intra_edges[0]
    comp = _Component(scc.components[0], edges)
    e0, e1 = edges[:2]
    assert comp.ebar_bound((e0,), {0}, 1) == 1
    assert comp.cuts == {0: 6}
    assert comp.ebar_bound((e0, e1), {0, 1}, 6) == 6
    assert comp.ebar_bound((e0, e1), {0, 1}, 1) == 2
    first = next(e for e in edges if e.src == e0.dst)
    second = next(e for e in edges if e.src == first.dst)
    assert enumerate_ebar_paths(scc, 0, (e0,), path_budget=1) == [(e0.dst, (first, second))]


@pytest.mark.parametrize("budget, verdict, tried", [
    (1, "inconclusive", 4), (2, "inconclusive", 7), (3, "not-saturating", 7)])
def test_a_count_over_the_path_budget_is_inconclusive(budget, verdict, tried):
    # the single edges have one path each and a pair two, under cuts bounded
    # by 6; the whole ring has its three empty paths
    program = _ring(3)
    scc = scc_analysis(build_ledgraph(program))
    (comp,) = find_saturating_certificate(program, scc, path_budget=budget).components
    assert (comp.verdict, comp.candidates_tried) == (verdict, tried)


def test_reported_check_is_the_full_check():
    # the search stops a candidate at its first failed condition, yet the
    # report it keeps must be the full check of that edge set
    programs = [instance_from_name(name).program for name in CORPUS_NAMES]
    programs += [gen_dexp(2, False).program, _ring(8), _ring(10)]
    negatives = 0
    for program in programs:
        scc = scc_analysis(build_ledgraph(program))
        for comp in find_saturating_certificate(program, scc).components:
            if comp.report is None:
                continue
            full = check_e_saturating(program, scc, comp.component, comp.report.e_set)
            assert comp.report == full
            if comp.verdict == "not-saturating":
                assert comp.reason == full.counterexample
                negatives += 1
    assert negatives >= 4


def test_search_makes_no_step_check_after_a_failed_base_check(monkeypatch):
    # every edge set of a ring fails base propagation, so the only step
    # checks are those of the final full report on the last edge set
    calls = []
    original = saturation.is_step_propagating

    def counting(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(saturation, "is_step_propagating", counting)
    program = _ring(8)
    scc = scc_analysis(build_ledgraph(program))
    (comp,) = find_saturating_certificate(program, scc).components
    in_search = len(calls)
    del calls[:]
    report = check_e_saturating(program, scc, 0, comp.report.e_set)
    assert comp.candidates_tried == 255
    assert report.step_pairs_checked == 64
    assert in_search == len(calls) == 64


_SEARCHED = {
    "ring(8)": lambda: _ring(8),
    "ring(10)": lambda: _ring(10),
    "dexp(2, True)": lambda: gen_dexp(2, True).program,
    "dexp(2, False)": lambda: gen_dexp(2, False).program,
    "counter(2)": lambda: gen_counter(2).program,
    "sets(1)": lambda: gen_sets(1).program,
}


def _search_moves(monkeypatch, program) -> list:
    """One entry per condition walk: the edge set, the first failing
    condition, the base and step checks walked, and the base and step
    propagation checks actually run (the others are memoized)."""
    moves = []
    walk = saturation._condition_checks
    base, step = saturation.is_base_propagating, saturation.is_step_propagating

    def recording(*args):
        entry = [[(e.src.name, e.label.name, e.dst.name) for e in args[3]],
                 None, 0, 0, 0, 0]
        moves.append(entry)
        for i, failure in walk(*args):
            if i in (2, 3):
                entry[i] += 1
            if failure and entry[1] is None:
                entry[1] = i
            yield i, failure

    def counting(check, slot):
        def run(*args, **kwargs):
            moves[-1][slot] += 1
            return check(*args, **kwargs)
        return run

    monkeypatch.setattr(saturation, "_condition_checks", recording)
    monkeypatch.setattr(saturation, "is_base_propagating", counting(base, 4))
    monkeypatch.setattr(saturation, "is_step_propagating", counting(step, 5))
    scc = scc_analysis(build_ledgraph(program))
    result = find_saturating_certificate(program, scc)
    return [result.verdict, [c.candidates_tried for c in result.components], moves]


PINNED_MOVES = {
    "ring(8)":
        "1736a5d6a0bc9346f29afa41d786a98d1cb42b1573e82e1070b76c61bf273406",
    "ring(10)":
        "37e4f2bafdc703dda01be25c2067e0ac3e85682bb946d4566e9d1cb5c317e073",
    "dexp(2, True)":
        "40e9c49a5d5232db299645f53b2ea1ae9aec6f0c143b7631e1b4e9b529854579",
    "dexp(2, False)":
        "ce4d657d5100ce14e3d4ad2a87cf6d8f49a9b00d5bab64943241c0804c31bd15",
    "counter(2)":
        "40e9c49a5d5232db299645f53b2ea1ae9aec6f0c143b7631e1b4e9b529854579",
    "sets(1)":
        "629a2aad4e8eee81f62b2af5c941df638bbc77688823d465fbe856282cf931bd",
}


@pytest.mark.parametrize("name", list(PINNED_MOVES))
def test_certificate_search_moves_pinned(monkeypatch, name):
    # the search's candidates in order, where each one stopped and what it
    # checked, independent of the hash seed
    moves = _search_moves(monkeypatch, _SEARCHED[name]())
    digest = hashlib.sha256(json.dumps(moves).encode()).hexdigest()
    assert digest == PINNED_MOVES[name]


@pytest.mark.parametrize("generate, budget, verdict", [
    (lambda: gen_sets(1), 0, "inconclusive"),
    (lambda: gen_sets(1), 1, "saturating"),
    (lambda: gen_dexp(2, True), 0, "inconclusive"),
    (lambda: gen_dexp(2, True), 1, "inconclusive"),
    (lambda: gen_dexp(2, True), 2, "saturating")])
def test_path_budget_counts_the_empty_path(generate, budget, verdict):
    # sets(1) has one path, the empty one; dexp's certificate has two
    program = generate().program
    scc = scc_analysis(build_ledgraph(program))
    result = find_saturating_certificate(program, scc, path_budget=budget)
    assert result.verdict == verdict


def test_ebar_path_budget_zero_enumerates_none():
    program = gen_sets(1).program
    scc = scc_analysis(build_ledgraph(program))
    with pytest.raises(PathBudgetExceeded):
        enumerate_ebar_paths(scc, 0, scc.intra_edges[0], path_budget=0)
    assert enumerate_ebar_paths(scc, 0, scc.intra_edges[0], path_budget=1) == \
        [(scc.intra_edges[0][0].dst, ())]


# two existentials of one rule, each fed by the other's cycle: a path may
# pass through two different edges into that rule
_TWO_NULLS = """a(X) -> b(X,V), c(X,W) .
b(X,Y) -> a(Y) .
c(X,Y) -> a(Y) .
b(X,Y), c(X,Z) -> c(Y,Z) .
"""


def _checked(monkeypatch, program) -> tuple:
    """The base paths and step pairs the search checks, in order, and
    step pairs ``(e,)+a, (e,)+b`` over each single-edge feedback set."""
    base, step = [], []
    original_base = saturation.is_base_propagating
    original_step = saturation.is_step_propagating

    def record_base(program, path, *rest):
        base.append(path)
        return original_base(program, path, *rest)

    def record_step(program, path_a, path_b, e_star, *rest):
        step.append((path_a, path_b, e_star))
        return original_step(program, path_a, path_b, e_star, *rest)

    scc = scc_analysis(build_ledgraph(program))
    with monkeypatch.context() as m:
        m.setattr(saturation, "is_base_propagating", record_base)
        m.setattr(saturation, "is_step_propagating", record_step)
        find_saturating_certificate(program, scc)
    for ci in scc.nontrivial():
        for e in scc.intra_edges[ci]:
            try:
                ebar = enumerate_ebar_paths(scc, ci, (e,))
            except ValueError:       # not a feedback set
                continue
            into = [c for s, c in ebar if (c[-1].dst if c else s) == e.src]
            step += [((e,) + a, (e,) + b, e) for a in into for _, b in ebar]
    return base, step


def _bijection(old: PathQuery, new: PathQuery) -> dict:
    """The variable bijection taking ``old`` to ``new``; fails the test if
    the two differ otherwise."""
    assert old.path == new.path
    assert [len(p) for p in old.body_parts] == [len(p) for p in new.body_parts]
    assert [len(p) for p in old.head_parts] == [len(p) for p in new.head_parts]
    assert old.atoms == sum((b + h for b, h in zip(old.body_parts, old.head_parts)), ())
    assert new.atoms == sum((b + h for b, h in zip(new.body_parts, new.head_parts)), ())
    forward, backward = {}, {}
    pairs = [(x, y) for a, b in zip(old.atoms, new.atoms) for x, y in
             zip((a.pred,) + a.args, (b.pred,) + b.args)]
    pairs += list(zip(old.chain_vars, new.chain_vars))
    for r_old, r_new in zip(old.renamings, new.renamings):
        assert r_old.keys() == r_new.keys()
        pairs += [(r_old[v], r_new[v]) for v in r_old]
    for x, y in pairs:
        if isinstance(x, Variable) or isinstance(y, Variable):
            assert isinstance(x, Variable) and isinstance(y, Variable)
            assert forward.setdefault(x, y) == y and backward.setdefault(y, x) == x
        else:
            assert x == y
    return forward


def _naive_step(program, path_a, path_b, e_star):
    """Hypothesis and conclusion of a step check built from the oracle query."""
    pq = naive_path_query(program, path_a + path_b)
    ell = len(path_a)
    rule = program.rule_of_var[e_star.dst]
    top = max(v.id for r in pq.renamings for v in r.values())
    fresh = iter(range(max(top, pq.chain_vars[-1].id) + 1, 1 << 30))
    context = {v: Variable(next(fresh), f"C_{v.name}")
               for v in rule.frontier + rule.existentials
               if v not in (e_star.label, e_star.dst)}
    hyp = dict(context)
    hyp[e_star.label], hyp[e_star.dst] = pq.chain_vars[ell], pq.chain_vars[1]
    conc = dict(context)
    conc[e_star.label], conc[e_star.dst] = pq.chain_vars[-1], pq.chain_vars[ell + 1]
    return (pq.atoms + tuple(substitute(a, hyp) for a in rule.head),
            tuple(substitute(a, conc) for a in rule.head))


# the second rule's head holds the first head anchored at the path's end,
# so the base check is decided by the last head alone
_LAST_HEAD = """n0(X) -> n1(V), e(X,V) .
n1(X) -> n0(W), e(W,X) .
"""

_ORACLE_PROGRAMS = dict(_SEARCHED, **{"two nulls": lambda: parse_program(_TWO_NULLS),
                                      "last head": lambda: parse_program(_LAST_HEAD)})


@pytest.mark.parametrize("name", list(_ORACLE_PROGRAMS))
def test_path_queries_agree_with_naive_oracle(monkeypatch, name):
    program = _ORACLE_PROGRAMS[name]()
    datalog = program.datalog_rules()
    base, step = _checked(monkeypatch, program)
    assert base and step
    cache = PropagationCache(program)      # shared, as in one search
    for path in base:
        old, new = naive_path_query(program, path), path_query(program, path, cache=cache)
        _bijection(old, new)
        conclusion = [substitute(a, {old.chain_vars[0]: old.chain_vars[-1]})
                      for a in old.head_parts[0]]
        expected = naive_entails(datalog, old.atoms, conclusion)
        assert is_base_propagating(program, path, cache) == expected
        assert is_base_propagating(program, path) == expected
    entailed = []
    monkeypatch.setattr(saturation, "entails",
                        lambda *args: entailed.append(args[1:]) or entails(*args))
    for path_a, path_b, e_star in step:
        new = path_query(program, path_a + path_b, cache=cache)
        _bijection(naive_path_query(program, path_a + path_b), new)
        # the two traversals, and repeated edges, are variable-disjoint
        for r1, r2 in itertools.combinations(new.renamings, 2):
            assert not set(r1.values()) & set(r2.values())
        hypothesis, conclusion = _naive_step(program, path_a, path_b, e_star)
        expected = naive_entails(datalog, hypothesis, conclusion)
        assert is_step_propagating(program, path_a, path_b, e_star, cache) == expected
        assert is_step_propagating(program, path_a, path_b, e_star) == expected
        # the context variables of the hypothesis occur nowhere in the query
        body, head = entailed[-2]
        assert body[:len(new.atoms)] == new.atoms
        ell = len(path_a)
        linked = {new.chain_vars[ell], new.chain_vars[1]}
        context = {v for a in body[len(new.atoms):] for v in a.variables()} - linked
        assert not context & {v for a in new.atoms for v in a.variables()}
        assert context <= {v for a in head for v in a.variables()} | linked


def test_oracle_covers_two_edges_into_one_rule_and_repeated_edges(monkeypatch):
    program = parse_program(_TWO_NULLS)
    base, step = _checked(monkeypatch, program)
    rule_of = program.rule_of_var
    assert any(len({e.dst for e in p}) > 1 and len({rule_of[e.dst] for e in p}) == 1
               for p in base + [a + b for a, b, _ in step])
    ring_steps = _checked(monkeypatch, _ring(8))[1]
    assert any(a[0] == b[0] for a, b, _ in ring_steps)
    assert any(len(set(a + b)) < len(a + b) for a, b, _ in ring_steps)


def test_path_query_renamings_are_read_only(dexp):
    program, graph, _ = dexp
    cache = PropagationCache(program)
    path = (_edge(graph, "X"), _edge(graph, "X1"))
    pq = path_query(program, path, cache=cache)
    with pytest.raises(TypeError):
        pq.renamings[0][path[0].label] = path[0].label
    assert path_query(program, path, cache=cache) == pq


def test_edges_outside_the_component_are_rejected(dexp):
    program, graph, scc = dexp
    foreign = DepEdge(Variable(10_000, "U"), Variable(10_001, "Y"), Variable(10_002, "W"))
    with pytest.raises(ValueError, match="not an edge"):
        check_e_saturating(program, scc, 0, (foreign,))
    with pytest.raises(ValueError, match="not an edge"):
        enumerate_ebar_paths(scc, 0, (foreign,))
