import pytest

from chasekit import saturation
from chasekit.corpus import (CORPUS_NAMES, gen_dexp, gen_sets, gen_sets_nonterm,
                             instance_from_name)
from chasekit.depgraph import DepEdge, build_ledgraph, scc_analysis
from chasekit.model import Variable, parse_program
from chasekit.saturation import (NonComposablePath, _is_acyclic, check_e_saturating,
                                 enumerate_ebar_paths, find_saturating_certificate,
                                 is_base_propagating, is_step_propagating,
                                 path_query)
from oracles import naive_entails


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
    pq = path_query(program, (e1, e2), graph)
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
    pq = path_query(program, (loop,), graph)
    # body of the constructor plus its head with the null renamed forward
    assert sorted(a.pred for a in pq.atoms) == ["elem", "set", "set", "su", "su"]
    su_member = [a for a in pq.atoms if a.pred == "su" and a.args[1] == a.args[2]]
    assert su_member and su_member[0].args[1] == pq.chain_vars[-1]


def test_non_composable_path_rejected(dexp):
    program, graph, _ = dexp
    e1 = _edge(graph, "X")
    with pytest.raises(NonComposablePath):
        path_query(program, (e1, e1), graph)


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
    # cross-check the production path (semi-naive + frozen constants)
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
    assert _is_acyclic(vs, path)
    assert not _is_acyclic(vs, path + [DepEdge(vs[-1], label, vs[0])])


def _ring(n):
    return parse_program("".join(f"n{i}(X) -> n{(i + 1) % n}(V), e(X,V) .\n"
                                 for i in range(n)))


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
