import itertools

import pytest
from hypothesis import given, settings, strategies as st

from chasekit.arboreal import (ArboreousInfo, _induced_var_order, build_null_forest,
                               build_term_tree, check_arboreous,
                               check_locality, check_order_soundness,
                               compute_position_order, is_path_guarded)
from chasekit.chase import ChaseStep, ChaseTrace, chase
from chasekit.corpus import QbfFormula, gen_dexp, gen_qbf, gen_sets
from chasekit.depgraph import build_ledgraph, compute_rank, scc_analysis
from chasekit.model import Atom, Constant, Null, Position, parse_program
from chasekit.saturation import find_saturating_certificate
from oracles import naive_var_order
from test_ranks import sets_chain


def analyze(program):
    graph = build_ledgraph(program)
    scc = scc_analysis(graph)
    sat = find_saturating_certificate(program, scc)
    certs = sat.certificates
    ranks = compute_rank(scc, certs) if sat.verdict == "saturating" else None
    return graph, scc, sat, certs, ranks


@pytest.fixture(scope="module")
def sets_setup():
    inst = gen_sets(2)
    graph, scc, sat, certs, ranks = analyze(inst.program)
    info = check_arboreous(inst.program, scc, ranks, certs)
    return inst, graph, scc, info


@pytest.fixture(scope="module")
def qbf_setup():
    inst = gen_qbf(QbfFormula("ea", ((1, 2), (1, -2))))
    graph, scc, sat, certs, ranks = analyze(inst.program)
    info = check_arboreous(inst.program, scc, ranks, certs)
    return inst, graph, scc, info


def test_sets_is_arboreous(sets_setup):
    _, _, _, info = sets_setup
    assert info.arboreous
    assert len(info.chat) == 1 and len(info.ehat) == 1
    assert [v.name for v in info.v_ehat] == ["V"]


def test_dexp_is_not_arboreous():
    program = gen_dexp(2, True).program
    graph, scc, sat, certs, ranks = analyze(program)
    info = check_arboreous(program, scc, ranks, certs)
    assert info.verdict == "not-arboreous"
    assert "confluence" in info.reason


def test_two_maximal_components_not_arboreous():
    # two independent set constructions: both components have rank 1
    text = ("elem(X), set(S) -> set(V), su(X,S,V), su(X,V,V) .\n"
            "su(X,S,T), su(Y,S,S) -> su(Y,T,T) .\n"
            "item(X), box(S) -> box(V), bu(X,S,V), bu(X,V,V) .\n"
            "bu(X,S,T), bu(Y,S,S) -> bu(Y,T,T) .\n")
    program = parse_program(text)
    graph, scc, sat, certs, ranks = analyze(program)
    assert ranks.program_rank == 1
    info = check_arboreous(program, scc, ranks, certs)
    assert info.verdict == "not-arboreous"
    assert "shared" in info.reason


def test_rank_zero_reports_not_applicable():
    program = parse_program("p(X) -> q(X,V) . q(X,Y) -> r(Y,W) .")
    graph, scc, sat, certs, ranks = analyze(program)
    info = check_arboreous(program, scc, ranks, certs)
    assert info.verdict == "not-applicable"


def test_null_forest_sets(sets_setup):
    inst, _, _, info = sets_setup
    result = chase(inst.program, inst.database, max_steps=4000)
    assert result.terminated
    forest = build_null_forest(result.trace, info)
    assert set(forest.nodes) == set(result.trace.var_of_null)
    for child, parent in forest.parent.items():
        assert parent in set(forest.nodes)
    # a two-element domain: singletons are roots, two-element sets children
    roots = [n for n in forest.nodes if n not in forest.parent]
    assert len(roots) == 2


def test_null_forest_empty_for_datalog_trace():
    program = parse_program("e(X,Y) -> t(X,Y) .")
    from chasekit.model import parse_facts
    db = parse_facts("e(1,2) .")
    result = chase(program, db)
    info = check_arboreous  # not used; build directly with a dummy info
    from chasekit.arboreal import ArboreousInfo
    forest = build_null_forest(result.trace, ArboreousInfo("arboreous"))
    assert forest.nodes == () and forest.parent == {}


def test_qbf_forest_in_degree(qbf_setup):
    inst, _, _, info = qbf_setup
    result = chase(inst.program, inst.database, max_steps=8000)
    assert result.terminated
    forest = build_null_forest(result.trace, info)   # validates in-degree
    assert len(forest.nodes) == 6    # assignment prefixes: 2 + 4


def test_term_tree_sets_one_bag_per_creation(sets_setup):
    inst, _, _, info = sets_setup
    result = chase(inst.program, inst.database, max_steps=4000)
    tree = build_term_tree(result.trace, info)
    creators = [s for s in result.trace.steps
                if s.rule_id in info.ehat_rule_ids and s.created_nulls]
    assert len(tree) == len(creators) + 1
    # partition: every chase term in exactly one node
    seen = set()
    for terms in tree.node_terms:
        for t in terms:
            assert t not in seen
            seen.add(t)
    assert set(result.interpretation.terms()) <= seen


def test_term_tree_trivial_for_trace_without_certificate_steps():
    program = parse_program("e(X,Y) -> t(X,Y) .")
    from chasekit.model import parse_facts
    db = parse_facts("e(1,2) .")
    result = chase(program, db)
    from chasekit.arboreal import ArboreousInfo
    tree = build_term_tree(result.trace, ArboreousInfo("arboreous"))
    assert len(tree) == 1
    assert tree.parent == (None,)


def _term_tree_by_stack_walk(trace, info):
    """``node_of``, ``parent``, ``creating_step``, ``depths`` and the member
    set of each node, with the nulls placed by a stack walk from each
    certificate step's nulls through the forest children that no
    certificate step created."""
    forest = build_null_forest(trace, info)
    children: dict = {}
    for child, par in forest.parent.items():
        children.setdefault(par, []).append(child)
    creators = [s for s in trace.steps if s.rule_id in info.ehat_rule_ids and s.created_nulls]
    certified = {n for s in creators for n in s.created_nulls}
    bag_of: dict = {}
    for bag, step in enumerate(creators, start=1):
        stack = list(step.created_nulls)
        while stack:
            n = stack.pop()
            assert n not in bag_of
            bag_of[n] = bag
            stack.extend(m for m in children.get(n, ()) if m not in certified)
    terms = {t for atom in itertools.chain(trace.database,
                                           *(s.new_facts for s in trace.steps))
             for t in atom.args}
    node_of = {t: bag_of.get(t, 0) for t in terms}
    parent = [None] + [0] * len(creators)
    for child, par in forest.parent.items():
        if bag_of.get(child, 0) not in (0, bag_of.get(par, 0)):
            parent[bag_of[child]] = bag_of.get(par, 0)
    depths = [1]
    for bag in range(1, len(parent)):
        depths.append(depths[parent[bag]] + 1)
    members = [set() for _ in parent]
    for t, bag in node_of.items():
        members[bag].add(t)
    return (node_of, tuple(parent), (None, *(s.index for s in creators)),
            tuple(depths), members)


def _alternating(n):
    return QbfFormula(("ae" * n)[:n], tuple((i, -i) for i in range(1, n + 1)))


def _program_and_database(inst):
    return inst.program, inst.database


TREE_INSTANCES = {
    **{f"sets({n})": lambda n=n: _program_and_database(gen_sets(n)) for n in range(1, 5)},
    **{f"alternating {n}": lambda n=n: _program_and_database(gen_qbf(_alternating(n)))
       for n in range(1, 7)},
    "chain k=3 n=1": lambda: sets_chain(3, 1),
    "chain k=2 n=2": lambda: sets_chain(2, 2),
}


@pytest.mark.parametrize("name", list(TREE_INSTANCES))
def test_term_tree_places_nulls_as_a_stack_walk_does(name):
    program, db = TREE_INSTANCES[name]()
    _, scc, _, certs, ranks = analyze(program)
    info = check_arboreous(program, scc, ranks, certs)
    result = chase(program, db, max_steps=20_000)
    assert info.arboreous and result.terminated
    tree = build_term_tree(result.trace, info)
    node_of, parent, creating, depths, members = _term_tree_by_stack_walk(result.trace, info)
    assert tree.node_of == node_of
    assert (tree.parent, tree.creating_step, tree.depths) == (parent, creating, depths)
    assert [set(terms) for terms in tree.node_terms] == members
    assert len(tree) > 1


def test_term_tree_drags_other_nulls_into_their_parents_bag():
    # none of the arboreous programs the suite chases makes a forest null
    # by a non-certificate rule, so the trace is made by hand: rule 1 is
    # the certificate rule, and n2, n3 and n6 are dragged along
    program = parse_program("p(X) -> q(X,V) . q(X,Y) -> r(Y,W) .")
    v, w = program.rule(1).existentials + program.rule(2).existentials
    a = Constant("a")
    n = {i: Null(i, f"n{i}") for i in range(1, 7)}
    made = [(1, a, n[1]), (2, n[1], n[2]), (2, n[2], n[3]), (1, n[3], n[4]),
            (2, a, n[5]), (2, n[4], n[6])]        # (rule, frontier value, null)
    trace = ChaseTrace(program, (Atom("p", (a,)),))
    for index, (rid, t, null) in enumerate(made, start=1):
        rule = program.rule(rid)
        facts = (Atom("q" if rid == 1 else "r", (t, null)),)
        trace.steps.append(ChaseStep(index, rid, rule.step_variables, (t,), facts, facts,
                                     (null,)))
        trace.var_of_null[null] = rule.existentials[0]
        trace.chain_edges.append((t, rule.frontier[0], null))
    info = ArboreousInfo("arboreous", chat=(v, w), ehat_rule_ids=(1,))
    tree = build_term_tree(trace, info)
    assert tree.node_terms == ((a, n[5]), (n[1], n[2], n[3]), (n[4], n[6]))
    assert (tree.parent, tree.creating_step, tree.depths) == ((None, 0, 1), (None, 1, 4),
                                                             (1, 2, 3))
    node_of, parent, creating, depths, members = _term_tree_by_stack_walk(trace, info)
    assert tree.node_of == node_of
    assert (tree.parent, tree.creating_step, tree.depths) == (parent, creating, depths)
    assert [set(terms) for terms in tree.node_terms] == members


def test_position_order_qbf_contains_su_pair(qbf_setup):
    inst, graph, scc, info = qbf_setup
    order = compute_position_order(inst.program, graph, scc, info)
    assert (Position("su", 2), Position("su", 3)) in order.pairs
    assert (Position("su", 3), Position("su", 2)) not in order.pairs


def test_position_order_reflexive_pairs_survive(qbf_setup):
    inst, graph, scc, info = qbf_setup
    order = compute_position_order(inst.program, graph, scc, info)
    for pred, arity in inst.program.signature.items():
        for i in range(1, arity + 1):
            assert (Position(pred, i), Position(pred, i)) in order.pairs


def test_position_order_deletes_existential_above_universal():
    # mk(V,X) pairs the certificate existential with a universal; the extra
    # Datalog rule keeps the construction saturating by re-deriving mk from
    # memberships, so only the position order is affected.
    program = parse_program(
        "elem(X), set(S) -> set(V), su(X,S,V), su(X,V,V), mk(V,X) .\n"
        "su(X,S,T), su(Y,S,S) -> su(Y,T,T) .\n"
        "su(Y,S,S) -> mk(S,Y) .\n")
    graph, scc, sat, certs, ranks = analyze(program)
    assert sat.verdict == "saturating"
    info = check_arboreous(program, scc, ranks, certs)
    assert info.arboreous
    order = compute_position_order(program, graph, scc, info)
    assert (Position("mk", 1), Position("mk", 2)) not in order.pairs


def test_qbf_is_path_guarded(qbf_setup):
    inst, graph, scc, info = qbf_setup
    order = compute_position_order(inst.program, graph, scc, info)
    report = is_path_guarded(inst.program, order)
    assert report.guarded


def test_merged_rule_breaks_path_guardedness(qbf_setup):
    inst, _, _, _ = qbf_setup
    # one rule mentioning two sibling set variables: their bags are
    # incomparable, so the merged rule cannot be path-guarded
    merged = ("su(X,S,T), pos(X), sat(T), su(Y,S,U), neg(Y), sat(U) -> sat(S) .\n")
    program = parse_program(inst.program.to_text() + merged)
    graph, scc, sat, certs, ranks = analyze(program)
    info = check_arboreous(program, scc, ranks, certs)
    assert info.arboreous
    order = compute_position_order(program, graph, scc, info)
    report = is_path_guarded(program, order)
    merged_id = program.rules[-1].rule_id
    assert not report.guarded
    assert merged_id in report.offending_rule_ids


def test_rule_with_single_affected_variable_is_vacuously_guarded():
    program = gen_sets(1).program
    graph, scc, sat, certs, ranks = analyze(program)
    info = check_arboreous(program, scc, ranks, certs)
    order = compute_position_order(program, graph, scc, info)
    assert is_path_guarded(program, order).guarded


def test_order_soundness_and_locality_on_qbf_trace(qbf_setup):
    inst, graph, scc, info = qbf_setup
    result = chase(inst.program, inst.database, max_steps=8000)
    tree = build_term_tree(result.trace, info)
    order = compute_position_order(inst.program, graph, scc, info)
    check_order_soundness(tree, order, result.interpretation)
    check_locality(inst.program, result.trace, tree)


def test_order_anti_monotone_under_added_rule(qbf_setup):
    inst, graph, scc, info = qbf_setup
    order1 = compute_position_order(inst.program, graph, scc, info)
    extended = parse_program(inst.program.to_text() +
                             "su(X,S,T) -> link(T,S) .\n"
                             "link(A,B), su(C,B,B) -> sat(A) .\n")
    graph2, scc2, sat2, certs2, ranks2 = analyze(extended)
    info2 = check_arboreous(extended, scc2, ranks2, certs2)
    order2 = compute_position_order(extended, graph2, scc2, info2)
    shared = {(a, b) for a, b in order2.pairs if a.pred != "link" and b.pred != "link"}
    assert shared <= order1.pairs


_QBF = gen_qbf(QbfFormula("ea", ((1, 2), (1, -2)))).program
_QBF_PAIRS = sorted((Position(pred, i), Position(pred, j))
                    for pred, arity in _QBF.signature.items()
                    for i, j in itertools.product(range(1, arity + 1), repeat=2))


@given(st.sets(st.sampled_from(_QBF_PAIRS)))
@settings(max_examples=100, deadline=None)
def test_induced_var_order_is_the_oracles(pairs):
    assert _induced_var_order(_QBF, pairs) == naive_var_order(_QBF, pairs)
