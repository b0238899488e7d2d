import re

import pytest
from hypothesis import example, given, settings, strategies as st

from chasekit.corpus import (CORPUS_NAMES, gen_dexp, gen_sets, gen_sets_nonterm,
                             instance_from_name)
from chasekit.depgraph import (MissingCertificate, _components, build_ledgraph,
                               compute_omegas, compute_rank, scc_analysis)
from chasekit.model import Position, parse_program
from oracles import naive_components, naive_ledgraph, naive_omegas
from test_invariants import _layered_program


def _var(program, rule_id, name):
    rule = program.rule(rule_id)
    for v in rule.variables():
        if v.name == name:
            return v
    raise KeyError(name)


@pytest.fixture(scope="module")
def dexp():
    return gen_dexp(2, True).program


def test_positions_of_body_and_head(dexp):
    x = _var(dexp, 4, "X")
    assert set(dexp.positions[x][0]) == {Position("cat", 4)}
    v = _var(dexp, 2, "V")
    assert set(dexp.positions[v][1]) == {Position("cat", 4)}
    z = _var(dexp, 4, "Z")
    assert set(dexp.positions[z][1]) == set()


def test_omega_sets_of_the_doubling_construction(dexp):
    omegas = compute_omegas(dexp)
    v = _var(dexp, 2, "V")
    w = _var(dexp, 4, "W")
    assert omegas[v] == {Position("cat", 4), Position("part", 2), Position("up", 1)}
    # <part,1> is forced by the closure: the part rule's first variable has
    # body positions {<cat,1>} inside omega(W) and occurs at <part,1> in the
    # head.  It adds no edges.
    assert omegas[w] == {Position("up", 3), Position("lvl", 1),
                         Position("cat", 1), Position("cat", 2),
                         Position("part", 1)}


def test_omega_trivial_closure():
    p = parse_program("q(X) -> p(V) .")
    omegas = compute_omegas(p)
    (v,) = list(omegas)
    assert omegas[v] == {Position("p", 1)}


def test_dexp_ledgraph_has_exactly_three_edges(dexp):
    graph = build_ledgraph(dexp)
    v = _var(dexp, 2, "V")
    w = _var(dexp, 4, "W")
    triples = {(e.src.name, e.label.name, e.dst.name) for e in graph.edges}
    assert triples == {("V", "X", "W"), ("W", "X1", "V"), ("W", "X2", "V")}
    assert set(graph.vertices) == {v, w}


def test_datalog_program_has_empty_graph():
    p = parse_program("e(X,Y) -> t(X,Y) .")
    graph = build_ledgraph(p)
    assert graph.vertices == () and graph.edges == ()


def test_sets_graph_is_one_self_loop():
    p = gen_sets(1).program
    graph = build_ledgraph(p)
    assert len(graph.vertices) == 1
    (edge,) = graph.edges
    assert edge.src == edge.dst
    assert edge.label.name == "S"


def test_sets_nonterm_has_two_self_loops():
    p = gen_sets_nonterm().program
    graph = build_ledgraph(p)
    labels = sorted(e.label.name for e in graph.edges if e.src == e.dst)
    assert labels == ["S", "X"]


def test_scc_analysis_dexp(dexp):
    graph = build_ledgraph(dexp)
    scc = scc_analysis(graph)
    v = _var(dexp, 2, "V")
    w = _var(dexp, 4, "W")
    assert len(scc.components) == 1
    assert scc.components[0] == {v, w}
    assert {u.name for u in scc.lambda_of[v]} == {"X1", "X2"}
    assert {u.name for u in scc.lambda_of[w]} == {"X"}
    assert scc.beta == (2,)


def test_scc_analysis_sets():
    graph = build_ledgraph(gen_sets(1).program)
    scc = scc_analysis(graph)
    assert scc.beta == (1,)
    assert scc.nontrivial() == [0]


def test_acyclic_graph_all_trivial():
    p = parse_program("p(X) -> q(X,V) . q(X,Y) -> r(Y,W) .")
    graph = build_ledgraph(p)
    scc = scc_analysis(graph)
    assert all(b == 0 for b in scc.beta)
    assert scc.nontrivial() == []
    # topological order puts the source component first
    names = [next(iter(c)).name for c in scc.components]
    assert names == ["V", "W"]


def test_rank_dexp_is_two(dexp):
    graph = build_ledgraph(dexp)
    scc = scc_analysis(graph)
    e = next(e for e in graph.edges if e.label.name == "X")
    report = compute_rank(scc, {0: (e,)})
    assert report.program_rank == 2
    assert report.components[0].r_in == 0
    assert report.components[0].r_cxt == 0


def test_rank_sets_is_one():
    graph = build_ledgraph(gen_sets(1).program)
    scc = scc_analysis(graph)
    report = compute_rank(scc, {0: tuple(graph.edges)})
    assert report.program_rank == 1


def test_rank_acyclic_is_zero():
    p = parse_program("p(X) -> q(X,V) . q(X,Y) -> r(Y,W) .")
    scc = scc_analysis(build_ledgraph(p))
    report = compute_rank(scc, {})
    assert report.program_rank == 0
    assert all(c.rank == 0 for c in report.components)


def test_rank_requires_certificates_for_cyclic_components():
    graph = build_ledgraph(gen_sets(1).program)
    scc = scc_analysis(graph)
    with pytest.raises(MissingCertificate):
        compute_rank(scc, {})


def test_omega_monotone_under_added_datalog_rule(dexp):
    base = compute_omegas(dexp)
    extended = parse_program(dexp.to_text() + "part(A,B) -> up(B,B,A) .")
    bigger = compute_omegas(extended)
    for v, omega in base.items():
        counterpart = next(u for u in bigger if u.name == v.name
                           and extended.rule_of_var[u].rule_id ==
                           dexp.rule_of_var[v].rule_id)
        assert omega <= bigger[counterpart]


def test_dot_export_mentions_rule_tagged_vertices(dexp):
    graph = build_ledgraph(dexp)
    dot = graph.to_dot(scc_analysis(graph))
    assert '"V@r2"' in dot and '"W@r4"' in dot and "cluster_0" in dot


# -- omega closure against the rescanning oracle -----------------------------

def _corpus_programs():
    return [instance_from_name(name).program for name in CORPUS_NAMES]


def _rename(text: str, prefix: str) -> str:
    return re.sub(r"\b([a-z][A-Za-z0-9_]*)\(", lambda m: f"{prefix}{m.group(1)}(", text)


def test_omegas_equal_the_rescanning_oracle_on_the_corpus():
    for program in _corpus_programs():
        assert compute_omegas(program) == naive_omegas(program)


def test_omegas_equal_the_rescanning_oracle_on_unions():
    texts = [p.to_text() for p in _corpus_programs()]
    renamed = parse_program("".join(_rename(t, f"u{i}y") for i, t in
                                    enumerate(texts * 3)))
    shared = parse_program("".join(texts))    # copies that share predicates
    for program in (renamed, shared):
        assert compute_omegas(program) == naive_omegas(program)


@settings(max_examples=60, deadline=None)
@given(_layered_program())
def test_omegas_equal_the_rescanning_oracle_on_layered_programs(case):
    program = parse_program(case[0])
    assert compute_omegas(program) == naive_omegas(program)


# -- graph and component tables against the definitional oracle --------------

def _assert_graph_is_the_oracles(program):
    graph = build_ledgraph(program)
    scc = scc_analysis(graph)
    expected = naive_ledgraph(program)
    assert graph.vertices == expected["vertices"]
    assert graph.edges == expected["edges"]
    for field in ("components", "component_of", "lambda_of", "beta_of", "beta",
                  "intra_edges", "incoming_edges"):
        assert getattr(scc, field) == expected[field], field


def test_graph_equals_the_oracle_on_the_corpus():
    for program in _corpus_programs():
        _assert_graph_is_the_oracles(program)


def test_graph_equals_the_oracle_on_unions():
    texts = [p.to_text() for p in _corpus_programs()]
    renamed = parse_program("".join(_rename(t, f"u{i}y") for i, t in
                                    enumerate(texts * 3)))
    shared = parse_program("".join(texts))
    for program in (renamed, shared):
        _assert_graph_is_the_oracles(program)


@settings(max_examples=60, deadline=None)
@given(_layered_program())
def test_graph_equals_the_oracle_on_layered_programs(case):
    _assert_graph_is_the_oracles(parse_program(case[0]))


@st.composite
def _digraphs(draw):
    n = draw(st.integers(1, 12))
    vertex = st.integers(0, n - 1)
    return n, draw(st.lists(st.tuples(vertex, vertex), max_size=3 * n))


@given(_digraphs())
@example((12, [(i, (i + 1) % 12) for i in range(12)]))    # one full cycle
@example((5, []))                                          # isolated vertices
@example((4, [(0, 0), (1, 1), (0, 1), (2, 3)]))            # self-loops
@settings(max_examples=200, deadline=None)
def test_components_are_the_oracles_partition(graph):
    n, edges = graph
    vertices = tuple(range(n))
    succ = {v: [b for a, b in edges if a == v] for v in vertices}
    pred = {v: [a for a, b in edges if b == v] for v in vertices}
    found = _components(vertices, succ, pred)
    assert sorted(map(sorted, found)) == sorted(map(sorted, naive_components(vertices, edges)))
