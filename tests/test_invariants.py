"""Cross-cutting properties: generated acyclic programs terminate, chains
in real traces carry their induced conjunctions, and ranks compose along
the component order."""

from hypothesis import given, settings, strategies as st

from chasekit.analysis import analyze
from chasekit.chase import chase
from chasekit.corpus import gen_dexp, gen_sets
from chasekit.depgraph import build_ledgraph, scc_analysis
from chasekit.model import parse_facts, parse_program, substitute
from chasekit.saturation import path_query
from chasekit.treechase import tree_chase_guided
from oracles import model_check


# -- generated jointly-acyclic programs ------------------------------------

_PREDS = ["p", "q", "r", "s"]


@st.composite
def _layered_program(draw):
    """Random binary rules whose bodies only read strictly lower layers, so
    the dependency graph cannot have cycles."""
    rules = []
    n_layers = draw(st.integers(2, 4))
    for layer in range(1, n_layers):
        for _ in range(draw(st.integers(1, 2))):
            below = draw(st.sampled_from(_PREDS)) + str(
                draw(st.integers(0, layer - 1)))
            here = draw(st.sampled_from(_PREDS)) + str(layer)
            head = draw(st.sampled_from(
                [f"{here}(X,V)", f"{here}(V,X)", f"{here}(Y,V)", f"{here}(X,Y)"]))
            rules.append(f"{below}(X,Y) -> {head} .")
    facts = [f"{draw(st.sampled_from(_PREDS))}0"
             f"({draw(st.sampled_from('abc'))},{draw(st.sampled_from('abc'))}) ."
             for _ in range(draw(st.integers(1, 3)))]
    return "\n".join(rules), "\n".join(facts)


@settings(max_examples=40, deadline=None)
@given(_layered_program())
def test_acyclic_graph_implies_termination(case):
    rules_text, facts_text = case
    program = parse_program(rules_text)
    graph = build_ledgraph(program)
    scc = scc_analysis(graph)
    assert scc.nontrivial() == [], "layering must keep the graph acyclic"
    db = parse_facts(facts_text, program.signature)
    result = chase(program, db, max_steps=5_000)
    assert result.terminated
    assert model_check(program, result.interpretation)


# -- chains carry their path conjunction ------------------------------------

def _chains(trace, max_len):
    adj = {}
    for t, y, n in trace.null_chain_edges():
        adj.setdefault(t, []).append((t, y, n))
    chains = [[e] for edges in adj.values() for e in edges]
    out = list(chains)
    for _ in range(max_len - 1):
        nxt = []
        for chain in chains:
            for e in adj.get(chain[-1][2], ()):
                nxt.append(chain + [e])
        out.extend(nxt)
        chains = nxt
    return out


def _creating_step(trace, null):
    for step in trace.steps:
        if null in step.created_nulls:
            return step
    raise AssertionError(f"no step created {null}")


def test_trace_chains_satisfy_their_path_query():
    for inst in (gen_dexp(2, True), gen_sets(2)):
        result = chase(inst.program, inst.database, max_steps=10_000)
        assert result.terminated
        trace = result.trace
        graph = build_ledgraph(inst.program)
        edge_of = {(e.src, e.label, e.dst): e for e in graph.edges}
        checked = 0
        for chain in _chains(trace, max_len=2):
            path = []
            for t, y, n in chain:
                path.append(edge_of[(trace.var_of_null[t], y, trace.var_of_null[n])])
            pq = path_query(inst.program, path)
            theta = {}
            for i, (t, y, n) in enumerate(chain):
                step = _creating_step(trace, n)
                rule = inst.program.rule(step.rule_id)
                for x in rule.variables():
                    theta[pq.renamings[i][x]] = step.extension[x]
                theta[pq.chain_vars[i + 1]] = step.extension[path[i].dst]
            for atom in pq.atoms:
                assert substitute(atom, theta) in result.interpretation
            checked += 1
        assert checked > 0


# -- ranks across components -------------------------------------------------

TWO_STAGE_SETS = """\
elem1(X), set1(S) -> set1(V), su1(X,S,V), su1(X,V,V) .
su1(X,S,T), su1(Y,S,S) -> su1(Y,T,T) .
set1(S) -> elem2(S) .
elem2(X), set2(S) -> set2(V), su2(X,S,V), su2(X,V,V) .
su2(X,S,T), su2(Y,S,S) -> su2(Y,T,T) .
"""


def test_two_stage_sets_rank_two_and_tree_chase():
    program = parse_program(TWO_STAGE_SETS)
    report = analyze(program)
    d = report.to_dict()
    assert d["saturating"] is True
    # first-stage sets feed the second stage's context under a fresh label,
    # so the second component sits one exponential higher
    ranks = [c["rank"] for c in d["rank"]["components"]]
    assert ranks == [1, 2]
    assert d["rank"]["components"][1]["rCxt"] == 1
    assert d["rank"]["components"][1]["contextComponents"] == [0]
    assert d["arboreous"] is True and d["pathGuarded"] is True
    # ranks never decrease along the component order
    order = {i: c["rank"] for i, c in enumerate(d["rank"]["components"])}
    for e in report.graph.edges:
        a = report.scc.component_of[e.src]
        b = report.scc.component_of[e.dst]
        if a != b:
            assert order[a] <= order[b]

    db = parse_facts("elem1(a) . set1(e1) . set2(e2) .", program.signature)
    result = chase(program, db, max_steps=20_000)
    assert result.terminated
    from chasekit.model import parse_query
    q = parse_query("?- su2(X,S,S), su1(a,X,X) .", program.signature)
    guided = tree_chase_guided(program, db, q, report.arboreous)
    from chasekit.matching import evaluate_bcq
    assert guided.entailed == evaluate_bcq(result.interpretation, q) is True


def test_sets_nonterm_without_element_trigger_is_saturating():
    from chasekit.corpus import gen_sets_nonterm
    inst = gen_sets_nonterm()
    keep = [r for r in inst.program.rules
            if not (r.head[0].pred == "elem" and len(r.body) == 1)]
    program = parse_program("\n".join(str(r) for r in keep))
    assert analyze(program).saturation.verdict == "saturating"
