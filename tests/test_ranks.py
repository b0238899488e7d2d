"""Ranks above 2: the k-stage sets chain, whose stage i's sets are stage
i+1's elements, checked against a closed form for its null count, and its
variant whose first stage is dexp."""

import re
from math import perm

import pytest

from chasekit.analysis import analyze
from chasekit.arboreal import build_term_tree, check_locality, check_order_soundness
from chasekit.chase import Deterministic, chase, validate_trace
from chasekit.corpus import gen_dexp, level_database
from chasekit.matching import evaluate_bcq
from chasekit.model import Null, parse_facts, parse_program, parse_query
from chasekit.treechase import tree_chase_guided

_STAGE = """\
elem{i}(X), set{i}(S) -> set{i}(V), su{i}(X,S,V), su{i}(X,V,V) .
su{i}(X,S,T), su{i}(Y,S,S) -> su{i}(Y,T,T) .
"""


def sets_chain(k: int, n: int):
    """The sets rules of stages 1..k, joined by ``set{i}(S) -> elem{i+1}(S)``,
    over ``n`` elements of stage 1 and a seed set ``e{i}`` per stage."""
    text = "".join(_STAGE.format(i=i) + (f"set{i}(S) -> elem{i + 1}(S) .\n" if i < k else "")
                   for i in range(1, k + 1))
    program = parse_program(text)
    facts = "".join(f"elem1(a{j}) .\n" for j in range(1, n + 1))
    facts += "".join(f"set{i}(e{i}) .\n" for i in range(1, k + 1))
    return program, parse_facts(facts, program.signature)


def expected_nulls(k: int, n: int) -> int:
    """Sum of N_i over the stages: a set of stage i is built from m_i
    elements one distinct element at a time, so N_i counts the nonempty
    sequences of distinct elements, and stage i+1 has m_{i+1} = N_i + 1
    elements, the sets of stage i and its own seed."""
    total, m = 0, n
    for _ in range(k):
        made = sum(perm(m, j) for j in range(1, m + 1))
        total += made
        m = made + 1
    return total


def _walk_query(k: int, program):
    """A member of stage k's sets that is a set of stage k-1 holding one of
    stage k-2, and so on down to ``a1``."""
    atoms = [f"su{k}(X{k},S,S)"]
    atoms += [f"su{i}(X{i},X{i + 1},X{i + 1})" for i in range(k - 1, 1, -1)]
    atoms.append("su1(a1,X2,X2)" if k > 1 else "su1(a1,S,S)")
    return parse_query(f"?- {', '.join(atoms)} .", program.signature)


def test_closed_form_of_the_probed_chain():
    assert expected_nulls(3, 1) == 1 + 4 + 325


@pytest.mark.parametrize("k", [1, 2, 3, 5, 12, 40])
def test_chain_has_rank_k_and_is_arboreous_and_path_guarded(k):
    program, _db = sets_chain(k, 1)
    report = analyze(program)
    assert report.saturation.verdict == "saturating"
    assert report.ranks.program_rank == k
    assert report.arboreous.arboreous
    assert report.path_guarded.guarded


@pytest.mark.parametrize("k, n", [(3, 1), (2, 0), (2, 1), (2, 2),
                                  (1, 0), (1, 1), (1, 2), (1, 3), (1, 4)])
def test_chain_chase_matches_the_closed_form_and_its_invariants(k, n):
    program, db = sets_chain(k, n)
    result = chase(program, db, Deterministic(), 20_000)
    assert result.terminated
    validate_trace(program, result.trace)
    nulls = {t for atom in result.interpretation for t in atom.args if isinstance(t, Null)}
    assert len(nulls) == expected_nulls(k, n)
    report = analyze(program)
    tree = build_term_tree(result.trace, report.arboreous)
    check_order_soundness(tree, report.order, result.interpretation)
    check_locality(program, result.trace, tree)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_guided_engine_agrees_on_a_query_through_every_stage(k):
    program, db = sets_chain(k, 1)
    q = _walk_query(k, program)
    guided = tree_chase_guided(program, db, q, analyze(program).arboreous)
    model = chase(program, db, Deterministic(), 20_000).interpretation
    assert guided.entailed is evaluate_bcq(model, q) is True
    assert guided.profile.max_atoms <= len(model) == guided.reference_facts
    if k == 3:
        # the space the guided engine holds, beside the full model's size
        assert (guided.profile.max_atoms, len(model)) == (31, 1983)


def _first_stage(text: str) -> str:
    """``text`` with every predicate suffixed by 1, the dexp stage's own."""
    return re.sub(r"\b([a-z][A-Za-z0-9]*)\(", r"\g<1>1(", text)


def dexp_chain(k: int):
    """dexp(1) with propagation as stage 1, then the sets rules of stages
    2..k; ``lvl1(X,Z) -> elem2(X)`` makes every sequence of the dexp stage an
    element of stage 2, and ``set{i}(S) -> elem{i+1}(S)`` joins the rest, as
    in ``sets_chain``.  The database holds one level and a seed set per
    sets stage.

    Its rank by hand is k + 1.  The dexp stage is one component {V@r2,
    W@r4}: V's in-edges carry the labels X1 and X2, so beta is 2 and the
    bump is 2.  Its certificate is the edge V -X-> W, and no edge from
    outside the component enters W, so it has no context: rank 0 + 2 = 2.
    Stage 2's component is its constructor's null V with a self-loop
    labelled S, so beta is 1 and the bump is 1.  The loop is its
    certificate, and the dexp stage's W reaches ``elem2`` and enters V under
    the label X, not S, so the dexp stage is its context: rank 2 + 1 = 3.
    Each later stage has the one before as its context, so stage i has
    rank i + 1, and the program has rank k + 1.
    """
    text = _first_stage(gen_dexp(1, True).program.to_text())
    text += "".join(("lvl1(X,Z) -> elem2(X) .\n" if i == 2 else f"set{i - 1}(S) -> elem{i}(S) .\n")
                    + _STAGE.format(i=i) for i in range(2, k + 1))
    program = parse_program(text)
    facts = _first_stage(level_database(1))
    facts += "".join(f"set{i}(e{i}) .\n" for i in range(2, k + 1))
    return program, parse_facts(facts, program.signature)


@pytest.mark.parametrize("k", [1, 2, 3, 12])
def test_chain_with_a_dexp_stage_has_rank_k_plus_1(k):
    program, _db = dexp_chain(k)
    report = analyze(program)
    assert report.saturation.verdict == "saturating"
    assert report.ranks.program_rank == k + 1
    cyclic = {c.component for c in report.saturation.components}
    ranks = sorted((r.rank, r.r_cxt, len(r.context_components))
                   for r in report.ranks.components if r.component in cyclic)
    assert ranks == [(2, 0, 0)] + [(i + 1, i, 1) for i in range(2, k + 1)]


@pytest.mark.parametrize("k", [1, 2, 3])
def test_dexp_chain_chase_matches_the_closed_form(k):
    # one level: dexp makes four concatenations and no level above, so the
    # sets of stage 2 are built from the two sequences f and t
    program, db = dexp_chain(k)
    result = chase(program, db, Deterministic(), 20_000)
    assert result.terminated
    validate_trace(program, result.trace)
    nulls = {t for atom in result.interpretation for t in atom.args if isinstance(t, Null)}
    assert len(nulls) == 4 + expected_nulls(k - 1, 2)
