"""Ranks above 2: the k-stage sets chain, whose stage i's sets are stage
i+1's elements, checked against a closed form for its null count."""

from math import perm

import pytest

from chasekit.analysis import analyze
from chasekit.arboreal import build_term_tree, check_locality, check_order_soundness
from chasekit.chase import Deterministic, chase, validate_trace
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
    model = guided.reference.interpretation
    assert guided.entailed is evaluate_bcq(model, q) is True
    assert guided.profile.max_atoms <= len(model)
    if k == 3:
        # the space the guided engine holds, beside the full model's size
        assert (guided.profile.max_atoms, len(model)) == (31, 1983)
