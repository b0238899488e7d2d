"""Error paths and negative tests for the validators."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from chasekit import arboreal
from chasekit.arboreal import (ArboreousInfo, InvariantViolation, NullForest,
                               build_null_forest, build_term_tree)
from chasekit.chase import ChaseStep, ChaseTrace, Seeded, chase, validate_trace
from chasekit.corpus import gen_dexp, gen_sets
from chasekit.depgraph import build_ledgraph, scc_analysis
from chasekit.model import Atom, Constant, Null, parse_facts, parse_program
from chasekit.saturation import enumerate_ebar_paths


def test_zero_arity_predicates():
    program = parse_program("go(), p(X) -> q(X) .")
    db = parse_facts("go() . p(a) .", program.signature)
    result = chase(program, db)
    assert Atom("q", (Constant("a"),)) in result.interpretation


def test_quoted_constant_with_escape():
    db = parse_facts(r"p('it\'s') .")
    (atom,) = list(db)
    assert atom.args[0] == Constant("it's")


def test_enumerate_ebar_paths_rejects_cyclic_remainder():
    program = gen_dexp(2, True).program
    scc = scc_analysis(build_ledgraph(program))
    with pytest.raises(ValueError):
        enumerate_ebar_paths(scc, 0, ())


def test_validate_trace_catches_tampered_match():
    inst = gen_sets(1)
    result = chase(inst.program, inst.database, max_steps=2000)
    step = result.trace.steps[0]
    step.values = tuple(Constant("wrong") for _ in step.values)
    with pytest.raises(AssertionError, match="does not embed the body"):
        validate_trace(inst.program, result.trace)


def test_validate_trace_catches_repeated_step():
    inst = gen_sets(1)
    result = chase(inst.program, inst.database, max_steps=2000)
    steps = result.trace.steps
    # the first step's own head facts satisfy its match the second time
    steps.insert(1, steps[0])
    with pytest.raises(AssertionError, match="match was already satisfied"):
        validate_trace(inst.program, result.trace)


def test_validate_trace_catches_reused_null():
    inst = gen_sets(2)
    result = chase(inst.program, inst.database, max_steps=2000)
    creators = [s for s in result.trace.steps if s.created_nulls]
    assert len(creators) >= 2
    first_null = creators[0].created_nulls[0]
    bad = creators[1]

    def reuse(terms):
        return tuple(first_null if isinstance(t, Null) else t for t in terms)

    bad.values, bad.created_nulls = reuse(bad.values), reuse(bad.created_nulls)
    bad.new_facts = tuple(Atom(a.pred, reuse(a.args)) for a in bad.new_facts)
    with pytest.raises(AssertionError, match="not fresh"):
        validate_trace(inst.program, result.trace)


def test_validate_trace_catches_head_mismatch():
    inst = gen_sets(1)
    result = chase(inst.program, inst.database, max_steps=2000)
    step = result.trace.steps[0]
    step.new_facts = step.new_facts + step.new_facts[:1]
    with pytest.raises(AssertionError, match="step 1: head mismatch"):
        validate_trace(inst.program, result.trace)

# an existential rule beside a Datalog rule over the same facts: the Datalog
# step comes first, and a trace without it fires the existential rule early
_EARLY = "p(X) -> s(X) .\np(X) -> r(X,V) .\nr(X,Y) -> u(Y) .\nr(X,Y) -> t(Y,W) .\n"


def test_validate_trace_rejects_first_existential_step_before_fixpoint():
    program = parse_program(_EARLY)
    result = chase(program, parse_facts("p(a) ."))
    validate_trace(program, result.trace)
    assert [s.rule_id for s in result.trace.steps] == [1, 2, 3, 4]
    # the database's p(a) leaves rule 1 unsatisfied at the first existential step
    result.trace.steps = result.trace.steps[1:]
    with pytest.raises(AssertionError, match="step 2: Datalog rule 1 was not at fixpoint"):
        validate_trace(program, result.trace)


def test_validate_trace_rejects_later_existential_step_before_fixpoint():
    program = parse_program(_EARLY)
    result = chase(program, parse_facts("p(a) ."))
    # step 2's r(a, n2_V) leaves rule 3 unsatisfied when step 4 fires rule 4
    del result.trace.steps[2]
    with pytest.raises(AssertionError, match="step 4: Datalog rule 3 was not at fixpoint"):
        validate_trace(program, result.trace)


def _forest_of(edges):
    """``build_null_forest`` on a trace of three nulls of one certificate
    existential whose chain edges join the nulls numbered ``edges``."""
    program = gen_sets(1).program
    v = program.rules[0].existentials[0]
    nulls = {i: Null(i, f"n{i}") for i in (1, 2, 3)}
    trace = ChaseTrace(program, ())
    trace.var_of_null = {n: v for n in nulls.values()}
    trace.chain_edges = [(nulls[t], v, nulls[n]) for t, n in edges]
    return build_null_forest(trace, ArboreousInfo("arboreous", chat=(v,)))


def test_null_forest_rejects_two_parents():
    with pytest.raises(InvariantViolation):
        _forest_of([(1, 3), (2, 3)])


@pytest.mark.parametrize("edges", [[(1, 2), (2, 1)],     # a 2-cycle
                                   [(3, 2)]])            # a younger parent
def test_null_forest_rejects_a_parent_not_older_than_its_child(edges):
    with pytest.raises(InvariantViolation, match="not older"):
        _forest_of(edges)


def test_term_tree_rejects_a_bag_whose_parent_bag_is_younger(monkeypatch):
    program = gen_sets(1).program
    rule = program.rules[0]
    v = rule.existentials[0]
    n1, n2 = Null(1, "n1"), Null(2, "n2")
    trace = ChaseTrace(program, ())
    trace.steps = [ChaseStep(i, rule.rule_id, rule.step_variables, (), (), (), (n,))
                   for i, n in ((1, n1), (2, n2))]
    info = ArboreousInfo("arboreous", chat=(v,), ehat_rule_ids=(rule.rule_id,))
    # bag 1, of step 1, hangs below bag 2, of the later step 2
    monkeypatch.setattr(arboreal, "build_null_forest",
                        lambda *_: NullForest((n1, n2), {n1: n2}))
    with pytest.raises(InvariantViolation, match="not older"):
        build_term_tree(trace, info)


def test_seeded_strategy_reproducible_per_seed():
    inst = gen_dexp(2, True)
    r1 = chase(inst.program, inst.database, Seeded(42), max_steps=5000)
    r2 = chase(inst.program, inst.database, Seeded(42), max_steps=5000)
    assert [s.new_facts for s in r1.trace.steps] == \
        [s.new_facts for s in r2.trace.steps]


_TAMPERED_MATCH = """
from chasekit.chase import chase, validate_trace
from chasekit.corpus import gen_sets
from chasekit.model import Constant
inst = gen_sets(1)
result = chase(inst.program, inst.database, max_steps=2000)
step = result.trace.steps[0]
step.values = tuple(Constant("wrong") for _ in step.values)
try:
    validate_trace(inst.program, result.trace)
except AssertionError as err:
    print("rejected:", err)
"""


def test_validate_trace_checks_survive_optimize_flag():
    src = str(Path(__file__).resolve().parent.parent / "src")
    out = subprocess.run([sys.executable, "-O", "-c", _TAMPERED_MATCH],
                         env=dict(os.environ, PYTHONPATH=src),
                         capture_output=True, text=True, check=True,
                         timeout=60).stdout
    assert out.startswith("rejected: step 1:")
