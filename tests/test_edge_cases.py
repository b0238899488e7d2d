"""Error paths and negative tests for the validators."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from chasekit.arboreal import ArboreousInfo, InvariantViolation, build_null_forest
from chasekit.chase import ChaseTrace, Seeded, chase, validate_trace
from chasekit.corpus import gen_dexp, gen_sets
from chasekit.depgraph import build_ledgraph, positions_of, scc_analysis
from chasekit.model import (Atom, Constant, Null, Variable, parse_facts,
                            parse_program)
from chasekit.saturation import enumerate_ebar_paths


def test_positions_of_unknown_variable():
    program = parse_program("p(X) -> q(X) .")
    with pytest.raises(KeyError):
        positions_of(program, Variable(999, "Zz"), "body")


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
    step.match = {v: Constant("wrong") for v in step.match}
    with pytest.raises(AssertionError):
        validate_trace(inst.program, result.trace)


def test_validate_trace_catches_reused_null():
    inst = gen_sets(2)
    result = chase(inst.program, inst.database, max_steps=2000)
    creators = [s for s in result.trace.steps if s.created_nulls]
    assert len(creators) >= 2
    first_null = creators[0].created_nulls[0]
    bad = creators[1]
    bad.extension = {v: first_null if isinstance(t, Null) else t
                     for v, t in bad.extension.items()}
    bad.new_facts = tuple(
        Atom(a.pred, tuple(first_null if isinstance(t, Null) else t for t in a.args))
        for a in bad.new_facts)
    with pytest.raises(AssertionError, match="not fresh"):
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


def test_null_forest_rejects_two_parents():
    program = gen_sets(1).program
    v = program.rules[0].existentials[0]
    n1, n2, n3 = Null(1, "n1"), Null(2, "n2"), Null(3, "n3")
    trace = ChaseTrace(program, ())
    trace.var_of_null = {n1: v, n2: v, n3: v}
    trace.chain_edges = [(n1, v, n3), (n2, v, n3)]
    info = ArboreousInfo("arboreous", chat=(v,))
    with pytest.raises(InvariantViolation):
        build_null_forest(trace, info)


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
step.match = {v: Constant("wrong") for v in step.match}
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
