import ast
import hashlib
import importlib
import json
import re
import tracemalloc
from collections import deque
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import chasekit.chase as chase_module
from chasekit.chase import ChaseResult, Deterministic, Seeded, chase, validate_trace
from chasekit.corpus import (QbfFormula, gen_counter, gen_dexp, gen_dexp_nonterm,
                             gen_qbf, gen_sets, gen_sets_nonterm)
from chasekit.datalog import saturate
from chasekit.depgraph import build_ledgraph
from chasekit.matching import Plan, evaluate_bcq, seeded_plans
from chasekit.model import (Atom, Constant, Database, parse_facts, parse_program,
                            parse_query)
from oracles import model_check
from test_datalog import _dead_slot_case
from test_invariants import _layered_program


def test_dexp_level1_terminates_and_is_a_model():
    inst = gen_dexp(1, True)
    result = chase(inst.program, inst.database, max_steps=5000)
    assert result.terminated
    assert model_check(inst.program, result.interpretation)
    validate_trace(inst.program, result.trace)


def test_cyclic_levels_without_propagation_exceed_cap():
    inst = gen_dexp_nonterm()
    result = chase(inst.program, inst.database, max_steps=1500)
    assert not result.terminated
    assert result.steps == 1500


def test_cyclic_levels_with_propagation_terminate():
    inst = gen_dexp(1, True, "first(1) .\nlast(1) .\nnext(1,1) .\n")
    result = chase(inst.program, inst.database, max_steps=5000)
    assert result.terminated
    assert model_check(inst.program, result.interpretation)


def test_datalog_only_chase_equals_saturation():
    p = parse_program("e(X,Y) -> t(X,Y) . e(X,Y), t(Y,Z) -> t(X,Z) .")
    db = parse_facts("e(1,2) . e(2,3) . e(3,4) .")
    result = chase(p, db)
    assert result.terminated
    assert set(result.interpretation) == set(saturate(p.rules, db))
    assert result.trace.chain_edges == []


def test_bcq_evaluation():
    interp = parse_facts("p(a,b) .")
    assert evaluate_bcq(interp, parse_query("?- p(X,Y) ."))
    assert not evaluate_bcq(interp, parse_query("?- p(X,X) ."))


def test_null_ids_unique_and_named_after_step_and_variable():
    inst = gen_dexp(2, True)
    result = chase(inst.program, inst.database, max_steps=5000)
    nulls = list(result.trace.var_of_null)
    assert len({n.id for n in nulls}) == len(nulls)
    for step in result.trace.steps:
        for n in step.created_nulls:
            assert n.name == f"n{step.index}_{result.trace.var_of_null[n].name}"


def test_chain_edges_project_into_dependency_graph():
    inst = gen_dexp(2, True)
    graph = build_ledgraph(inst.program)
    edge_set = {(e.src, e.label, e.dst) for e in graph.edges}
    result = chase(inst.program, inst.database, max_steps=5000)
    trace = result.trace
    null_edges = trace.null_chain_edges()
    assert null_edges, "expected null-to-null provenance on this instance"
    for t, y, n in null_edges:
        assert (trace.var_of_null[t], y, trace.var_of_null[n]) in edge_set


def test_sets_chain_edges_only_use_the_loop_label():
    inst = gen_sets(1)
    result = chase(inst.program, inst.database, max_steps=2000)
    assert result.terminated
    labels = {y.name for t, y, n in result.trace.null_chain_edges()}
    assert labels <= {"S"}


def test_deterministic_strategy_reproducible():
    inst = gen_dexp(2, True)
    r1 = chase(inst.program, inst.database, Deterministic(), max_steps=5000)
    r2 = chase(inst.program, inst.database, Deterministic(), max_steps=5000)
    assert [s.rule_id for s in r1.trace.steps] == [s.rule_id for s in r2.trace.steps]
    assert [s.new_facts for s in r1.trace.steps] == [s.new_facts for s in r2.trace.steps]
    assert list(r1.interpretation) == list(r2.interpretation)


def test_seeded_strategies_terminate_on_saturating_input():
    inst = gen_sets(2)
    base = chase(inst.program, inst.database, Deterministic(), max_steps=5000)
    assert base.terminated
    for seed in (7, 8):
        result = chase(inst.program, inst.database, Seeded(seed), max_steps=5000)
        assert result.terminated
        assert model_check(inst.program, result.interpretation)
        assert len(result.interpretation.nulls()) == len(base.interpretation.nulls())


def test_trace_line_format():
    p = parse_program("p(X) -> q(X,V) .")
    db = parse_facts("p(a) .")
    result = chase(p, db)
    line = result.trace.steps[0].line()
    assert line == "step 1: rule 1, match {X=a}, new {q(a, n1_V)}"
    d = result.trace.to_dict()
    assert d["steps"][0]["rule"] == 1
    assert d["steps"][0]["createdNulls"] == ["n1_V"]


def test_restricted_semantics_blocks_satisfied_match():
    # The second rule could re-derive a witness for p's match, but the
    # existing fact q(a,a) already satisfies it: no null is created.
    p = parse_program("p(X) -> q(X,V) .")
    db = parse_facts("p(a) . q(a,a) .")
    result = chase(p, db)
    assert result.terminated
    assert result.steps == 0


# (instance, strategy) -> (sha256 of the trace lines, steps, atoms), frozen
# from validated runs: a change to the engine must keep every trace byte for
# byte, seeded draws included
TRACE_INSTANCES = {
    "dexp(2)": (lambda: gen_dexp(2, True), 100_000),
    "counter(2)": (lambda: gen_counter(2), 100_000),
    "sets(4)": (lambda: gen_sets(4), 100_000),
    "qbf aea": (lambda: gen_qbf(QbfFormula("aea", ((1, 2), (-1, -2), (3, -3)))), 100_000),
    "dexp-nonterm": (gen_dexp_nonterm, 500),
    "sets-nonterm": (gen_sets_nonterm, 500),
    # the sentinels at the benchmark's cap, where most discovered matches
    # are still pending when the chase stops
    "dexp-nonterm cap 2000": (gen_dexp_nonterm, 2000),
    "sets-nonterm cap 2000": (gen_sets_nonterm, 2000),
}
PINNED_TRACES = {
    ("dexp(2)", Deterministic()): ("5d2b2b95bd572a13ee944e9ca5d6b5605b4a2b44d4a621bf75f133d3305e8067", 77, 95),
    ("dexp(2)", Seeded(1)): ("56815559c10b120ba4c1b892c4ad5cfdcdd81aa3d0270bd9d7d484f648619d97", 77, 95),
    ("dexp(2)", Seeded(7)): ("6213b08a31a707ff0cba497a2fc8415575d23f3c91f44ced48033dd992f42de7", 77, 95),
    ("counter(2)", Deterministic()): ("7f41e88d312f6866f423dece7f77167031d976618dfb118f53c467dd15b243c0", 87, 107),
    ("counter(2)", Seeded(1)): ("3242d7f69002eece660854153a9f41397f6f1e2f79d6ef886a89dcc8a191914e", 87, 107),
    ("counter(2)", Seeded(7)): ("ba3764a56068726ec054462b436f5c30dd186009662bf7add77c6dde34a25d1b", 87, 107),
    ("sets(4)", Deterministic()): ("825d7d2ef386f95626195c3588e6ab49640d8bf6ef0d91154918d0e70caf571d", 196, 329),
    ("sets(4)", Seeded(1)): ("1d585d307dd6af492c5c7d8e9bfa669d29dc823704b84198a0aaaeae128842de", 196, 329),
    ("sets(4)", Seeded(7)): ("63257c27699a7578f0539b36ba29151b5bc6e4c3a64bb31342b4c5e51f2a03f4", 196, 329),
    ("qbf aea", Deterministic()): ("465f81995ce6d12ddddd9bd30d44804ebebe22bdfeadc7847e287655ade80d2e", 109, 153),
    ("qbf aea", Seeded(1)): ("4f8b175a7b4da2bab70f38198a8f56ffdf80609098f31d149ffcb7ab3072b8cd", 109, 153),
    ("qbf aea", Seeded(7)): ("3f9beb63b0bc9ebe15120d2968925c1eaf72a44c152272a513be0432cd506b7f", 109, 153),
    ("dexp-nonterm", Deterministic()): ("ba14a8bce99bb1777f8d8c7a494e05a8aa21b990f74cf4d7075165450b0c3cc2", 500, 618),
    ("dexp-nonterm", Seeded(1)): ("def0f8a7ab9e18c7f8d262297cd298eeac08713ef718db78c4ee2bf8d964418c", 500, 700),
    ("dexp-nonterm", Seeded(7)): ("06801202d819d17b372fa3d4962e19d08579019be7884eac6e37d259dd044b4e", 500, 698),
    ("sets-nonterm", Deterministic()): ("87bd7a27fe913b1d7d0d91c3b0de0636c246643b479a9bb2d6ffe3d859965356", 500, 582),
    ("sets-nonterm", Seeded(1)): ("1dd0834a161ae2ca5873a4703ed831b9c8f048a2bb3bedcd5cc0fa88080cb56a", 500, 556),
    ("sets-nonterm", Seeded(7)): ("2a136c6443079a5abaa70f58afe9e83de7a413a6528190fad2204843005255f9", 500, 556),
    ("dexp-nonterm cap 2000", Deterministic()): ("84173b34b7f5126faf8f0240820eebe0ddb13954a801dc176b8c5619082f57ae", 2000, 2482),
    ("dexp-nonterm cap 2000", Seeded(7)): ("9f1fda1e7e445e8a9f4ac85a276c3a428353c3196266763036b4752cd3b69ae2", 2000, 2867),
    ("sets-nonterm cap 2000", Deterministic()): ("48b745be02bf1ae02c6c4cc3cc4c7a66441df253a49014ddab3781f4baafdb31", 2000, 2256),
    ("sets-nonterm cap 2000", Seeded(7)): ("de843c18ba63dc8e131980591717b69bb1253d6b2dca8d7299ef2742d0bf8e32", 2000, 2134),
}


@pytest.mark.parametrize("name, strategy", list(PINNED_TRACES),
                         ids=[f"{n}-{s}" for n, s in PINNED_TRACES])
def test_trace_identity(name, strategy):
    generate, cap = TRACE_INSTANCES[name]
    inst = generate()
    result = chase(inst.program, inst.database, strategy, max_steps=cap)
    trace = result.trace
    digest = hashlib.sha256("\n".join(trace.lines()).encode()).hexdigest()
    assert (digest, result.steps, len(result.interpretation)) == PINNED_TRACES[name, strategy]
    assert result.terminated == (cap == 100_000)
    if result.terminated:
        validate_trace(inst.program, trace)
        for step in trace.steps:
            for atom in step.added:
                assert trace.producer_of(atom) == step.index
        assert all(trace.producer_of(atom) is None for atom in inst.database)


# (instance, strategy) -> sha256 of ``json.dumps(trace.to_dict())``: the
# dumped dicts keep the key order of each step's match and extension, which
# the sorted match of a trace line hides.  The growth families at the
# benchmark's sizes pin the body-only values of every Datalog step, which a
# join that skips repeated bindings must keep
DICT_INSTANCES = {
    "dexp(2)": lambda: gen_dexp(2, True),
    "sets(3)": lambda: gen_sets(3),
    "qbf aeaea": lambda: gen_qbf(QbfFormula("aeaea", tuple((i, -i) for i in range(1, 6)))),
    "dexp(3)": lambda: gen_dexp(3, True),
    "counter(3)": lambda: gen_counter(3),
    "sets(6)": lambda: gen_sets(6),
}
PINNED_DICTS = {
    ("dexp(2)", Deterministic()): "22b117d7814dbbc8474d7e9d410beb714a4d011d929378711d1493c232d5f2c9",
    ("dexp(2)", Seeded(7)): "b0f9769ab45255c6786f3b6c70c6957b7d094f14641d375a3ea8118c1cd52918",
    ("sets(3)", Deterministic()): "3114f2e0b876ff053e467313e08cb8fdbf33344b0f276765b2bba297f7ac2131",
    ("sets(3)", Seeded(7)): "365eef89719e1970251d7fc9f3f789006ab7730dd4b57b6dccb8484ecfcf724a",
    ("qbf aeaea", Deterministic()): "e966e88589cd6288248c0f9c05291977f7e9b0cb55fde65dc6e9fb0c3dc610a4",
    ("qbf aeaea", Seeded(7)): "005fed33f1f3bbb9af861d4679aa1ff6d9f6139ed7380823fb9712dfb910e793",
    ("dexp(3)", Deterministic()): "257d66f25de04917b35e0e7ab9a5d775a849600d2851d56c8e268ce48d72eac6",
    ("dexp(3)", Seeded(5)): "2fec0f20c92dee2439e865d848fc49bf5bbfd8c4a34a95cd1f70d87930cf17c7",
    ("counter(3)", Deterministic()): "c5d89aff042d1e4972c2f5c893490031950e9805879927dedcb6f257f9735117",
    ("counter(3)", Seeded(5)): "c03152f54b331fc6e0d3f768df6d518d06b37e431ac423693762eee02d3a498f",
    ("sets(6)", Deterministic()): "9fd012058669127a8efe7344b1bc89cd462b197aec810a0d65ea2462c9e98af1",
    ("sets(6)", Seeded(5)): "2b08f040e7c996a14a43955bf7c2a588e2654baf46e49dad52f4d3202bc6e747",
}


@pytest.mark.parametrize("name, strategy", list(PINNED_DICTS),
                         ids=[f"{n}-{s}" for n, s in PINNED_DICTS])
def test_trace_dict_pinned(name, strategy):
    inst = DICT_INSTANCES[name]()
    result = chase(inst.program, inst.database, strategy)
    assert result.terminated
    digest = hashlib.sha256(json.dumps(result.trace.to_dict()).encode()).hexdigest()
    assert digest == PINNED_DICTS[name, strategy]


def test_capped_chase_holds_what_it_pops():
    # the pairing rule of dexp-nonterm finds about n^2/16 matches by step n
    # and pops a few of them; a capped chase must not keep the rest alive
    inst = gen_dexp_nonterm()
    tracemalloc.start()
    try:
        result = chase(inst.program, inst.database, Deterministic(), max_steps=4000)
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert result.steps == 4000
    assert peak <= 1.5 * retained, f"peak {peak} bytes, retained {retained} bytes"



def test_steps_are_compact():
    # a step keeps its match as the popped slot tuple, in a slotted object,
    # and shares new_facts as added when every head atom was new
    inst = gen_sets(5)
    tracemalloc.start()
    try:
        result = chase(inst.program, inst.database, Deterministic())
        retained, _peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    steps = result.trace.steps
    assert result.terminated and len(steps) == 1305
    assert not any(hasattr(s, "__dict__") for s in steps)
    assert all(s.added is s.new_facts for s in steps if len(s.added) == len(s.new_facts))
    # the whole result, interpretation and plans included: about 790 bytes
    # a step on CPython 3.11, against about 1,270 with two dicts a step
    assert retained / len(steps) < 950, f"{retained / len(steps):.0f} bytes a step"


def test_negative_max_steps_is_an_error():
    inst = gen_dexp(1, True)
    with pytest.raises(ValueError, match="max_steps"):
        chase(inst.program, inst.database, max_steps=-1)
    result = chase(inst.program, inst.database, max_steps=0)
    assert (result.steps, result.terminated) == (0, False)


def test_package_chase_is_the_module_and_still_runs_the_chase():
    import chasekit
    import chasekit.chase as module
    from chasekit import chase as imported

    assert chasekit.chase is module is imported
    assert chasekit.chase.Seeded is Seeded and chasekit.chase.ChaseResult is ChaseResult
    inst = gen_dexp(1, True)
    expected = chase(inst.program, inst.database).trace.lines()
    assert imported(inst.program, inst.database).trace.lines() == expected
    assert chasekit.chase(inst.program, inst.database, max_steps=5000).trace.lines() == expected


def test_readme_lists_the_public_names_by_module():
    """The README's list under "Library" is ``chasekit.__all__``, each name
    once, under the module that defines it."""
    import chasekit

    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    library = readme.split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    bullets = re.findall(r"^- `(\w+)`:(.*(?:\n  .*)*)", library, re.M)
    listed = [(module, name) for module, names in bullets
              for name in re.findall(r"`(\w+)`", names)]
    assert sorted(name for _, name in listed) == sorted(chasekit.__all__)
    assert len({name for _, name in listed}) == len(listed)
    for module, name in listed:
        obj = vars(importlib.import_module(f"chasekit.{module}"))[name]
        # Term, a typing alias, names no defining module of its own
        assert obj.__module__ in (f"chasekit.{module}", "typing"), name


def test_no_module_imports_a_name_it_never_reads():
    """Each name that a module of ``src/chasekit`` or ``tests`` imports is
    read somewhere in it, except in ``__init__.py``, whose imports are
    re-exports, and inside a ``try:``, where an import probes for a
    module."""
    root = Path(__file__).resolve().parent.parent
    unused = []
    for path in sorted([*root.glob("src/chasekit/*.py"), *root.glob("tests/*.py")]):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        probes = {id(node) for t in ast.walk(tree) if isinstance(t, ast.Try)
                  for stmt in t.body for node in ast.walk(stmt)}
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if (not isinstance(node, (ast.Import, ast.ImportFrom)) or id(node) in probes
                    or getattr(node, "module", None) == "__future__"):
                continue
            for alias in node.names:
                name = (alias.asname or alias.name).split(".")[0]
                if name not in read:
                    unused.append(f"{path.relative_to(root)}:{node.lineno} {name}")
    assert unused == []


# -- each rule's plans are compiled once, on the rule --------------------------

def test_a_second_chase_of_a_program_compiles_nothing(plan_compiles):
    inst = gen_sets(3)
    first = chase(inst.program, inst.database, Seeded(7))
    assert plan_compiles
    plan_compiles.clear()
    again = chase(inst.program, inst.database, Seeded(7))
    assert again.trace.lines() == first.trace.lines()
    assert plan_compiles == []


def test_the_chase_runs_the_datalog_plans_that_saturate_runs(monkeypatch):
    inst = gen_sets(3)
    program = inst.program
    indexed = {start for pred in program.signature
               for start, *_rest in program.datalog_index.by_body_pred[pred]}
    ran: list = []
    original = Plan.entry

    def recording(plan):
        ran.append(plan)
        return original(plan)

    monkeypatch.setattr(Plan, "entry", recording)
    chase(program, inst.database)
    datalog_runs = {plan.start for plan in ran if plan.seed is not None
                    and program.rule_of_var[plan.variables[0]].is_datalog}
    assert datalog_runs and datalog_runs <= indexed


# -- a Datalog queue takes each frontier once ----------------------------------

class _Counting(deque):
    """A queue that counts its pops."""

    pops = 0

    def popleft(self):
        _Counting.pops += 1
        return deque.popleft(self)


# (instance, strategy) -> Datalog candidates popped.  Queueing every match
# that the seeded plans yield, the deterministic chases popped 111,779,
# 111,822, 47,952 and 35,416
DATALOG_POPS = {
    ("dexp(3)", Deterministic()): 2337,
    ("dexp(3)", Seeded(7)): 2337,
    ("counter(3)", Deterministic()): 2380,
    ("counter(3)", Seeded(7)): 2380,
    ("sets(6)", Deterministic()): 9786,
    ("sets(6)", Seeded(7)): 9786,
    ("sets-nonterm cap 2000", Deterministic()): 5058,
    ("sets-nonterm cap 2000", Seeded(7)): 5001,
}
_POP_INSTANCES = {
    "dexp(3)": (lambda: gen_dexp(3, True), 100_000),
    "counter(3)": (lambda: gen_counter(3), 100_000),
    "sets(6)": (lambda: gen_sets(6), 100_000),
    "sets-nonterm cap 2000": (gen_sets_nonterm, 2000),
}


@pytest.mark.parametrize("name, strategy", list(DATALOG_POPS),
                         ids=[f"{n}-{s}" for n, s in DATALOG_POPS])
def test_datalog_queues_pop_each_frontier_once(monkeypatch, name, strategy):
    original = chase_module._RuleQueue.__init__

    def counting(queue, rule):
        original(queue, rule)
        if rule.is_datalog:
            queue.items = _Counting()

    monkeypatch.setattr(chase_module._RuleQueue, "__init__", counting)
    monkeypatch.setattr(_Counting, "pops", 0)
    generate, cap = _POP_INSTANCES[name]
    inst = generate()
    result = chase(inst.program, inst.database, strategy, max_steps=cap)
    assert result.terminated == (cap == 100_000)
    assert _Counting.pops == DATALOG_POPS[name, strategy]


class _EveryMatchEngine(chase_module._Engine):
    """The chase engine with Datalog queues that take every match: a
    Datalog rule's seeded plans are compiled without ``keep``, so no scan
    collapses, and no queue keeps the frontiers it has taken."""

    def __init__(self, program, database, strategy, max_steps):
        super().__init__(program, database, strategy, max_steps)
        queue_of = {q.rule.rule_id: q for q in self.datalog + self.existential}
        self.body_index = {}
        for rule in program.rules:
            plans = (seeded_plans(rule.body, rule.body_plan.variables) if rule.is_datalog
                     else rule.seeded_plans)
            self.index_seeded(queue_of[rule.rule_id], plans, None)
        for q in self.datalog:
            q.items.clear()
            q.rule.body_plan.run(self.interp, (), q.items.append)


def _assert_same_chase(program, database, strategy, cap):
    got = chase(program, database, strategy, cap)
    expected = _EveryMatchEngine(program, database, strategy, cap).run()
    assert got.terminated == expected.terminated
    assert got.trace.to_dict() == expected.trace.to_dict()
    assert list(got.interpretation) == list(expected.interpretation)


@pytest.mark.parametrize("name, strategy", list(PINNED_TRACES),
                         ids=[f"{n}-{s}" for n, s in PINNED_TRACES])
def test_the_chase_equals_the_chase_that_queues_every_match(name, strategy):
    generate, cap = TRACE_INSTANCES[name]
    inst = generate()
    _assert_same_chase(inst.program, inst.database, strategy, cap)


_STRATEGIES = st.sampled_from([Deterministic(), Seeded(1), Seeded(7)])


@settings(max_examples=40, deadline=None)
@given(_layered_program(), _STRATEGIES)
def test_the_chase_equals_the_chase_that_queues_every_match_on_layered_programs(
        case, strategy):
    rules_text, facts_text = case
    program = parse_program(rules_text)
    _assert_same_chase(program, parse_facts(facts_text, program.signature), strategy, 5_000)


@settings(max_examples=60, deadline=None)
@given(_dead_slot_case(), _STRATEGIES, st.sampled_from(["", "p(X,Y) -> q(Y,V) .",
                                                         "q0(X,Y), r(Y,Z) -> p(Z,V), r(V,X) ."]),
       st.sampled_from([3, 20, 5_000]))
def test_the_chase_equals_the_chase_that_queues_every_match_on_dead_slot_programs(
        case, strategy, existential, cap):
    # Datalog rules whose bodies repeat frontiers, with an existential rule
    # that makes Datalog and existential steps alternate, capped or not
    rules, facts = case
    program = parse_program("\n".join(str(r) for r in rules) + "\n" + existential)
    database = parse_facts(facts.to_text(), program.signature)
    _assert_same_chase(program, database, strategy, cap)


# -- the two guards that moved out of the plans' runs ------------------------------

def _assert_ground(result):
    """The chase inserts what it derives without the ground test."""
    assert all(atom.is_ground() for atom in result.interpretation)


@pytest.mark.parametrize("name", list(TRACE_INSTANCES))
@pytest.mark.parametrize("strategy", [Deterministic(), Seeded(7)], ids=str)
def test_every_fact_of_a_chase_is_ground(name, strategy):
    generate, cap = TRACE_INSTANCES[name]
    inst = generate()
    _assert_ground(chase(inst.program, inst.database, strategy, max_steps=cap))


@settings(max_examples=40, deadline=None)
@given(_layered_program(), _STRATEGIES)
def test_every_fact_of_a_chase_is_ground_on_layered_programs(case, strategy):
    rules_text, facts_text = case
    program = parse_program(rules_text)
    _assert_ground(chase(program, parse_facts(facts_text, program.signature), strategy))


def test_a_fact_of_another_arity_than_the_body_atom_is_skipped_not_read():
    # the parsers keep one arity per predicate, a hand-built database need
    # not: a seeded run must skip a fact of another arity than its seed, not
    # read past its arguments; the chase's body plans read the first
    # positions of a longer database fact, and its head check does too
    a, b, c, d = (Constant(x) for x in "abcd")
    program = parse_program("p(X, Y) -> q(Y) .\nq(X) -> s(X, V) .\n")
    database = Database([Atom("p", (a, b, c)), Atom("s", (b, c, d))])
    for strategy in (Deterministic(), Seeded(7)):
        result = chase(program, database, strategy)
        assert result.terminated and result.steps == 1
        assert list(result.interpretation) == [*database, Atom("q", (b,))]
    facts = [Atom("p", (a,)), Atom("p", (a, b, c))]
    assert list(saturate(program.datalog_rules(), facts)) == facts
    assert list(saturate(program.datalog_index, facts)) == facts


# -- a Datalog seed memo skips only runs that would push nothing ----------------

class _MemoCountingEngine(chase_module._Engine):
    """The chase engine, counting the seeded runs that have a seed memo:
    ``eligible`` facts came to such a seed, and ``made`` runs were made."""

    def __init__(self, program, database, strategy, max_steps):
        super().__init__(program, database, strategy, max_steps)
        self.eligible = self.made = 0
        for entries in self.body_index.values():
            for k, (start, *rest, memo) in enumerate(entries):
                if memo is not None:
                    entries[k] = (self._count_runs(start), *rest,
                                  (self._count_keys(memo[0]), *memo[1:]))

    def _count_runs(self, start):
        def run(*args):
            self.made += 1
            return start(*args)
        return run

    def _count_keys(self, key):
        def read(args):
            self.eligible += 1
            return key(args)
        return read


def _runs(program, database, strategy=Deterministic(), cap=100_000) -> tuple:
    """``(made, skipped)``: the runs of memo seeds that a chase made and skipped."""
    engine = _MemoCountingEngine(program, database, strategy, cap)
    engine.run()
    return engine.made, engine.eligible - engine.made


# (instance, strategy) -> (runs made, runs skipped) of the seeds with a memo;
# the pops of DATALOG_POPS do not move, since a skipped run pushes nothing
MEMO_RUNS = {
    ("dexp(3)", Deterministic()): (856, 1500),
    ("dexp(3)", Seeded(7)): (856, 1500),
    ("counter(3)", Deterministic()): (856, 1500),
    ("counter(3)", Seeded(7)): (856, 1500),
    ("sets(6)", Deterministic()): (3912, 7830),
    ("sets(6)", Seeded(7)): (3912, 7830),
    ("sets-nonterm cap 2000", Deterministic()): (4598, 3402),
    ("sets-nonterm cap 2000", Seeded(7)): (4415, 3581),
}


@pytest.mark.parametrize("name, strategy", list(MEMO_RUNS),
                         ids=[f"{n}-{s}" for n, s in MEMO_RUNS])
def test_seed_memos_skip_the_pinned_runs(name, strategy):
    generate, cap = _POP_INSTANCES[name]
    inst = generate()
    assert _runs(inst.program, inst.database, strategy, cap) == MEMO_RUNS[name, strategy]


# hand-built programs: copy rules bring the facts of ``p0`` and ``s0`` to the
# seeds one by one, in database order, and in each program a fact that fails
# the seed, or joins nothing, comes before a fact with which it would share a
# key if the key dropped a position it must keep
_COPY = "p0(X, Y, Z) -> p(X, Y, Z) .\ns0(X, Y) -> s(X, Y) .\n"
KEY_RULE_CASES = {
    # a constant: p(a, d, s) fails the seed, p(b, c, s) passes it
    "constant": ("p(X, c, S), s(S, W) -> h(S, W) .",
                 "p0(a, d, s) . p0(b, c, s) . p0(e, c, s) . s(s, w) ."),
    # a repeated variable: p(a, s, t) fails the seed, p(b, s, s) passes it
    "repeated": ("p(X, S, S), s(S, W) -> h(S, W) .",
                 "p0(a, s, t) . p0(b, s, s) . p0(e, s, s) . s(s, w) ."),
    # a variable twice, and no other atom reads it: still not dead
    "dead variable twice": ("p(X, X, S), s(S, Y), s(Y, W) -> h(S, W) .",
                            "p0(a, b, s) . p0(c, c, s) . p0(e, e, s) . s(s, t) . s(t, w) ."),
    # a variable that another atom reads: p(a, e, s) joins no s(a, _)
    "read elsewhere": ("p(X, Y, S), s(X, W) -> h(S, W) .",
                       "p0(a, e, s) . p0(b, e, s) . p0(b, f, s) . s(b, w) ."),
}


@pytest.mark.parametrize("name", list(KEY_RULE_CASES))
@pytest.mark.parametrize("strategy", [Deterministic(), Seeded(7)], ids=str)
def test_a_seed_key_keeps_what_tells_facts_apart(name, strategy):
    rule, facts = KEY_RULE_CASES[name]
    program = parse_program(_COPY + rule)
    database = parse_facts(facts, program.signature)
    _assert_same_chase(program, database, strategy, 100_000)
    result = chase(program, database, strategy)
    assert any(atom.pred == "h" for atom in result.interpretation)
    made, skipped = _runs(program, database, strategy)
    assert skipped == (1 if name != "dead variable twice" else 0)


# a skipped run whose twin needs a run that has not come yet: without the
# guards, the twin's frontier comes later than the run would have pushed it
GUARD_CASES = {
    # su(b, t, t) could also match the later atom su(Y, S, S)
    "later atom": ("mk(Y, T) -> su(Y, T, T) .\nsu(X, S, T), su(Y, S, S) -> h(Y, T) .",
                   "su(x, t, u) . mk(a, t) . mk(b, t) ."),
    # p(b, s) is discovered before q(s, w) and q(s2, w2) of the same step
    "same step": ("start(S) -> p(a, S) .\ngo(S, T) -> p(b, S), q(T, w2), q(S, w) .\n"
                  "p(X, S), q(S, W) -> h(S, W) .",
                  "start(s) . go(s, s2) . p(c, s2) ."),
}


@pytest.mark.parametrize("name", list(GUARD_CASES))
@pytest.mark.parametrize("strategy", [Deterministic(), Seeded(7)], ids=str)
def test_a_seed_memo_runs_a_repeat_whose_twin_is_not_found_yet(name, strategy):
    rules, facts = GUARD_CASES[name]
    program = parse_program(rules)
    database = parse_facts(facts, program.signature)
    _assert_same_chase(program, database, strategy, 100_000)
    assert _runs(program, database, strategy) == (2, 0)


def test_each_chase_has_its_own_seed_memos():
    # a second chase of the same rules, and so of the same plans, meets the
    # same facts, nulls included, and must run what the first one ran
    inst = gen_dexp(2, True)
    first = _runs(inst.program, inst.database)
    assert first[1] > 0
    assert _runs(inst.program, inst.database) == first
    lines = chase(inst.program, inst.database).trace.lines()
    assert chase(inst.program, inst.database).trace.lines() == lines


@st.composite
def _seed_key_case(draw):
    """Datalog rules over ``p`` (arity 3) and ``s`` (arity 2) whose body
    atoms draw their terms from shared variables, two of their own and the
    constants ``a`` and ``b``, with heads of one or two atoms, some of them
    back into ``p`` and ``s``; facts come through the copy rules."""
    rules = [_COPY]
    arity = {"p": 3, "s": 2}
    for r in range(draw(st.integers(1, 3))):
        body = []
        for k in range(draw(st.integers(1, 3))):
            pred = draw(st.sampled_from("ps"))
            terms = st.sampled_from(["J0", "J1", f"D{k}", f"E{k}", "a", "b"])
            body.append((pred, [draw(terms) for _ in range(arity[pred])]))
        variables = sorted({t for _, args in body for t in args if t[0].isupper()})
        terms = st.sampled_from(variables + ["a"])
        head = []
        for _ in range(draw(st.integers(1, 2))):
            pred = draw(st.sampled_from(["p", "s", f"h{r}"]))
            head.append((pred, [draw(terms) for _ in range(arity.get(pred, 2))]))
        rules.append(", ".join(f"{p}({', '.join(a)})" for p, a in body) + " -> "
                     + ", ".join(f"{p}({', '.join(a)})" for p, a in head) + " .")
    facts = [draw(st.sampled_from([
        f"p0({draw(st.sampled_from('abc'))}, {draw(st.sampled_from('abc'))}, "
        f"{draw(st.sampled_from('abc'))}) .",
        f"s0({draw(st.sampled_from('abc'))}, {draw(st.sampled_from('abc'))}) ."]))
        for _ in range(draw(st.integers(1, 10)))]
    return "\n".join(rules), " ".join(facts)


@settings(max_examples=150, deadline=None)
@given(_seed_key_case(), _STRATEGIES,
       st.sampled_from(["", "p(X, Y, Z) -> s(Z, V), s(V, X) ."]))
def test_the_chase_equals_the_chase_that_queues_every_match_on_seeds_with_constants(
        case, strategy, existential):
    rules, facts = case
    program = parse_program(rules + "\n" + existential)
    _assert_same_chase(program, parse_facts(facts, program.signature), strategy, 40)
