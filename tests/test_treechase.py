import gc
import hashlib
import random
import sys
import tracemalloc
import types

import pytest

from chasekit import treechase
from chasekit.arboreal import InvariantViolation, build_term_tree, check_arboreous
from chasekit.chase import ChaseResult, ChaseStep, ChaseTrace, Deterministic, chase
from chasekit.corpus import QbfFormula, gen_qbf, gen_sets, qbf_truth
from chasekit.depgraph import build_ledgraph, compute_rank, scc_analysis
from chasekit.matching import evaluate_bcq, head_satisfied, unsatisfied_matches
from chasekit.model import (Atom, Interpretation, Null, parse_facts, parse_program,
                            parse_query, substitute)
from chasekit.saturation import find_saturating_certificate
from chasekit.treechase import (TaskTreeBuilder, TreeChaseRun, _GuidedReplayer,
                                tree_chase_guided, tree_chase_search)
from test_acceptance import QBF_SUITE


def arboreous_info(program):
    graph = build_ledgraph(program)
    scc = scc_analysis(graph)
    sat = find_saturating_certificate(program, scc)
    ranks = compute_rank(scc, sat.certificates)
    info = check_arboreous(program, scc, ranks, sat.certificates)
    assert info.arboreous
    return info


@pytest.fixture(scope="module")
def sets1():
    inst = gen_sets(1)
    return inst, arboreous_info(inst.program)


def test_query_satisfied_by_database_needs_no_steps(sets1):
    inst, info = sets1
    q = parse_query("?- elem(a1) .", inst.program.signature)
    # the search accepts at its root, before its first move
    assert tree_chase_search(inst.program, inst.database, q, info.v_ehat, 4,
                             node_budget=1) == "true"


def test_guided_sets_query_true(sets1):
    inst, info = sets1
    q = parse_query("?- su(a1,S,S) .", inst.program.signature)
    result = tree_chase_guided(inst.program, inst.database, q, info)
    assert result.entailed is True
    full = chase(inst.program, inst.database, max_steps=4000)
    assert evaluate_bcq(full.interpretation, q) is True


def test_guided_false_without_replay(sets1):
    inst, info = sets1
    q = parse_query("?- su(e0,S,S) .", inst.program.signature)
    result = tree_chase_guided(inst.program, inst.database, q, info)
    assert result.entailed is False
    assert result.replayed_steps == 0
    assert result.profile.max_atoms == len(inst.database)


def test_guided_absent_constant_false(sets1):
    inst, info = sets1
    q = parse_query("?- su(zz,S,S) .", inst.program.signature)
    result = tree_chase_guided(inst.program, inst.database, q, info)
    assert result.entailed is False


def test_task_tree_single_node_for_root_only_body():
    program = parse_program(
        "elem(X), set(S) -> set(V), su(X,S,V), su(X,V,V) .\n"
        "su(X,S,T), su(Y,S,S) -> su(Y,T,T) .\n"
        "elem(X), elem(Y) -> pair(X,Y) .\n")
    db = parse_facts("elem(a1) . elem(a2) . set(e0) .", program.signature)
    info = arboreous_info(program)
    result = chase(program, db, max_steps=4000)
    tree = build_term_tree(result.trace, info)
    pair_step = next(s for s in result.trace.steps
                     if program.rule(s.rule_id).head[0].pred == "pair")
    sub_steps = TaskTreeBuilder(result.trace, tree).schedule(1, pair_step.index)
    assert sub_steps[-1] == pair_step.index
    assert all(a < b for a, b in zip(sub_steps, sub_steps[1:])) or len(sub_steps) == 1


def _naive_schedule(builder, depth, step):
    """The schedule of the task (depth, step), by recursion as the
    ``TaskTreeBuilder`` docstring reads: per depth from ``depth`` to the
    length of the step's body path, the latest earlier step that produced
    an atom on the path cut to that depth is a subtask, scheduled before
    the task, shallower subtasks first."""
    path = builder.body_path[step]
    out = []
    for e in range(depth, len(path) + 1):
        sub = max((j for j in builder.atom_steps.get(path[:e], ()) if j < step),
                  default=None)
        if sub is not None:
            assert sub < step
            out += _naive_schedule(builder, e, sub)
    return out + [step]


def test_task_tree_descendants_strictly_earlier():
    for inst in (gen_sets(1), gen_sets(2), gen_qbf(_alternating(3))):
        info = arboreous_info(inst.program)
        result = chase(inst.program, inst.database, max_steps=4000)
        builder = TaskTreeBuilder(result.trace, build_term_tree(result.trace, info))
        for step in result.trace.steps:
            for depth in range(1, len(builder.body_path[step.index]) + 1):
                assert builder.schedule(depth, step.index) == \
                    _naive_schedule(builder, depth, step.index)


def test_schedule_replays_in_runner(sets1):
    inst, info = sets1
    q = parse_query("?- su(a1,S,S) .", inst.program.signature)
    result = tree_chase_guided(inst.program, inst.database, q, info)
    assert result.entailed and result.m_bound >= 1


@pytest.mark.parametrize("quantifiers,clauses", [
    ("e", ((1,),)),
    ("a", ((1,),)),
    ("ea", ((1, 2), (1, -2))),
    ("ae", ((1, 2), (-1, -2))),
])
def test_guided_qbf_matches_brute_force(quantifiers, clauses):
    formula = QbfFormula(quantifiers, clauses)
    inst = gen_qbf(formula)
    info = arboreous_info(inst.program)
    (q,) = inst.queries
    result = tree_chase_guided(inst.program, inst.database, q, info)
    assert result.entailed == qbf_truth(formula)
    full = chase(inst.program, inst.database, max_steps=20_000)
    assert result.entailed == evaluate_bcq(full.interpretation, q)


def test_guided_stack_stays_path_shaped():
    formula = QbfFormula("aa", ((1, -1), (2, -2)))
    inst = gen_qbf(formula)
    info = arboreous_info(inst.program)
    (q,) = inst.queries
    result = tree_chase_guided(inst.program, inst.database, q, info)
    assert result.entailed is True
    assert result.profile.max_stack <= len(formula.quantifiers) + 2


def test_search_tiny_sets_true(sets1):
    inst, info = sets1
    q = parse_query("?- su(a1,S,S) .", inst.program.signature)
    assert tree_chase_search(inst.program, inst.database, q,
                             info.v_ehat, 4, node_budget=20_000) == "true"


def test_search_unsatisfiable_ground_false(sets1):
    inst, info = sets1
    q = parse_query("?- su(e0,e0,e0) .", inst.program.signature)
    assert tree_chase_search(inst.program, inst.database, q,
                             info.v_ehat, 2, node_budget=50_000) == "false"


def test_search_budget_yields_inconclusive(sets1):
    inst, info = sets1
    q = parse_query("?- su(e0,e0,e0) .", inst.program.signature)
    assert tree_chase_search(inst.program, inst.database, q,
                             info.v_ehat, 3, node_budget=2) == "inconclusive"


def test_search_agrees_with_guided_on_tiny_qbf():
    formula = QbfFormula("e", ((1,),))
    inst = gen_qbf(formula)
    info = arboreous_info(inst.program)
    (q,) = inst.queries
    guided = tree_chase_guided(inst.program, inst.database, q, info)
    search = tree_chase_search(inst.program, inst.database, q,
                               info.v_ehat, 32, node_budget=60_000)
    assert search == ("true" if guided.entailed else "false")


def test_run_log_records_prunes_and_pushes(sets1):
    inst, info = sets1
    q = parse_query("?- su(a1,S,S) .", inst.program.signature)
    result = tree_chase_guided(inst.program, inst.database, q, info)
    assert result.entailed
    # the guided replay goes through one runner whose log mirrors each step
    assert result.profile.to_dict()["maxStack"] == 2
    run = TreeChaseRun(inst.program, inst.database, info.v_ehat)
    rule = inst.program.rule(1)
    by_name = {v.name: v for v in rule.variables()}
    elem_a, set_e0 = inst.database.by_pred("elem")[0], inst.database.by_pred("set")[0]
    match = {by_name["X"]: elem_a.args[0], by_name["S"]: set_e0.args[0]}
    run.apply(rule, tuple(match[v] for v in rule.body_plan.variables))
    # nothing pruned, one pushed bag holding the fresh null, three new facts
    assert len(run.stack) == 2 and len(run.stack[-1]) == 1
    assert run.popped == []
    assert len(run.interp) == len(inst.database) + 3


def test_guided_and_search_apply_without_the_outside_check():
    """Guided replay and the search check their own steps, so both give
    their results with nothing checking a step from outside."""
    for qs, cl in QBF_SUITE:
        formula = QbfFormula(qs, cl)
        assert _qbf_guided(formula).entailed == qbf_truth(formula)
    inst = gen_qbf(QbfFormula("e", ((1,),)))
    info = arboreous_info(inst.program)
    assert tree_chase_search(inst.program, inst.database, inst.queries[0],
                             info.v_ehat, 6, node_budget=1000) == "true"


def test_search_false_only_where_no_node_was_cut(sets1):
    """With no inner step, the one node has a match left: the bound cut it,
    so exhausting the runs is no verdict; from one step on, nothing is cut
    and the exhaustion is a sound 'false'."""
    inst, info = sets1
    q = parse_query("?- su(e0,e0,e0) .", inst.program.signature)
    for m_bound in range(9):
        counts = {}
        verdict = tree_chase_search(inst.program, inst.database, q, info.v_ehat,
                                    m_bound, node_budget=1000, counts=counts)
        assert (verdict, counts["cut"] > 0, counts["exhausted"]) == \
            (("inconclusive", True, True) if m_bound == 0 else ("false", False, True))


@pytest.mark.parametrize("quantifiers,clauses", [
    ("ae", ((1, 2), (-1, -2))),
    ("ee", ((1, -2), (-1, 2))),
])
def test_search_cut_by_the_bound_is_not_false(quantifiers, clauses):
    """Both formulas are true, yet no run of at most 6 steps a round
    reaches the query; the runs were all explored, but 1688 nodes were cut
    at the bound, so the search has no verdict."""
    formula = QbfFormula(quantifiers, clauses)
    assert qbf_truth(formula)
    inst = gen_qbf(formula)
    info = arboreous_info(inst.program)
    counts = {}
    assert tree_chase_search(inst.program, inst.database, inst.queries[0], info.v_ehat,
                             6, node_budget=100_000, counts=counts) == "inconclusive"
    assert counts == {"nodes": 7425, "cut": 1688, "exhausted": True}


def _search_agrees_with_truth(formula, budget):
    """At every inner bound from 0 to 8: 'true' only on a true formula,
    'false' only on a false one; returns the verdicts."""
    inst = gen_qbf(formula)
    info = arboreous_info(inst.program)
    truth = qbf_truth(formula)
    verdicts = []
    for m_bound in range(9):
        verdict = tree_chase_search(inst.program, inst.database, inst.queries[0],
                                    info.v_ehat, m_bound, node_budget=budget)
        assert verdict != ("false" if truth else "true"), (formula, m_bound, verdict)
        verdicts.append(verdict)
    return verdicts


def test_search_never_contradicts_brute_force_on_the_suite():
    verdicts = [v for qs, cl in QBF_SUITE
                for v in _search_agrees_with_truth(QbfFormula(qs, cl), 300)]
    assert "true" in verdicts


def test_search_never_contradicts_brute_force_on_random_formulas():
    rnd = random.Random(2601)
    verdicts = []
    for _ in range(10):
        n = rnd.randint(1, 3)
        clauses = tuple(tuple(rnd.choice((1, -1)) * rnd.randint(1, n)
                              for _ in range(rnd.randint(1, 3)))
                        for _ in range(rnd.randint(1, 3)))
        formula = QbfFormula("".join(rnd.choice("ae") for _ in range(n)), clauses)
        verdicts += _search_agrees_with_truth(formula, 200)
    assert "true" in verdicts


# -- what a guided result keeps ----------------------------------------------------

def _reachable(root):
    """Every object that ``gc.get_referents`` reaches from ``root``, not
    going into classes, modules or functions, from which the whole program
    is reachable."""
    seen = {id(root): root}
    todo = [root]
    while todo:
        for ref in gc.get_referents(todo.pop()):
            if id(ref) not in seen and not isinstance(
                    ref, (type, types.ModuleType, types.FunctionType)):
                seen[id(ref)] = ref
                todo.append(ref)
    return seen.values()


def test_guided_result_keeps_the_reference_size_not_the_reference():
    for qs, cl in QBF_SUITE:
        inst = gen_qbf(QbfFormula(qs, cl))
        info = arboreous_info(inst.program)
        result = tree_chase_guided(inst.program, inst.database, inst.queries[0], info)
        full = chase(inst.program, inst.database)
        assert (result.reference_steps, result.reference_facts) == \
            (full.steps, len(full.interpretation))
        reached = {type(obj) for obj in _reachable(result)}
        assert not reached & {Interpretation, ChaseResult, ChaseTrace, ChaseStep}, (qs, cl)


def _traced_peak(call):
    """The tracemalloc peak of ``call()``, above what was traced before it."""
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        call()
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("n", [6, 7, 8])
def test_guided_traced_peak_is_the_full_chase_peak(n):
    """The guided engine holds the reference only part by part, so its
    peak is that of the reference chase it runs first."""
    inst = gen_qbf(_alternating(n))
    info = arboreous_info(inst.program)
    (q,) = inst.queries
    tree_chase_guided(inst.program, inst.database, q, info)     # compiles the plans
    full = _traced_peak(lambda: chase(inst.program, inst.database, Deterministic(), 100_000))
    guided = _traced_peak(lambda: tree_chase_guided(inst.program, inst.database, q, info))
    assert guided <= 1.05 * full, (guided, full)


# -- pinned guided results -----------------------------------------------------

def _alternating(n):
    """Alternating quantifiers with clauses (i | -i): true for every n."""
    return QbfFormula(("ae" * n)[:n], tuple((i, -i) for i in range(1, n + 1)))


GUIDED_INPUTS = ([(f"qbf {qs} {cl}", QbfFormula(qs, cl)) for qs, cl in QBF_SUITE]
                 + [(f"alternating {n}", _alternating(n)) for n in (5, 6)]
                 + [("sets(2)", None)])


def _guided_with_schedules(monkeypatch, formula):
    """Answer one input with the guided engine; also return the step indices
    it replayed, cut into one schedule per query atom."""
    inst = gen_sets(2) if formula is None else gen_qbf(formula)
    info = arboreous_info(inst.program)
    replayed = []
    original = _GuidedReplayer.replay_step

    def recording(self, step_index):
        replayed.append(step_index)
        return original(self, step_index)

    monkeypatch.setattr(_GuidedReplayer, "replay_step", recording)
    result = tree_chase_guided(inst.program, inst.database, inst.queries[0], info)
    schedules, start = [], 0
    for length in result.schedule_lengths:
        schedules.append(tuple(replayed[start:start + length]))
        start += length
    assert start == len(replayed)
    return result, tuple(schedules)


def _sha(value):
    return hashlib.sha256(repr(value).encode()).hexdigest()


# sha256 of (entailed, profile.to_dict(), m_bound, schedule_lengths,
# replayed_steps, skipped_steps) and of the schedules, frozen from the
# engine that rebuilt the fact set after every step
PINNED_GUIDED = {
    'qbf e ((1,),)': ('d81a30ebdfc182ae486e79d3d680f6c3a070b99692a8f99640f55d6c4e41d504',
         '6c2c29a6aa21d643d319ff7569911df77321eb2ea199b696def1a0770952561a'),
    'qbf a ((1,),)': ('f08a11ea4ed6cf8059783989e20d4a3569d14660a69f31a759113e880b43d210',
         '56546d2909af60407f1b144ea7574bf0cb4c48af72e18baac6c9da2036df2a88'),
    'qbf e ((-1,),)': ('d81a30ebdfc182ae486e79d3d680f6c3a070b99692a8f99640f55d6c4e41d504',
         '169edfdf795933b926b0c4703aedf7bdb5cd302b86f0043a3ea7fc53821d6af9'),
    'qbf ea ((1, 2), (1, -2))': ('d731271637840abc93c9c1f17f1704bc2763bd9e59a9ee222b84fe6e9abc08d5',
         'c851ce38aaadf4a2806da0aecf7b5bb715063b74aff3d8a01b932c4e84ebfe92'),
    'qbf ae ((1, 2), (-1, -2))': ('1b0ba29a136b1826717a03e4e660fedbc72ae742c58c32f70a6a9fef315417a6',
         'af3a5bc2a606c625d1709ed0bb8a9794baaec31142e37c0d70a63b495e180788'),
    'qbf ae ((1, 2), (1, -2))': ('86a06fd89b0f8754fdc47169c7d9ba1e357177b13b09522523a48b27efee9aea',
         '56546d2909af60407f1b144ea7574bf0cb4c48af72e18baac6c9da2036df2a88'),
    'qbf aa ((1, -1), (2, -2))': ('08bbaa0d4fca53153be30eaf8495a5e849da342241f53bf16fae6827df71e2e6',
         '13fc661509f75f2b34206aebdea3462abf2c5e971ffb2e3537b5d413be64da60'),
    'qbf ee ((1, -2), (-1, 2))': ('76e11955b1e0f4092bcd0cfbb8202a352c8108f7437f7762497342f5eb00b830',
         'b36095d94388500730faac662693b7b515b7cedcd1cd7315f24327abca682f93'),
    'qbf eae ((1, 2, 3), (-1, -3), (2, -2))': ('22abaf1c67fa84ad0642dec9e3ed70575d35a1a21bfb98eaa057e75a670c567b',
         '6823201c9b59e88ee3766a696ea717be9a9c18172c0439e24d9200f7dd08f0fd'),
    'qbf aea ((1, 2), (-1, -2), (3, -3))': ('684b0ab4fa1a02e6125b74a606b8eaa8acce76eb710f33c957e0c29d91d71408',
         '285e5bb5c38c673d162d4fab80e11c06cfbb5a80e3586e7db3305c1c6e1aa554'),
    'qbf aaa ((1, 2, 3),)': ('675a5270dd405cb2107f8468be6a84fe2563bea65fd45ba1ed32650d3057b48b',
         '56546d2909af60407f1b144ea7574bf0cb4c48af72e18baac6c9da2036df2a88'),
    'qbf aaa ((1, -1), (2, -2), (3, -3))': ('b953292e588591ba67fd95075df0a5803e0d1cbffc375da5dacd404016616e83',
         '198570f63fe5576e424ccc0e5fe4722996f3be241138ae7422ae03d96af05259'),
    'alternating 5': ('a8d763fffef30354c7eac8475e7fa067d9c13afec458b2fae0f42b6b43519a32',
         '3a6bd65e9e6f54c06277179a884b99d75406fc0dd95e71b8c0a66b1316b181c2'),
    'alternating 6': ('ec750ee26c3cbe50d9d84448aee05ec6ef9eaed3014012ec1364249302a0dcdf',
         '7727f908502e793b4a7e2b57b1484d7f94a276c3613eb86ed8acb5159515ff03'),
    'sets(2)': ('39296a904fcb4f069ed1ac2ec5338dd346b1532c42dbad343ac3787523a1e57e',
         '8349bb5d2d44e8d655364829a2ce742165d10f6cb3966ecc05e35fb83ab9f28c'),
}


@pytest.mark.parametrize("label,formula", GUIDED_INPUTS, ids=[l for l, _ in GUIDED_INPUTS])
def test_guided_result_pinned(monkeypatch, label, formula):
    result, schedules = _guided_with_schedules(monkeypatch, formula)
    summary = (result.entailed, result.profile.to_dict(), result.m_bound,
               result.schedule_lengths, result.replayed_steps, result.skipped_steps)
    assert (_sha(summary), _sha(schedules)) == PINNED_GUIDED[label]


# -- the incremental checks against the full ones --------------------------------

def _qbf_guided(formula):
    inst = gen_qbf(formula)
    info = arboreous_info(inst.program)
    return tree_chase_guided(inst.program, inst.database, inst.queries[0], info)


def test_incremental_replay_agrees_with_the_full_checks(monkeypatch):
    """After every replayed step every live fact is a reference fact, the
    stack's layers are disjoint, and the fact set, in order and in its
    indexes, equals a from-scratch filter of the old facts and the head
    facts over the live terms."""
    applied = []
    seen = {"steps": 0, "pops": 0}
    original_apply = TreeChaseRun.apply
    original_replay = _GuidedReplayer.replay_step

    def apply(self, rule, values, fresh=None):
        before = list(self.interp)
        fresh = original_apply(self, rule, values, fresh)
        extension = dict(zip(rule.step_variables, values + fresh))
        applied.append((before, [substitute(a, extension) for a in rule.head]))
        return fresh

    def replay_step(self, step_index):
        applied.clear()
        original_replay(self, step_index)
        run = self.run
        assert all(atom in self.facts for atom in run.interp)
        live = run.live_terms()
        assert sum(map(len, run.stack)) == len(live)
        assert set(run.interp.terms()) <= live
        if applied:
            ((before, head),) = applied
            expected = list(dict.fromkeys(
                a for a in before + head if all(t in live for t in a.args)))
            assert list(run.interp) == expected
            fresh = Interpretation(expected)
            assert run.interp._by_pred == fresh._by_pred
            assert run.interp._by_arg == fresh._by_arg
            seen["steps"] += 1
            seen["pops"] += bool(run.popped)

    monkeypatch.setattr(TreeChaseRun, "apply", apply)
    monkeypatch.setattr(_GuidedReplayer, "replay_step", replay_step)
    for qs, cl in QBF_SUITE:
        formula = QbfFormula(qs, cl)
        assert _qbf_guided(formula).entailed == qbf_truth(formula)
    assert seen["steps"] > 100 and seen["pops"] > 10


def _replay_corrupted(monkeypatch, corrupt, error):
    """Answer a QBF query while ``corrupt(replayer, step)`` may spoil each
    scheduled step just before it is replayed, until it first returns
    true; returns the message of the ``error`` that the replay raises."""
    original = _GuidedReplayer.replay_step
    done = []

    def replay_step(self, step_index):
        step = self.steps[step_index - 1]
        if not done and corrupt(self, step):
            done.append(step_index)
        return original(self, step_index)

    monkeypatch.setattr(_GuidedReplayer, "replay_step", replay_step)
    with pytest.raises(error) as caught:
        _qbf_guided(QbfFormula("aea", ((1, 2), (-1, -2), (3, -3))))
    assert done
    return str(caught.value)


def _applies(replayer, step):
    """Whether the replay applies ``step`` rather than skip it."""
    rule = replayer.program.rule(step.rule_id)
    return not head_satisfied(replayer.run.interp, rule.head_plan, step.values)


def test_incremental_check_catches_a_new_fact_outside_the_reference(monkeypatch):
    """The reference loses a fact that the next applied step adds."""
    def drop_an_added_fact(replayer, step):
        if not _applies(replayer, step):
            return False
        dropped = next(a for a in step.new_facts if a not in replayer.run.interp)
        replayer.facts = set(replayer.facts) - {dropped}
        return True

    message = _replay_corrupted(monkeypatch, drop_an_added_fact, InvariantViolation)
    assert "is outside the reference chase" in message


def test_incremental_check_catches_a_recreated_live_null(monkeypatch):
    """An applied step's first null is swapped for one that is live."""
    def create_a_live_null(replayer, step):
        live = [t for layer in replayer.run.stack for t in layer if isinstance(t, Null)]
        if not (live and step.created_nulls and _applies(replayer, step)):
            return False
        step.created_nulls = (live[0],) + step.created_nulls[1:]
        return True

    message = _replay_corrupted(monkeypatch, create_a_live_null, InvariantViolation)
    assert "re-creates a live null" in message


def test_replay_rejects_a_body_term_without_a_live_preimage(monkeypatch):
    """The nulls of a step's match are swapped for a reference null that
    is no longer live, so no live fact holds them."""
    def stale_null(replayer, step):
        if not any(isinstance(t, Null) for t in step.values):
            return False
        live = replayer.run.live_terms()
        stale = next(t for a in replayer.facts for t in a.args
                     if isinstance(t, Null) and t not in live)
        step.values = tuple(stale if isinstance(t, Null) else t for t in step.values)
        return True

    message = _replay_corrupted(monkeypatch, stale_null, treechase.ReplayDivergence)
    assert "body atom missing" in message


def test_replay_rejects_a_body_atom_missing_from_the_run(monkeypatch):
    """A body fact over a null of the step is taken out of the run."""
    def remove_a_body_fact(replayer, step):
        rule = replayer.program.rule(step.rule_id)
        body = [Atom(pred, args(step.values)) for pred, args in rule.body_slots]
        removed = next((a for a in body if any(isinstance(t, Null) for t in a.args)), None)
        if removed is None:
            return False
        replayer.run.interp = Interpretation(a for a in replayer.run.interp if a != removed)
        return True

    message = _replay_corrupted(monkeypatch, remove_a_body_fact, treechase.ReplayDivergence)
    assert "body atom missing" in message


def test_apply_with_given_nulls_is_apply_up_to_their_names():
    """Two runs take the same steps, one naming the new nulls itself and
    one given names for them: facts, stack and profile agree up to the
    renaming of the nulls.  sets(1) has one step; sets(2) also pops."""
    pops = 0
    for n in (1, 2):
        inst = gen_sets(n)
        info = arboreous_info(inst.program)
        counted = TreeChaseRun(inst.program, inst.database, info.v_ehat)
        given = TreeChaseRun(inst.program, inst.database, info.v_ehat)
        names = {}

        def renamed(terms):
            return tuple(names.get(t, t) for t in terms)

        for _ in range(20):
            choices = list(unsatisfied_matches(counted.interp, inst.program.rules))
            if not choices:
                break
            rule, values = choices[-1]
            nulls = tuple(Null(len(names) + i, f"g{len(names) + i}")
                          for i in range(len(rule.existentials)))
            fresh = counted.apply(rule, values)
            assert given.apply(rule, renamed(values), nulls) == nulls
            names.update(zip(fresh, nulls))
            assert [Atom(a.pred, renamed(a.args)) for a in counted.interp] == list(given.interp)
            assert [set(renamed(layer)) for layer in counted.stack] == given.stack
            assert counted.profile == given.profile
            pops += bool(given.popped)
        assert names
    assert pops


# -- no recursion on the query path --------------------------------------------

def _builder(atom_steps, body_path):
    """A builder made by hand from its two indexes."""
    builder = TaskTreeBuilder.__new__(TaskTreeBuilder)
    builder.nodes_made = 0
    builder.atom_steps = atom_steps
    builder.body_path = body_path
    return builder


def test_schedule_sequence_of_a_deep_chain():
    # step i reads the atom (i,), which step i - 1 produced, so every task
    # has one subtask and the chain is far deeper than the recursion limit
    length = sys.getrecursionlimit() + 4000
    builder = _builder({(i,): [i - 1] for i in range(2, length + 1)},
                       {i: (i,) for i in range(1, length + 1)})
    assert builder.schedule(1, length) == list(range(1, length + 1))
    assert builder.nodes_made == length


def test_schedule_sequence_order_on_a_small_tree():
    # the task (1, 9) has the subtasks (1, 5), (2, 7) and (3, 8); (1, 5)
    # has (1, 1) and (2, 2), (2, 7) has (2, 2), and (3, 8) has (3, 3)
    builder = _builder({(0,): [1, 5], (0, 1): [2, 7], (0, 1, 2): [3, 8]},
                       {9: (0, 1, 2), 5: (0, 1), 7: (0, 1), 8: (0, 1, 2),
                        1: (0,), 2: (0, 1), 3: (0,)})
    assert builder.schedule(1, 9) == [1, 2, 5, 2, 7, 3, 8, 9]
    assert builder.schedule(1, 9) == _naive_schedule(builder, 1, 9)


def _chain_builder(length):
    """A builder whose step i has one body path node, produced by step i - 1."""
    return _builder({(0,): list(range(1, length + 1))},
                    {i: (0,) for i in range(1, length + 1)})


def test_task_tree_of_a_deep_chain():
    assert _chain_builder(5000).schedule(1, 5000) == list(range(1, 5001))


def test_task_tree_node_cap(monkeypatch):
    monkeypatch.setattr(treechase, "_TASK_NODE_CAP", 100)
    assert len(_chain_builder(100).schedule(1, 100)) == 100
    with pytest.raises(InvariantViolation):
        _chain_builder(101).schedule(1, 101)


def test_snapshot_restore_undoes_a_step(sets1):
    inst, info = sets1
    run = TreeChaseRun(inst.program, inst.database, info.v_ehat)
    rule = inst.program.rule(1)
    by_name = {v.name: v for v in rule.variables()}
    elem_a, set_e0 = inst.database.by_pred("elem")[0], inst.database.by_pred("set")[0]
    state = run.snapshot()
    facts, stack = list(run.interp), [set(layer) for layer in run.stack]
    match = {by_name["X"]: elem_a.args[0], by_name["S"]: set_e0.args[0]}
    run.apply(rule, tuple(match[v] for v in rule.body_plan.variables))
    run.break_iteration()
    run.restore(state)
    assert list(run.interp) == facts and run.stack == stack
    assert run.profile.inner_steps == [0]


# -- pinned search order ---------------------------------------------------------

SEARCH_INPUTS = [("sets(1)", None, 4)] + [
    (f"qbf {qs} {cl}", QbfFormula(qs, cl), 6)
    for qs, cl in (("e", ((1,),)), ("a", ((1,),)), ("ea", ((1, 2), (1, -2))),
                   ("ae", ((1, 2), (-1, -2))), ("ee", ((1, -2), (-1, 2))))]
SEARCH_BUDGETS = tuple(range(60)) + (100, 300, 1000)


def _search_outcomes(monkeypatch, formula, m_bound):
    """For each budget, the search's verdict and the sha256 of the
    (rule id, sorted match) sequence that ``TreeChaseRun.apply`` receives."""
    inst = gen_sets(1) if formula is None else gen_qbf(formula)
    info = arboreous_info(inst.program)
    moves = []
    original = TreeChaseRun.apply

    def recording(self, rule, values):
        match = dict(zip(rule.body_plan.variables, values))
        moves.append((rule.rule_id, tuple(sorted(match.items()))))
        return original(self, rule, values)

    monkeypatch.setattr(TreeChaseRun, "apply", recording)
    outcomes = []
    for budget in SEARCH_BUDGETS:
        moves.clear()
        verdict = tree_chase_search(inst.program, inst.database, inst.queries[0],
                                    info.v_ehat, m_bound, node_budget=budget)
        outcomes.append((budget, verdict, _sha(moves)))
    return outcomes


# sha256 of the (budget, verdict, sha256 of the applied moves) list, frozen
# from the search that re-checked every move inside apply
PINNED_SEARCH = {
    'sets(1)': '251f4a93b3e4def8428f3e8bd9984cb56bd61c4c75769691f984ddaa68472fa6',
    'qbf e ((1,),)': 'c1f1fcaf523145af0b5127e0ed281c3e46f0c1a110b63a281808164187c1371c',
    'qbf a ((1,),)': 'fdbabacf05cec24e01281618f2ca105880b6077127f13c9b8e9f0b9b048f6b93',
    'qbf ea ((1, 2), (1, -2))': 'a8d3af273a21603244f844a7bb90c789cb1134b85a4f115f4f550599c1f1b32b',
    'qbf ae ((1, 2), (-1, -2))': 'b83b3f2e8dc386a8413e9a3d54d4cfdbfef8568852cd7faffa4408174ddb1a28',
    'qbf ee ((1, -2), (-1, 2))': '4f2d0d646477564a5392ec9394f52277feca101c4a484644b47f27a3fccee63c',
}


@pytest.mark.parametrize("label,formula,m_bound", SEARCH_INPUTS,
                         ids=[l for l, _, _ in SEARCH_INPUTS])
def test_search_moves_pinned(monkeypatch, label, formula, m_bound):
    assert _sha(_search_outcomes(monkeypatch, formula, m_bound)) == PINNED_SEARCH[label]
