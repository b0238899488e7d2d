"""The homomorphism walker: its enumeration order, pinned, its answers
against the naive oracle, and what its compiled functions are made of."""

import gc
import hashlib
import itertools
import re
import weakref

import pytest
from hypothesis import given, settings, strategies as st

from chasekit import matching
from chasekit.analysis import analyze
from chasekit.chase import Deterministic, chase
from chasekit.corpus import QbfFormula, gen_dexp, gen_qbf, gen_sets
from chasekit.matching import (Plan, evaluate_bcq, find_matches, head_satisfied,
                               seeded_plans, unsatisfied_matches)
from chasekit.model import (BCQ, Atom, Constant, Interpretation, Tgd, Variable,
                            atoms_variables, parse_facts, parse_program)
from oracles import naive_materialize, naive_matches

# sha256 of the ordered match lists of find_matches(..., reorder=True) for
# every rule body, given in order and reversed, over the terminated chase;
# taken from the planning walker that compiled plans replaced
WALKER_ORDER_PINS = {
    "dexp-2": "5655460aa6aff6a224616992aa247bf63b903d95107afcb58fbd68d90acd4220",
    "sets-3": "39f9cddddadfc56b4f44f5931cf8de43eaadafc8e1159c5ffd1fb368625e26c7",
    "qbf-ae": "229dff5553b36c187fd1d01a9298f7216a17f7e924d929187a4a712a9bbd2a29",
}

_INSTANCES = {
    "dexp-2": lambda: gen_dexp(2, True),
    "sets-3": lambda: gen_sets(3),
    "qbf-ae": lambda: gen_qbf(QbfFormula("ae", ((1, 2), (-1, -2)))),
}


def _ordered_matches_digest(program, interp) -> str:
    h = hashlib.sha256()
    for rule in program.rules:
        for body in (rule.body, rule.body[::-1]):
            h.update(f"rule {rule.rule_id}\n".encode())
            for match in find_matches(interp, body, reorder=True):
                items = sorted((v.id, v.name, str(t)) for v, t in match.items())
                h.update(repr(items).encode() + b"\n")
    return h.hexdigest()


@pytest.mark.parametrize("name", sorted(WALKER_ORDER_PINS))
def test_walker_order_pinned(name):
    inst = _INSTANCES[name]()
    result = chase(inst.program, inst.database, Deterministic(), 100_000)
    assert result.terminated
    assert _ordered_matches_digest(inst.program, result.interpretation) \
        == WALKER_ORDER_PINS[name]


# sha256 of the ordered matches of every rule's seeded plans, with the
# rule's own keep, run from every fact of the seed's predicate over the
# terminated chase, unbounded and then bounded at a watermark taken when
# half of the model's facts were in; taken from the walker that interpreted
# step tuples, before plans were compiled to functions
SEEDED_ORDER_PINS = {
    ("dexp-2", False):
        "8f9cbc5f844bd841e68768c506009b16807bc262e4eef531240d2b24de3c21e1",
    ("dexp-2", True):
        "a838f49ead884822b749b44a9b96b01640136a8c3d6a3a10d675514dc131a13f",
    ("qbf-ae", False):
        "0e526ba459e4c6a22e36d75357232893da32a18a4d64fdfdf1608959ff73d178",
    ("qbf-ae", True):
        "62eb69d5d06cebcb6b336dc8b9530c9577430bdfb199e26cfb203ead995bf858",
    ("sets-3", False):
        "f9b989d7531826423c67411bc66b8a607384c09eb179e66e44de8982868b3908",
    ("sets-3", True):
        "8302c793988253b2afedfd41165096b83415bd87f0b6cd0a926199ed6aa36dd2",
}


def _seeded_matches_digest(program, model, bounded: bool) -> str:
    facts = list(model)
    interp = Interpretation(facts[:len(facts) // 2])
    below = interp.watermark() if bounded else None
    for fact in facts[len(facts) // 2:]:
        interp.add(fact)
    h = hashlib.sha256()
    for rule in program.rules:
        for k, (atom, plan) in enumerate(rule.seeded_plans):
            h.update(f"rule {rule.rule_id} seed {k}\n".encode())
            for fact in interp.by_pred(atom.pred):
                found: list = []
                plan.run_from(interp, fact, found.append, below)
                h.update(f"{fact}: {[[str(t) for t in m] for m in found]}\n".encode())
    return h.hexdigest()


@pytest.mark.parametrize("name, bounded", sorted(SEEDED_ORDER_PINS))
def test_seeded_order_pinned(name, bounded):
    inst = _INSTANCES[name]()
    result = chase(inst.program, inst.database, Deterministic(), 100_000)
    assert result.terminated
    assert _seeded_matches_digest(inst.program, result.interpretation, bounded) \
        == SEEDED_ORDER_PINS[name, bounded]


# -- the walker against the naive oracle -------------------------------------

_VARS = [Variable(i, name) for i, name in enumerate("XYZW", start=1)]
_CONSTS = [Constant(name) for name in "abc"]
_ARITY = {"p": 2, "q": 1, "r": 3}


@st.composite
def _join_case(draw):
    """Facts over three constants, a body of one to four atoms with
    repeated variables and constants, and values for some of its
    variables."""
    def atom(terms):
        pred = draw(st.sampled_from(sorted(_ARITY)))
        return Atom(pred, tuple(draw(st.sampled_from(terms)) for _ in range(_ARITY[pred])))

    facts = [atom(_CONSTS) for _ in range(draw(st.integers(0, 14)))]
    body = tuple(atom(_VARS * 3 + _CONSTS) for _ in range(draw(st.integers(1, 4))))
    bound = {v: draw(st.sampled_from(_CONSTS)) for v in atoms_variables(body)
             if draw(st.integers(0, 3)) == 0}
    return Interpretation(facts), body, bound


def _as_set(matches) -> list:
    return [frozenset(m.items()) for m in matches]


@settings(max_examples=300, deadline=None)
@given(_join_case())
def test_walker_agrees_with_the_naive_oracle(case):
    interp, body, bound = case
    expected = naive_matches(body, list(interp), bound)
    assert list(find_matches(interp, body, bound)) == expected
    reordered = _as_set(find_matches(interp, body, bound, reorder=True))
    assert len(set(reordered)) == len(reordered)
    assert set(reordered) == set(_as_set(expected))
    assert evaluate_bcq(interp, BCQ(body)) == bool(naive_matches(body, list(interp)))


@settings(max_examples=200, deadline=None)
@given(_join_case())
def test_compiled_plans_agree_with_the_naive_oracle(case):
    interp, body, bound = case
    facts = list(interp)
    variables = tuple(bound) + tuple(v for v in atoms_variables(body) if v not in bound)
    plan = Plan(body, variables, len(bound))
    found: list = []
    plan.run(interp, bound.values(), found.append)
    got = _as_set(dict(zip(variables, v)) for v in found)
    expected = _as_set(naive_matches(body, facts, bound))
    assert len(set(got)) == len(got)
    assert set(got) == set(expected)
    assert head_satisfied(interp, plan, tuple(bound.values())) == bool(expected)
    # seeded with each body atom in turn, matched to each fact
    variables = tuple(atoms_variables(body))
    for k, (atom, seeded) in enumerate(seeded_plans(body, variables)):
        rest = body[:k] + body[k + 1:]
        for fact in facts:
            found = []
            seeded.run_from(interp, fact, found.append)
            got = _as_set(dict(zip(variables, v)) for v in found)
            want = [m for b in naive_matches((atom,), [fact])
                    for m in _as_set(naive_matches(rest, facts, b))]
            assert len(set(got)) == len(got)
            assert set(got) == set(want)


# -- bounded runs -------------------------------------------------------------

_FACTS = st.lists(st.sampled_from([Atom(p, args) for p in sorted(_ARITY)
                                   for args in itertools.product(_CONSTS, repeat=_ARITY[p])]),
                  max_size=14)


def _entry_run(plan_atoms, variables, bound: dict, interp, emit, below=None) -> None:
    """The matches of ``plan_atoms`` that extend ``bound``, by a plan seeded
    with an atom over the bound variables, which the entry values match:
    only ``run_from`` takes a watermark."""
    entry = Atom("entry", tuple(bound))
    Plan(plan_atoms, variables, seed=entry).run_from(
        interp, Atom("entry", tuple(bound.values())), emit, below)


def _all_runs(interp, body, bound, seeds, below=None) -> list:
    """The ordered matches of the plan of ``body`` from the entry ``bound``
    and of each of its seeded plans from each of ``seeds``."""
    variables = tuple(bound) + tuple(v for v in atoms_variables(body) if v not in bound)
    found: list = []
    _entry_run(body, variables, bound, interp, found.append, below)
    for _atom, seeded in seeded_plans(body, variables):
        for fact in seeds:
            found.append(fact)
            seeded.run_from(interp, fact, found.append, below)
    return found


@settings(max_examples=200, deadline=None)
@given(_join_case(), st.data())
def test_a_bounded_run_finds_what_a_run_found_at_its_watermark(case, data):
    interp, body, bound = case
    interp.discard_terms(data.draw(st.sets(st.sampled_from(_CONSTS), max_size=1)))
    for atom in data.draw(_FACTS):
        interp.add(atom)
    then = list(interp)
    expected = _all_runs(interp, body, bound, then)
    below = interp.watermark()
    for atom in data.draw(_FACTS):
        interp.add(atom)
    assert _all_runs(interp, body, bound, then, below) == expected
    # numbers never go back, so every index list stays sorted by them
    for facts in (*interp._by_pred.values(), *interp._by_arg.values()):
        numbers = [interp._atoms[a] for a in facts]
        assert numbers == sorted(numbers)


def test_a_bounded_run_picks_atoms_by_the_counts_below_its_watermark():
    a, b, c, d, e = (Constant(n) for n in "abcde")
    x, y = _VARS[:2]
    body = (Atom("p", (x, y)), Atom("q", (y,)))
    interp = Interpretation([Atom("p", (a, b)), Atom("p", (c, d)),
                             Atom("q", (d,)), Atom("q", (b,)), Atom("q", (e,))])
    then: list = []
    _entry_run(body, (x, y), {}, interp, then.append)
    assert then == [(a, b), (c, d)]     # p first: two facts against three
    below = interp.watermark()
    interp.add(Atom("p", (e, e)))
    interp.add(Atom("p", (b, e)))
    now: list = []
    _entry_run(body, (x, y), {}, interp, now.append)
    assert now == [(c, d), (a, b), (e, e), (b, e)]    # q first: three against four
    bounded: list = []
    _entry_run(body, (x, y), {}, interp, bounded.append, below)
    assert bounded == then


# -- collapsing plans ----------------------------------------------------------

def _is_collapse_of(collapsed: list, full: list, keep: int) -> bool:
    """Is ``collapsed`` the matches of ``full`` with some removed, in the
    same order, each removed one equal on the first ``keep`` slots to an
    earlier kept one?  A plan finds each match once, so a match of
    ``full`` is kept exactly when it is the next one of ``collapsed``."""
    prefixes = set()
    rest = iter(collapsed)
    kept = next(rest, None)
    for match in full:
        if match == kept:
            prefixes.add(match[:keep])
            kept = next(rest, None)
        elif match[:keep] not in prefixes:
            return False
    return kept is None


@settings(max_examples=200, deadline=None)
@given(_join_case())
def test_a_collapsing_plan_drops_only_repeats_of_its_kept_slots(case):
    interp, body, bound = case
    facts = list(interp)
    variables = tuple(bound) + tuple(v for v in atoms_variables(body) if v not in bound)
    full: list = []
    Plan(body, variables, len(bound)).run(interp, bound.values(), full.append)
    keeping_all = seeded_plans(body, variables)
    for keep in range(len(variables) + 1):
        collapsed: list = []
        Plan(body, variables, len(bound), keep=keep).run(interp, bound.values(),
                                                        collapsed.append)
        assert _is_collapse_of(collapsed, full, keep)
        for (_, whole), (_, part) in zip(keeping_all, seeded_plans(body, variables, keep)):
            for fact in facts:
                full_run: list = []
                whole.run_from(interp, fact, full_run.append)
                collapsed = []
                part.run_from(interp, fact, collapsed.append)
                assert _is_collapse_of(collapsed, full_run, keep)


def test_a_collapsing_plan_skips_facts_that_differ_in_dead_slots_only():
    a, b, c, d = (Constant(n) for n in "abcd")
    x, y, z = _VARS[:3]
    interp = Interpretation([Atom("p", (a, b)), Atom("p", (a, c)), Atom("p", (d, b)),
                             Atom("q", (c,)), Atom("q", (d,))])
    # Y is dead: a second p-fact for X=a adds nothing that is kept
    plan = Plan((Atom("p", (x, y)),), (x, y), keep=1)
    found: list = []
    plan.run(interp, (), found.append)
    assert found == [(a, b), (d, b)]
    # Z binds nothing kept or read later: the first q-fact stands for all
    plan = Plan((Atom("p", (x, y)), Atom("q", (z,))), (x, y, z), reorder=False, keep=2)
    found = []
    plan.run(interp, (), found.append)
    assert found == [(a, b, c), (a, c, c), (d, b, c)]
    # a Datalog rule's seeded plans keep its frontier, its body plan all
    rule = Tgd(1, (Atom("p", (x, y)), Atom("q", (z,))), (Atom("r", (x,)),))
    (_, seeded), _ = rule.seeded_plans
    found = []
    seeded.run_from(interp, Atom("p", (a, b)), found.append)
    assert found == [(a, b, c)]
    found = []
    rule.body_plan.run(interp, (), found.append)
    assert len(found) == 6


# -- unsatisfied matches, by the rules' own plans ----------------------------

@st.composite
def _rules_case(draw):
    """Facts and a body as in ``_join_case``, and one or two rules with
    such bodies; a head may hold variables that its body lacks."""
    interp, body, _bound = draw(_join_case())
    bodies = [body] + [draw(_join_case())[1] for _ in range(draw(st.integers(0, 1)))]
    rules = []
    for rule_id, body in enumerate(bodies):
        preds = draw(st.lists(st.sampled_from(sorted(_ARITY)), min_size=1, max_size=2))
        head = tuple(Atom(p, tuple(draw(st.sampled_from(_VARS + _CONSTS))
                                   for _ in range(_ARITY[p]))) for p in preds)
        rules.append(Tgd(rule_id, body, head))
    return interp, rules


@settings(max_examples=200, deadline=None)
@given(_rules_case())
def test_unsatisfied_matches_are_the_naive_ones_in_order(case):
    interp, rules = case
    facts = list(interp)
    expected = []
    for rule in rules:
        for match in naive_matches(rule.body, facts):
            frontier = {v: match[v] for v in rule.frontier}
            if not naive_matches(rule.head, facts, frontier):
                expected.append((rule.rule_id, match))
    got = [(rule.rule_id, dict(zip(rule.body_plan.variables, values)))
           for rule, values in unsatisfied_matches(interp, rules)]
    assert got == expected


def test_a_second_unsatisfied_matches_call_compiles_nothing(plan_compiles):
    inst = gen_sets(3)
    rules = inst.program.rules
    interp = chase(inst.program, inst.database).interpretation
    interp.add(Atom("elem", (Constant("fresh"),)))
    first = list(unsatisfied_matches(interp, rules))
    plan_compiles.clear()
    assert list(unsatisfied_matches(interp, rules)) == first != []
    assert plan_compiles == []


# -- the compiled functions ----------------------------------------------------

# constants that would break out of a string, a call or a block, or run
# code, if a plan spelled them in its source text
_HOSTILE = ['__import__("os").getcwd()', 'x"); raise SystemExit("',
            "it's a \\ and a {brace}\nand a line", "}] + [lambda: 0 #"]


def test_program_text_never_becomes_code(monkeypatch):
    a, b, c, d = (str(Constant(name)) for name in _HOSTILE)
    program = parse_program(
        f"quarry({a}, X), tether(X, Y) -> hazard(Y, {b}) .\n"
        f"hazard(X, {b}), tether(Y, X) -> hazard(Y, {c}) .\n"
        f"hazard(X, Y), hazard(Z, Y), tether(X, Z) -> quarry({a}, Z), tether(Z, {d}) .\n")
    database = parse_facts(f"quarry({a}, {c}) . tether({c}, {b}) . tether({b}, {a}) . "
                           f"tether({a}, {c}) . tether({d}, {c}) . quarry({b}, {d}) .",
                           program.signature)
    monkeypatch.setattr(matching, "_CODE", {})
    result = chase(program, database)
    assert result.terminated
    model = set(result.interpretation)
    assert model == naive_materialize(program.rules, set(database))
    assert len(model) > len(database)
    assert matching._CODE
    names = set(program.signature) | set(_HOSTILE)
    assert not [(name, source) for source in matching._CODE for name in names
                if name in source]


def _renamed_union(text: str, copies: int):
    return parse_program("".join(re.sub(r"\b([a-z][A-Za-z0-9]*)\(", rf"u{i}y\1(", text)
                                 for i in range(copies)))


def test_each_shape_compiles_once(monkeypatch):
    text = gen_dexp(1, True).program.to_text()
    compiled = []
    for copies in (1, 4):
        monkeypatch.setattr(matching, "_CODE", {})
        program = _renamed_union(text, copies)
        assert analyze(program).saturation.verdict == "saturating"
        compiled.append(len(matching._CODE))
        analyze(program)
        assert len(matching._CODE) == compiled[-1]
    assert compiled[0] == compiled[1] > 0


def test_a_plan_is_freed_without_the_cycle_collector():
    x, y, z = _VARS[:3]
    a, b = _CONSTS[:2]
    interp = Interpretation([Atom("p", (a, b)), Atom("p", (b, a)), Atom("q", (a,))])
    body = (Atom("p", (x, y)), Atom("p", (y, z)), Atom("q", (z,)))
    gc.disable()
    try:
        plan = Plan(body, (x, y, z), keep=1)
        found: list = []
        plan.run(interp, (), found.append)
        assert found == [(a, b, a)]
        freed = weakref.ref(plan)
        start = weakref.ref(plan.start)
        del plan
        assert freed() is None and start() is None
    finally:
        gc.enable()
