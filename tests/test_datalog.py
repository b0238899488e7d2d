import itertools

import pytest
from hypothesis import given, settings, strategies as st

from chasekit.datalog import entails, saturate
from chasekit.model import (Atom, Constant, DatalogIndex, Interpretation,
                            Program, Variable, parse_facts, parse_program)
from oracles import naive_entails, naive_materialize


def _c(name):
    return Constant(name)


def test_transitive_closure():
    p = parse_program("e(X,Y) -> t(X,Y) . e(X,Y), t(Y,Z) -> t(X,Z) .")
    facts = parse_facts("e(1,2) . e(2,3) .")
    out = saturate(p.rules, facts)
    expected = {Atom("t", (_c("1"), _c("2"))), Atom("t", (_c("2"), _c("3"))),
                Atom("t", (_c("1"), _c("3")))}
    assert set(out) == set(facts) | expected


def test_empty_rule_set_is_identity():
    facts = parse_facts("p(a) . q(a,b) .")
    out = saturate((), facts)
    assert set(out) == set(facts)
    assert facts is not out


def test_saturate_rejects_existential_rules():
    p = parse_program("p(X) -> q(X,V) .")
    with pytest.raises(ValueError):
        saturate(p.rules, Interpretation())


def test_propagation_pattern_closure():
    # One concatenation promoted to a sequence, and a later concatenation
    # built from that sequence: closure must push the promotion over to it.
    from chasekit.corpus import gen_dexp
    program = gen_dexp(1, True).program
    datalog = program.datalog_rules()
    facts = parse_facts(
        "cat(f,t,1,c1) . next(1,2) . up(c1,2,w1) . cat(w1,t,2,c2) .",
        program.signature)
    out = saturate(datalog, facts)
    assert Atom("up", (_c("c2"), _c("2"), _c("w1"))) in out


def test_entails_rejects_existential_rules_on_every_call():
    # with the head inside the body, and with a head that needs saturation
    p = parse_program("p(X) -> q(X,Y) .")
    x = Variable(100, "X")
    body = [Atom("p", (x,))]
    with pytest.raises(ValueError):
        entails(p.rules, body, body)
    with pytest.raises(ValueError):
        entails(p.rules, body, [Atom("q", (x, x))])


def test_entails_tautology_and_nonentailment():
    x = Variable(1, "X")
    body = [Atom("p", (x,))]
    assert entails((), body, [Atom("p", (x,))])
    assert not entails((), body, [Atom("q", (x,))])


def test_entails_base_propagation_consequence():
    # The part/propagation rules entail re-anchoring a promotion at a new
    # concatenation that contains the promoted sequence.
    from chasekit.corpus import gen_dexp
    program = gen_dexp(1, True).program
    rules = [program.rule(3), program.rule(6)]
    v = {n: Variable(100 + i, n) for i, n in enumerate(
        ["Xp1", "Xp2", "Zp", "X", "Zpp", "Xb1", "Zs", "Xs2", "Y3"])}
    body = [
        Atom("cat", (v["Xp1"], v["Xp2"], v["Zp"], v["X"])),
        Atom("next", (v["Zp"], v["Zpp"])),
        Atom("up", (v["X"], v["Zpp"], v["Xb1"])),
        Atom("lvl", (v["Xb1"], v["Zs"])),
        Atom("lvl", (v["Xs2"], v["Zs"])),
        Atom("cat", (v["Xb1"], v["Xs2"], v["Zs"], v["Y3"])),
    ]
    head = [Atom("up", (v["Y3"], v["Zpp"], v["Xb1"]))]
    assert entails(rules, body, head)
    assert naive_entails(rules, body, head)
    # dropping the propagation rule breaks the entailment
    assert not entails([program.rule(3)], body, head)


def test_saturate_idempotent_and_monotone():
    p = parse_program("e(X,Y) -> t(X,Y) . e(X,Y), t(Y,Z) -> t(X,Z) .")
    f1 = parse_facts("e(1,2) .")
    f2 = parse_facts("e(1,2) . e(2,3) .")
    once = saturate(p.rules, f2)
    twice = saturate(p.rules, once)
    assert set(once) == set(twice)
    assert set(saturate(p.rules, f1)) <= set(once)


_preds = ["p", "q", "r"]
_vars = [Variable(900 + i, n) for i, n in enumerate(["X", "Y", "Z"])]
_consts = [Constant(str(i)) for i in range(4)]


@st.composite
def _datalog_case(draw):
    from chasekit.model import Tgd
    rules = []
    rid = itertools.count(1)
    base = itertools.count(1000)
    for _ in range(draw(st.integers(1, 3))):
        nvars = draw(st.integers(1, 3))
        vs = [Variable(next(base), f"V{i}") for i in range(nvars)]
        def atom():
            pred = draw(st.sampled_from(_preds))
            return Atom(pred, tuple(draw(st.sampled_from(vs)) for _ in range(2)))
        body = tuple(atom() for _ in range(draw(st.integers(1, 2))))
        bound = [v for a in body for v in a.args]
        head_args = tuple(draw(st.sampled_from(bound)) for _ in range(2))
        head = (Atom(draw(st.sampled_from(_preds)), head_args),)
        rules.append(Tgd(next(rid), body, head))
    facts = Interpretation(
        Atom(draw(st.sampled_from(_preds)),
             (draw(st.sampled_from(_consts)), draw(st.sampled_from(_consts))))
        for _ in range(draw(st.integers(1, 5))))
    return rules, facts


@settings(max_examples=60, deadline=None)
@given(_datalog_case())
def test_saturate_agrees_with_naive_oracle(case):
    rules, facts = case
    assert set(saturate(rules, facts)) == naive_materialize(rules, set(facts))


@st.composite
def _entailment_case(draw):
    """Rules and facts of ``_datalog_case`` with some constants lifted to
    variables, a head taken from the body, and that head with extra atoms
    over the body's terms or a fresh variable."""
    rules, facts = draw(_datalog_case())
    lift = {c: draw(st.sampled_from([c] + _vars)) for c in _consts}
    body = [Atom(a.pred, tuple(lift[t] for t in a.args)) for a in facts]
    inside = draw(st.lists(st.sampled_from(body), max_size=3))
    terms = st.sampled_from([t for a in body for t in a.args] + [Variable(999, "W")])
    extra = draw(st.lists(st.builds(lambda p, s, t: Atom(p, (s, t)),
                                    st.sampled_from(_preds), terms, terms),
                          min_size=1, max_size=2))
    return rules, body, inside, inside + extra


@settings(max_examples=80, deadline=None)
@given(_entailment_case())
def test_entails_shortcuts_agree_with_naive_oracle(case):
    rules, body, inside, head = case
    # a head inside the body is entailed under any rules
    assert entails(rules, body, inside)
    assert naive_entails(rules, body, inside)
    # with no rules, membership in the body is the whole answer
    assert entails((), body, head) == naive_entails((), body, head)
    assert entails(rules, body, head) == naive_entails(rules, body, head)


@settings(max_examples=80, deadline=None)
@given(_entailment_case())
def test_entails_agrees_with_naive_oracle_on_index_and_rule_list(case):
    rules, body, inside, head = case
    expected = naive_entails(rules, body, head)
    assert entails(rules, body, head) == expected
    assert entails(DatalogIndex(rules), body, head) == expected
    assert entails(Program(rules).datalog_index, body, head) == expected
    # a head atom outside the body whose predicate no rule derives
    derived = {h.pred for rule in rules for h in rule.head}
    w = Variable(999, "W")
    for pred in sorted(set(_preds + ["s"]) - derived):
        underivable = inside + [Atom(pred, (w, w))]
        assert not entails(rules, body, underivable)
        assert not naive_entails(rules, body, underivable)


@settings(max_examples=80, deadline=None)
@given(_datalog_case(), st.data())
def test_saturate_with_a_goal_stops_inside_the_fixpoint(case, data):
    rules, facts = case
    full = set(saturate(rules, facts))
    atoms = st.builds(lambda p, s, t: Atom(p, (s, t)), st.sampled_from(_preds),
                      st.sampled_from(_consts), st.sampled_from(_consts))
    derived = sorted(full - set(facts))
    if derived:      # mostly derived atoms, so the stop point varies
        atoms = st.sampled_from(derived) | st.sampled_from(derived) | atoms
    drawn = data.draw(st.lists(atoms, min_size=1, max_size=4))
    # every derived atom as the goal: the stop must wait for the last one
    for goal in (drawn, derived) if derived else (drawn,):
        for rule_set in (rules, DatalogIndex(rules)):
            part = set(saturate(rule_set, facts, goal))
            assert set(facts) <= part <= full
            assert (set(goal) <= part) == (set(goal) <= full)


@st.composite
def _unfrozen_case(draw):
    """Rules of ``_datalog_case``; a body over p, q, r and the underivable
    s, with variables and constants; a head mixing body atoms, derived
    atoms, and atoms over variables, constants and a variable absent from
    the body."""
    rules, _facts = draw(_datalog_case())
    terms = st.sampled_from(_vars + _consts)
    atom = st.builds(lambda p, s, t: Atom(p, (s, t)),
                     st.sampled_from(_preds + ["s"]), terms, terms)
    body = draw(st.lists(atom, max_size=5))
    head_terms = st.sampled_from(_vars + _consts + [Variable(999, "W")])
    head_atom = st.builds(lambda p, s, t: Atom(p, (s, t)),
                          st.sampled_from(_preds + ["s"]), head_terms, head_terms)
    if body:
        head_atom = st.sampled_from(body) | head_atom
    # body variables taken as constants: what the rules derive is entailed
    derived = sorted(naive_materialize(rules, body) - set(body), key=str)
    if derived:
        head_atom = st.sampled_from(derived) | head_atom
    return rules, body, draw(st.lists(head_atom, min_size=1, max_size=3))


@settings(max_examples=150, deadline=None)
@given(_unfrozen_case())
def test_entails_on_unfrozen_atoms_agrees_with_naive_oracle(case):
    # both shortcuts are taken before saturating; an underivable s-atom in
    # the body must still count as present
    rules, body, head = case
    expected = naive_entails(rules, body, head)
    assert entails(rules, body, head) == expected
    assert entails(rules, iter(body), iter(head)) == expected


@st.composite
def _own_variables_case(draw):
    """Rules of ``_datalog_case``, and a body and head over the rules' own
    ``Variable`` objects mixed with constants: a plan's slots are those
    very variables, while in a fact they are values like any constant.
    The head draws from the body, from what the rules derive over it and
    from fresh atoms over the same terms."""
    rules, _facts = draw(_datalog_case())
    own = sorted({v for rule in rules for v in rule.variables()})
    terms = st.sampled_from(own + _consts)
    atom = st.builds(lambda p, s, t: Atom(p, (s, t)),
                     st.sampled_from(_preds + ["s"]), terms, terms)
    body = draw(st.lists(atom, min_size=1, max_size=5))
    head_atom = st.sampled_from(body) | atom
    derived = sorted(naive_materialize(rules, body) - set(body), key=str)
    if derived:
        head_atom = st.sampled_from(derived) | st.sampled_from(derived) | head_atom
    return rules, body, draw(st.lists(head_atom, min_size=1, max_size=3))


@settings(max_examples=150, deadline=None)
@given(_own_variables_case())
def test_entails_over_the_rules_own_variables_agrees_with_naive_oracle(case):
    rules, body, head = case
    expected = naive_entails(rules, body, head)
    assert entails(rules, body, head) == expected
    assert entails(DatalogIndex(rules), body, head) == expected
    # saturate reads the variables as values, as the oracle reads its
    # frozen terms
    assert set(saturate(rules, body)) == naive_materialize(rules, body)


@st.composite
def _dead_slot_case(draw):
    """One to three rules with three-atom bodies: atom ``k`` draws its
    terms from the shared ``J0``-``J2`` and its own ``Dk``, so a ``Dk``
    that the head lacks is read by no other atom, wherever a plan matches
    atom ``k``; the head reads ``J0`` and ``D0`` where the body has them,
    so ``J1`` and ``J2`` join the body without reaching the head.  Facts,
    enough of them that bindings repeat, are given over ``p0``, ``q0`` and
    ``r0`` and copied into ``p``, ``q`` and ``r`` one by one, so most
    matches are found by one seeded run only."""
    from chasekit.model import Tgd
    base = itertools.count(2000)
    x, y = Variable(next(base), "X"), Variable(next(base), "Y")
    rules = [Tgd(k, (Atom(f"{pred}0", (x, y)),), (Atom(pred, (x, y)),))
             for k, pred in enumerate(_preds, start=1)]
    for rule_id in range(4, draw(st.integers(4, 6)) + 1):
        shared = [Variable(next(base), f"J{i}") for i in range(3)]
        own = [Variable(next(base), f"D{k}") for k in range(3)]
        body = tuple(Atom(draw(st.sampled_from(_preds)),
                          tuple(draw(st.sampled_from(shared + [own[k]])) for _ in range(2)))
                     for k in range(3))
        present = {v for a in body for v in a.args}
        bound = [v for v in (shared[0], own[0]) if v in present] or list(body[0].args)
        head = (Atom(draw(st.sampled_from(_preds)),
                     tuple(draw(st.sampled_from(bound)) for _ in range(2))),)
        rules.append(Tgd(rule_id, body, head))
    facts = Interpretation(
        Atom(draw(st.sampled_from(_preds)) + "0",
             (draw(st.sampled_from(_consts)), draw(st.sampled_from(_consts))))
        for _ in range(draw(st.integers(1, 12))))
    return rules, facts


@settings(max_examples=200, deadline=None)
@given(_dead_slot_case())
def test_saturate_with_dead_body_slots_agrees_with_naive_oracle(case):
    # the rules' seeded plans skip facts that differ only in the body-only
    # variables no later atom reads; the fixpoint must not lose a head
    rules, facts = case
    assert set(saturate(rules, facts)) == naive_materialize(rules, set(facts))


@settings(max_examples=100, deadline=None)
@given(_dead_slot_case(), st.data())
def test_entails_with_dead_body_slots_agrees_with_naive_oracle(case, data):
    rules, facts = case
    lift = {c: data.draw(st.sampled_from([c] + _vars)) for c in _consts}
    body = [Atom(a.pred, tuple(lift[t] for t in a.args)) for a in facts]
    terms = st.sampled_from([t for a in body for t in a.args] + [Variable(999, "W")])
    head = data.draw(st.lists(st.builds(lambda p, s, t: Atom(p, (s, t)),
                                        st.sampled_from(_preds), terms, terms),
                              min_size=1, max_size=2))
    assert entails(rules, body, head) == naive_entails(rules, body, head)


def test_a_constant_cannot_name_a_frozen_variable():
    # a quoted constant may hold any character but a quote, a backslash
    # and a line break; spelled as the constant a variable was once frozen
    # into, it must still differ from the frozen X
    for name in ("\x00frz_0_X", "\x00oracle_0", "frozen"):
        p = parse_program(f"p('{name}') -> q('{name}') .")
        x = Variable(1, "X")
        assert not entails(p.rules, [Atom("p", (x,))], [Atom("q", (x,))])
        assert not naive_entails(p.rules, [Atom("p", (x,))], [Atom("q", (x,))])
