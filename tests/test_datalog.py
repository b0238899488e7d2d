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


# -- goal-directed saturation: the cone -------------------------------------

@st.composite
def _cone_case(draw):
    """Copies of one drawn family of rules over p, q and r, each under its
    own predicate prefix and with its own variables; bridging rules from
    one copy's predicates to another's; multi-head rules whose two head
    atoms lie in different copies where there are two, so a goal in one
    copy takes one head atom into its cone and leaves the other out; and
    facts over every copy."""
    from chasekit.model import Tgd
    copies = [f"c{i}_" for i in range(draw(st.integers(1, 3)))]
    ids = itertools.count(3000)
    rule_ids = itertools.count(1)
    indices = st.tuples(st.integers(0, 2), st.integers(0, 2))

    def rule(body, head):
        """A rule over fresh variables from ``(pred, index pair)`` atoms;
        a head index the body lacks falls back to the body's first."""
        vs = {}
        body = tuple(Atom(p, tuple(vs.setdefault(i, Variable(next(ids), f"V{i}")) for i in ij))
                     for p, ij in body)
        head = tuple(Atom(p, tuple(vs.get(i, body[0].args[0]) for i in ij)) for p, ij in head)
        return Tgd(next(rule_ids), body, head)

    def spec_atom(prefixes):
        return st.tuples(st.sampled_from(prefixes), st.sampled_from(_preds), indices).map(
            lambda t: (t[0] + t[1], t[2]))

    family = draw(st.lists(st.tuples(st.lists(spec_atom([""]), min_size=1, max_size=2),
                                     spec_atom([""])), min_size=1, max_size=3))
    rules = [rule([(c + p, ij) for p, ij in body], [(c + head[0], head[1])])
             for c in copies for body, head in family]
    for _ in range(draw(st.integers(0, 2))):       # bridging rules
        src, dst = draw(st.sampled_from(copies)), draw(st.sampled_from(copies))
        rules.append(rule(draw(st.lists(spec_atom([src]), min_size=1, max_size=2)),
                          [draw(spec_atom([dst]))]))
    for _ in range(draw(st.integers(0, 2))):       # multi-head rules
        inside, outside = draw(st.permutations(copies))[:2] if len(copies) > 1 else copies * 2
        rules.append(rule(draw(st.lists(spec_atom(copies), min_size=1, max_size=2)),
                          [draw(spec_atom([inside])), draw(spec_atom([outside]))]))
    rules = draw(st.permutations(rules))
    preds = [c + p for c in copies for p in _preds]
    facts = Interpretation(
        Atom(draw(st.sampled_from(preds)),
             (draw(st.sampled_from(_consts)), draw(st.sampled_from(_consts))))
        for _ in range(draw(st.integers(1, 8))))
    return rules, facts, preds


def _rule_sets(rules):
    """The same rules as a list, an index and a program's index; the two
    indexes are kept across calls, so their cones are reused."""
    return (rules, DatalogIndex(rules), Program(rules).datalog_index)


@settings(max_examples=120, deadline=None)
@given(_cone_case(), st.data())
def test_goal_directed_saturate_agrees_with_naive_oracle(case, data):
    rules, facts, preds = case
    full = naive_materialize(rules, set(facts))
    atoms = st.builds(lambda p, s, t: Atom(p, (s, t)), st.sampled_from(preds),
                      st.sampled_from(_consts), st.sampled_from(_consts))
    derived = sorted(full - set(facts), key=str)
    if derived:
        atoms = st.sampled_from(derived) | atoms
    goals = data.draw(st.lists(st.lists(atoms, min_size=1, max_size=3), min_size=1, max_size=4))
    for rule_set in _rule_sets(rules):
        for goal in goals:
            part = set(saturate(rule_set, facts, goal))
            assert set(facts) <= part <= full
            assert (set(goal) <= part) == (set(goal) <= full)
        # the cones built on an index leave its own entries whole
        assert set(saturate(rule_set, facts)) == full


@settings(max_examples=120, deadline=None)
@given(_cone_case(), st.data())
def test_goal_directed_entails_agrees_with_naive_oracle(case, data):
    rules, facts, preds = case
    lift = {c: data.draw(st.sampled_from([c] + _vars)) for c in _consts}
    body = [Atom(a.pred, tuple(lift[t] for t in a.args)) for a in facts]
    terms = st.sampled_from([t for a in body for t in a.args] + [Variable(999, "W")])
    atoms = st.builds(lambda p, s, t: Atom(p, (s, t)), st.sampled_from(preds), terms, terms)
    derived = sorted(naive_materialize(rules, body) - set(body), key=str)
    if derived:
        atoms = st.sampled_from(derived) | st.sampled_from(derived) | atoms
    heads = data.draw(st.lists(st.lists(atoms, min_size=1, max_size=2), min_size=1, max_size=4))
    for rule_set in _rule_sets(rules):
        for head in heads:
            assert entails(rule_set, body, head) == naive_entails(rules, body, head)


def _recording(index: DatalogIndex, entered: list) -> DatalogIndex:
    """``index`` with each seeded plan's entry wrapped to record the head
    predicates of its rule when a run enters it."""
    for pred in list(index.seeded):
        index[pred] = [(lambda *a, _s=start, _h=tuple(p for p, _ in head):
                        entered.append(_h) or _s(*a), width, n, head)
                       for start, width, n, head in index[pred]]
    return index


def test_goal_directed_saturate_enters_no_plan_outside_the_cone():
    # the cone of c is {c, b, a}: rule 3 derives d from a, and rule 4 reads
    # e, which the two-headed rule 5 derives beside the cone's b
    p = parse_program("a(X) -> b(X) . b(X) -> c(X) . a(X) -> d(X) . "
                      "e(X) -> c2(X) . a(X) -> e(X), b(X) .")
    facts = parse_facts("a(1) .")
    entered: list = []
    out = saturate(_recording(DatalogIndex(p.rules), entered), facts,
                   [Atom("c", (_c("1"),))])
    assert set(entered) == {("b",), ("c",), ("e", "b")}
    # the two-headed rule is kept whole: its atom outside the cone is a fact
    assert Atom("e", (_c("1"),)) in out and Atom("d", (_c("1"),)) not in out
    # without a goal every plan runs
    entered.clear()
    saturate(_recording(DatalogIndex(p.rules), entered), facts)
    assert set(entered) == {("b",), ("c",), ("d",), ("c2",), ("e", "b")}


def test_entails_with_no_body_fact_in_the_cone_enters_no_plan():
    # the cone of c is {c, b}: the body's a and d lie outside it, so the
    # goal-directed saturation seeds nothing
    p = parse_program("b(X) -> c(X) . a(X) -> d(X) .")
    x = Variable(1, "X")
    body, head = [Atom("a", (x,)), Atom("d", (x,))], [Atom("c", (x,))]
    entered: list = []
    assert not entails(_recording(DatalogIndex(p.rules), entered), body, head)
    assert not naive_entails(p.rules, body, head)
    assert entered == []
    # a body fact in the cone runs its plan
    assert entails(_recording(DatalogIndex(p.rules), entered),
                   body + [Atom("b", (x,))], head)
    assert entered == [("c",)]


def _analyzer_programs():
    """Every corpus program, the k-stage sets chain for k up to 3, and a
    union of three corpus programs, each under its own predicate prefix,
    as the analyze-union benchmark builds its unions."""
    import re
    from chasekit.corpus import CORPUS_NAMES, instance_from_name
    from test_ranks import sets_chain
    programs = [instance_from_name(name).program for name in CORPUS_NAMES]
    programs += [sets_chain(k, 1)[0] for k in (1, 2, 3)]
    texts = [instance_from_name(name).program.to_text() for name in ("dexp", "counter", "sets")]
    programs.append(parse_program("".join(re.sub(r"\b([a-z][A-Za-z0-9]*)\(", rf"u{i}y\1(", text)
                                          for i, text in enumerate(texts))))
    return programs


def test_entails_agrees_with_naive_oracle_under_analyzer_traffic(monkeypatch):
    # every entailment the certificate search asks, checked as it is asked
    import chasekit.saturation
    from chasekit.analysis import analyze
    verdicts: list = []
    for program in _analyzer_programs():
        def checked(index, body, head, program=program):
            assert index is program.datalog_index
            body, head = tuple(body), tuple(head)
            verdict = entails(index, body, head)
            assert verdict == naive_entails(program.datalog_rules(), body, head)
            verdicts.append(verdict)
            return verdict

        monkeypatch.setattr(chasekit.saturation, "entails", checked)
        analyze(program)
    # the search decides a failing base check before it reaches entails,
    # so the 33 calls that reach it are all entailed
    assert len(verdicts) == 33 and all(verdicts)
