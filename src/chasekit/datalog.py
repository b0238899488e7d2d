"""Bottom-up Datalog saturation and the entailment check.

``saturate`` computes the least fixpoint of a set of existential-free rules
the way the chase discovers matches: each fact, given or derived, is taken
once from a worklist and handed to the rule plans seeded with a body atom
of its predicate, which match the rest of the body around it.  Every match
is found at the latest when the last of its facts is taken, since the
others are present by then.  Those plans keep only the frontier, which
grounds the head, so a run skips the facts that would only bind body-only
variables to other values that nothing after them reads: each match it
skips derives the same head as one it yields, and the fixpoint is
unchanged.

``saturate`` reads every term of its input as an opaque value, variables
included: a plan's slots are the variables of the rule's own atoms, and a
fact's arguments are only compared by equality.  So it inserts its input
without the ground test of ``Interpretation.add``, and a derived fact,
built from values already in the fixpoint and the rules' constants, skips
it too.  Groundness is checked where atoms enter from outside: by
``Interpretation.add``, ``Database.add`` and the parsers.

A program's Datalog part is indexed once, on first use, by the
``Program.datalog_index`` property; both functions take that index or any
rule iterable, which they index on the fly.  The index holds each seeded
plan's entry (``matching.Plan.entry``), made on the first lookup of the
seed's predicate, which ``saturate`` calls for each worklist fact of that
predicate and the seed's arity.

``entails`` decides whether the rules entail a universally quantified
implication ``body -> head`` by saturating the body as it is and testing
membership of the head: the canonical-database test (Chandra and Merlin,
1977).  That test needs each variable to be a value that equals no
constant or null and no other variable, and a variable already is one,
since the tag of a term keeps it apart from every constant and null, and no
rule spells a variable as a constant.
Saturation only adds facts, and each fact it adds has the head predicate
of some rule.  So a head already inside the body is entailed without
saturating; a missing head atom whose predicate no rule derives is not
entailed, again without saturating (with no rules this covers every
missing atom); and the fixpoint can stop at the first moment every missing
head atom has been derived, since later rounds cannot take a fact away.
"""

from __future__ import annotations

from typing import Iterable, Optional, Union

from .model import Atom, DatalogIndex, Interpretation, Tgd


def _indexed(rules: Union[DatalogIndex, Iterable[Tgd]]) -> DatalogIndex:
    return rules if isinstance(rules, DatalogIndex) else DatalogIndex(rules)


def saturate(rules: Union[DatalogIndex, Iterable[Tgd]], facts: Iterable[Atom],
             goal: Iterable[Atom] = ()) -> Interpretation:
    """Least fixpoint of ``rules`` over ``facts``, any iterable of atoms
    (an interpretation too), which is read once and not modified.  Its
    terms are opaque values: a variable in ``facts`` is not rejected, and
    stands for itself.

    ``rules`` is a prebuilt index or any iterable of rules, indexed here.
    With a nonempty ``goal`` the fixpoint stops as soon as every goal atom
    is a fact, so the result is part of the fixpoint and holds the goal
    exactly when the whole fixpoint does.
    """
    index = _indexed(rules).by_body_pred
    result = Interpretation()
    insert = result._insert
    for fact in facts:
        insert(fact)
    goal = set(goal)
    missing = {a for a in goal if a not in result}
    if goal and not missing:
        return result
    pget = result._pget
    aget = result._aget
    worklist = list(result)
    while worklist:
        fact = worklist.pop()
        arity = len(fact.args)
        seed = (fact,)
        for start, width, n, head in index[fact.pred]:
            if n != arity:
                continue
            # collected first: adding while the plan walks would extend the
            # fact lists it is reading
            matches: list = []
            start(seed, [None] * width, matches.append, pget, aget, len, None)
            for values in matches:
                for pred, args in head:
                    new = Atom(pred, args(values))
                    if insert(new):
                        if new in missing:
                            missing.remove(new)
                            if not missing:
                                return result
                        worklist.append(new)
    return result


def entails(rules: Union[DatalogIndex, Iterable[Tgd]], body: Iterable[Atom],
            head: Iterable[Atom]) -> bool:
    """True iff ``rules`` entail ``forall vars . body -> head``.

    ``rules`` is a prebuilt index or any iterable of rules; an existential
    rule raises ValueError on every call.  The body is saturated as given,
    its variables standing for themselves.  A head variable that is not in
    the body occurs in no fact of the fixpoint, so no head atom holding one
    is entailed, as the implication with that variable also universally
    quantified requires.
    """
    index = _indexed(rules)
    body = tuple(body)
    known = set(body)
    missing = [a for a in head if a not in known]
    verdict = early_verdict(index, missing)
    if verdict is not None:
        return verdict
    closure = saturate(index, body, missing)
    return all(a in closure for a in missing)


def early_verdict(index: DatalogIndex, missing: list) -> Optional[bool]:
    """What ``entails`` answers before saturating, given the head atoms
    ``missing`` from the body: True when there are none, False when one
    has a predicate that no rule of ``index`` derives, and None when only
    the fixpoint can tell."""
    if not missing:
        return True
    if any(a.pred not in index.head_preds for a in missing):
        return False
    return None
