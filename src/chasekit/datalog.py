"""Bottom-up Datalog saturation and the frozen-constant entailment check.

``saturate`` computes the least fixpoint of a set of existential-free rules
the way the chase discovers matches: each fact, given or derived, is taken
once from a worklist, unified with every body atom of its predicate, and
the rest of the body is matched around it.  Every match is found at the
latest when the last of its facts is taken, since the others are present
by then.

``entails`` decides whether the rules entail a universally quantified
implication ``body -> head`` by replacing every variable with a reserved
fresh constant, saturating, and testing membership of the frozen head.
Saturation only adds facts, so a frozen head already inside the frozen
body is entailed without it; and with no rules the frozen body is its own
closure, so that membership test is the whole answer.  Only a head that
is not in the body, under a nonempty rule set, costs a saturation.
"""

from __future__ import annotations

from typing import Iterable

from .matching import find_matches, unify_atom
from .model import Atom, Constant, Interpretation, Tgd, Variable, substitute

# Frozen constants live outside the user namespace: quoted constants cannot
# contain control characters, so no parsed program can ever mention these.
_FREEZE_PREFIX = "\x00frz_"


def saturate(rules: Iterable[Tgd], facts: Interpretation) -> Interpretation:
    """Least fixpoint of ``rules`` over ``facts``; the input is not modified."""
    # predicate -> (rule, body atom, rest of the body) per body atom
    body_index: dict = {}
    for rule in rules:
        if rule.existentials:
            raise ValueError(f"rule {rule.rule_id} has existential variables")
        body = rule.body
        for k, atom in enumerate(body):
            body_index.setdefault(atom.pred, []).append(
                (rule, atom, body[:k] + body[k + 1:]))
    result = facts.copy()
    worklist = list(result)
    while worklist:
        fact = worklist.pop()
        for rule, atom, rest in body_index.get(fact.pred, ()):
            seed = unify_atom(atom, fact, {})
            if seed is None:
                continue
            for match in find_matches(result, rest, seed, reorder=True):
                for h in rule.head:
                    new = substitute(h, match)
                    if result.add(new):
                        worklist.append(new)
    return result


class FreshConstants:
    """Injective map from variables into the reserved constant namespace."""

    def __init__(self):
        self._map: dict = {}

    def __getitem__(self, v: Variable) -> Constant:
        c = self._map.get(v)
        if c is None:
            c = Constant(f"{_FREEZE_PREFIX}{len(self._map)}_{v.name}")
            self._map[v] = c
        return c

    def freeze(self, atom: Atom) -> Atom:
        return Atom(atom.pred, tuple(self[a] if isinstance(a, Variable) else a
                                     for a in atom.args))


def entails(rules: Iterable[Tgd], body: Iterable[Atom], head: Iterable[Atom]) -> bool:
    """True iff ``rules`` entail ``forall vars . body -> head``.

    Head variables not occurring in the body are frozen as well, which makes
    the check test entailment of the implication with those variables also
    universally quantified.
    """
    frz = FreshConstants()
    frozen_body = [frz.freeze(a) for a in body]
    frozen_head = [frz.freeze(a) for a in head]
    known = set(frozen_body)
    if all(a in known for a in frozen_head):
        return True
    rules = tuple(rules)
    if not rules:
        return False
    closure = saturate(rules, Interpretation(frozen_body))
    return all(a in closure for a in frozen_head)
