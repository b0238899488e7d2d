"""Backtracking homomorphism search over indexed interpretations.

The core walker keeps one mutable binding dictionary and undoes its own
entries on backtracking; callers that need to retain a match copy it at the
leaf.  Enumeration order is deterministic: fact candidates come in
insertion order, and atoms are matched either in the given order or most
constrained first.
"""

from __future__ import annotations

from typing import Callable, Iterator, Mapping, Optional

from .model import Atom, BCQ, Interpretation, Term, Variable


def unify_atom(pattern: Atom, fact: Atom, subst: dict) -> Optional[dict]:
    """Extend a copy of ``subst`` so that ``pattern`` maps onto ``fact``."""
    if pattern.pred != fact.pred or len(pattern.args) != len(fact.args):
        return None
    out = dict(subst)
    for p, f in zip(pattern.args, fact.args):
        if isinstance(p, Variable):
            bound = out.get(p)
            if bound is None:
                out[p] = f
            elif bound != f:
                return None
        elif p != f:
            return None
    return out


def match_each(interp: Interpretation, atoms, binding: dict,
               callback: Callable[[dict], bool], reorder: bool = True) -> bool:
    """Invoke ``callback`` on every embedding of ``atoms`` extending
    ``binding``; the dictionary passed to the callback is shared and must
    not be retained.  A truthy callback return stops the search; the
    function reports whether it was stopped."""
    remaining = list(atoms)

    def walk() -> bool:
        if not remaining:
            return bool(callback(binding))
        # most constrained atom first; the first minimum wins a tie
        i = 0
        facts = interp.candidates(remaining[0], binding)
        if reorder:
            for j in range(1, len(remaining)):
                other = interp.candidates(remaining[j], binding)
                if len(other) < len(facts):
                    i, facts = j, other
        atom = remaining.pop(i)
        leaf = not remaining
        # plan the positions once per level: values fixed by the current
        # binding or the atom itself are checked, the rest are bound
        check = []      # (index, expected term)
        bind = []       # (index, variable), first occurrence only
        same = []       # (index, index of the first occurrence)
        first_at = {}
        for idx, p in enumerate(atom.args):
            if isinstance(p, Variable):
                bound = binding.get(p)
                if bound is not None:
                    check.append((idx, bound))
                elif p in first_at:
                    same.append((idx, first_at[p]))
                else:
                    first_at[p] = idx
                    bind.append((idx, p))
            else:
                check.append((idx, p))
        try:
            for fact in facts:
                fa = fact.args
                ok = True
                for idx, expect in check:
                    if fa[idx] != expect:
                        ok = False
                        break
                if ok:
                    for idx, j in same:
                        if fa[idx] != fa[j]:
                            ok = False
                            break
                if not ok:
                    continue
                for idx, v in bind:
                    binding[v] = fa[idx]
                if callback(binding) if leaf else walk():
                    for _idx, v in bind:
                        del binding[v]
                    return True
                for _idx, v in bind:
                    del binding[v]
            return False
        finally:
            remaining.insert(i, atom)

    try:
        return walk()
    finally:
        # walk refers to itself through its closure; break the cycle so the
        # callback and what it holds are freed now, not at the next collection
        del walk


def find_matches(interp: Interpretation, atoms, subst: Optional[dict] = None,
                 reorder: bool = False) -> Iterator[dict]:
    """All substitutions embedding ``atoms`` into ``interp``, eagerly
    collected in deterministic order."""
    out: list = []

    def keep(binding: dict) -> bool:
        out.append(dict(binding))
        return False

    match_each(interp, atoms, dict(subst) if subst else {}, keep, reorder)
    return iter(out)


def head_satisfied(interp: Interpretation, head, subst: Mapping[Variable, Term]) -> bool:
    """Can ``subst`` extend over the head-only variables so the head embeds?"""
    return match_each(interp, head, dict(subst), lambda _b: True, reorder=True)


def unsatisfied_matches(interp: Interpretation, rules) -> Iterator[tuple]:
    """Every ``(rule, match)`` whose match embeds the rule's body but does
    not satisfy its head, rule by rule in the given order, each rule's
    matches in ``find_matches`` order.  Heads are checked lazily."""
    for rule in rules:
        for match in find_matches(interp, rule.body):
            if not head_satisfied(interp, rule.head, match):
                yield rule, match


def evaluate_bcq(interp: Interpretation, q: BCQ) -> bool:
    """Boolean conjunctive query entailment over one interpretation."""
    return match_each(interp, q.atoms, {}, lambda _b: True, reorder=True)


def bcq_match(interp: Interpretation, q: BCQ) -> Optional[dict]:
    """The first embedding of the query's atoms, or None."""
    found: list = []

    def keep(binding: dict) -> bool:
        found.append(dict(binding))
        return True

    match_each(interp, q.atoms, {}, keep, reorder=True)
    return found[0] if found else None
