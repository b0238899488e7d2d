"""Output checks that share no code with the engine under test.

Nothing here imports ``chasekit.matching``, the chase, the analyzer or the
corpus oracle: the model check has its own join over an own fact index,
the closed forms are counted directly off the result, and QBF truth is
decided by brute force over assignments.  Only the term and atom classes
of ``chasekit.model`` are shared, as the data format of the outputs.

Every check returns a list of problems; an empty list means the output
passed.
"""

from __future__ import annotations

import math
from collections import defaultdict

from chasekit.model import Atom, Constant, Null, Variable


# -- model check ----------------------------------------------------------------

class FactIndex:
    """Ground atoms indexed by predicate and by (predicate, position, term)."""

    def __init__(self, atoms):
        self.facts = set()
        self.by_pred = defaultdict(list)
        self.by_arg = defaultdict(list)
        for atom in atoms:
            if atom in self.facts:
                continue
            self.facts.add(atom)
            self.by_pred[atom.pred].append(atom.args)
            for i, t in enumerate(atom.args):
                self.by_arg[(atom.pred, i, t)].append(atom.args)

    def embeddings(self, atoms, binding: dict):
        """Yield every extension of ``binding`` mapping ``atoms`` into the
        facts.  The yielded dict is shared: copy it to keep it."""
        plan = _join_plan(atoms, set(binding))
        binding = dict(binding)
        yield from self._walk(plan, 0, binding)

    def _walk(self, plan, k: int, binding: dict):
        if k == len(plan):
            yield binding
            return
        pred, fixed, binds, sames = plan[k]
        keys = [(pred, i, binding[v] if isinstance(v, Variable) else v) for i, v in fixed]
        candidates = min((self.by_arg.get(key, ()) for key in keys), key=len,
                         default=self.by_pred.get(pred, ()))
        values = [(i, binding[v] if isinstance(v, Variable) else v) for i, v in fixed]
        for args in candidates:
            if any(args[i] != t for i, t in values) or any(args[i] != args[j] for i, j in sames):
                continue
            for i, v in binds:
                binding[v] = args[i]
            yield from self._walk(plan, k + 1, binding)
        for _i, v in binds:
            binding.pop(v, None)


def _join_plan(atoms, bound: set) -> list:
    """A static join order, most constrained atom first; per atom the
    positions fixed by constants or bound variables, the variables it binds
    and the repeated positions among them."""
    remaining = list(atoms)
    bound = set(bound)
    plan = []
    while remaining:
        atom = max(remaining, key=lambda a: sum(1 for t in a.args
                                                if not isinstance(t, Variable) or t in bound))
        remaining.remove(atom)
        fixed, binds, sames, first = [], [], [], {}
        for i, t in enumerate(atom.args):
            if not isinstance(t, Variable) or t in bound:
                fixed.append((i, t))
            elif t in first:
                sames.append((i, first[t]))
            else:
                first[t] = i
                binds.append((i, t))
        bound.update(first)
        plan.append((atom.pred, fixed, binds, sames))
    return plan


def model_problems(program, atoms, limit: int = 3) -> list:
    """Every body match of every rule must extend to a head embedding."""
    index = FactIndex(atoms)
    problems = []
    for rule in program.rules:
        datalog = not rule.existentials
        for binding in index.embeddings(rule.body, {}):
            if datalog:
                ok = all(Atom(h.pred, tuple(binding.get(t, t) for t in h.args))
                         in index.facts for h in rule.head)
            else:
                ok = next(index.embeddings(rule.head, binding), None) is not None
            if not ok:
                problems.append(f"rule {rule.rule_id} violated at "
                                + ", ".join(f"{v.name}={t}" for v, t in binding.items()))
                if len(problems) >= limit:
                    return problems
    return problems


# -- closed forms ---------------------------------------------------------------------

def nulls_of(atoms) -> set:
    return {t for a in atoms for t in a.args if isinstance(t, Null)}


def dexp_problems(levels: int, pairing_pred: str, pairing_firings: int, atoms) -> list:
    """``dexp(L)`` pairs the 2^(2^(L-1)) sequences of level L with each
    other: 2^(2^L) pairing applications, one fresh ``cat`` fact each."""
    expected = 2 ** (2 ** levels)
    top = Constant(str(levels))
    cats = sum(1 for a in atoms if a.pred == pairing_pred and a.args[2] == top)
    problems = []
    if pairing_firings != expected:
        problems.append(f"dexp({levels}): pairing rule fired {pairing_firings} times "
                        f"at the top level, expected {expected}")
    if cats != expected:
        problems.append(f"dexp({levels}): {cats} top-level {pairing_pred} facts, "
                        f"expected {expected}")
    return problems


def sets_null_count(n: int) -> int:
    """One set per injective insertion sequence of length 1..n."""
    return sum(math.perm(n, k) for k in range(1, n + 1))


def sets_problems(n: int, atoms) -> list:
    got, expected = len(nulls_of(atoms)), sets_null_count(n)
    if got != expected:
        return [f"sets({n}): {got} nulls, expected {expected}"]
    return []


def counter_problems(levels: int, preds: dict, atoms) -> list:
    """``succ`` at the top level is one chain from the unique ``min`` to the
    unique ``max`` through 2^(2^(L-1)) elements."""
    top = Constant(str(levels))
    size = 2 ** (2 ** (levels - 1))
    succ = [a.args for a in atoms if a.pred == preds["succ"] and a.args[2] == top]
    mins = [a.args[0] for a in atoms if a.pred == preds["min"] and a.args[1] == top]
    maxs = [a.args[0] for a in atoms if a.pred == preds["max"] and a.args[1] == top]
    name = f"counter({levels})"
    if len(mins) != 1 or len(maxs) != 1:
        return [f"{name}: {len(mins)} minima and {len(maxs)} maxima at the top level"]
    nxt = {}
    for a, b, _ in succ:
        if a == b or a in nxt:
            return [f"{name}: succ is not a chain at {a}"]
        nxt[a] = b
    chain = [mins[0]]
    while chain[-1] in nxt and len(chain) <= len(succ):
        chain.append(nxt[chain[-1]])
    if chain[-1] != maxs[0] or len(chain) != size or len(succ) != size - 1:
        return [f"{name}: succ chain of {len(chain)} elements from min ends at "
                f"{chain[-1]}, expected {size} elements ending at the max"]
    return []


def fresh_null_chain_problems(name: str, start, edge_pred: str, steps: int,
                              created_per_step: list, atoms) -> list:
    """A ring chase from one fact makes one fresh null per step, and its
    edge facts form a single path from the start constant."""
    problems = []
    if any(c != 1 for c in created_per_step) or len(created_per_step) != steps:
        problems.append(f"{name}: some step created no fresh null or several")
    nulls = nulls_of(atoms)
    if len(nulls) != steps:
        problems.append(f"{name}: {len(nulls)} nulls after {steps} steps")
    succ = {}
    for a in atoms:
        if a.pred == edge_pred:
            if a.args[0] in succ:
                problems.append(f"{name}: {a.args[0]} has two successors")
                break
            succ[a.args[0]] = a.args[1]
    cur, seen = start, 0
    while cur in succ and seen <= steps:
        cur = succ[cur]
        seen += 1
    if seen != steps:
        problems.append(f"{name}: edge path from {start} has {seen} edges, expected {steps}")
    return problems


# -- QBF -------------------------------------------------------------------------------

def qbf_brute_force(quantifiers: str, clauses) -> bool:
    """Truth of a prenex CNF formula by enumerating assignments."""
    n = len(quantifiers)

    def value(bits: int, i: int) -> bool:
        if i == n:
            return all(any(((bits >> (abs(l) - 1)) & 1) == (l > 0) for l in clause)
                       for clause in clauses)
        branches = (value(bits, i + 1), value(bits | (1 << i), i + 1))
        return any(branches) if quantifiers[i] == "e" else all(branches)

    return value(0, 0)


def verdict_problems(name: str, got, expected) -> list:
    if got != expected:
        return [f"{name}: got {got!r}, expected {expected!r}"]
    return []
