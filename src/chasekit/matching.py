"""Homomorphism search over indexed interpretations, by compiled plans.

A ``Plan`` compiles one join once: a tuple of atoms, the order of the
variables' *slots*, how many of them (the first ``n_bound``) are bound on
entry, and optionally a *seed* atom that is matched first against one given
fact.  A search binds into a list indexed by slot and hands each match out
as the tuple of all slots, so a caller that stores matches stores that
tuple, and one that ranks variables differently reads them by slot.

Enumeration order is fixed.  Fact candidates come in insertion order.  At
every level the next atom is the most constrained one, judged by the length
of its smallest candidate list: the predicate's list or, in position order,
the list of a position whose value is fixed by a constant or a bound
variable.  The first minimum wins a tie, and ``reorder=False`` keeps the
given order.  Which variables are bound depends only on which atoms are
already matched, so everything else is planned on the first visit of each
such set of atoms: the index lookups of every remaining atom and, for the
atom picked, the positions to compare with fixed values, the repeated
positions to compare with each other, and the positions to bind.

A plan may keep only its first ``keep`` slots: its caller reads nothing
else of a match.  A slot is then *dead* at a step that binds it when it is
not kept and no atom matched after that step reads it.  Such a step skips
every fact whose live bindings repeat an earlier fact of the same scan:
below it the same matches would come again with only dead slots changed.
So the run yields a subsequence of the full run's matches, in order, and
each match it drops has an earlier match it yields that equals it on the
kept slots, as a semi-join reduction would leave them.  A Datalog rule's
seeded plans keep its frontier, which grounds its head (see
``model.Tgd.seeded_plans``).

A rule compiles its own plans once (see ``model.Tgd``), and every engine
that applies it runs those.  ``match_each`` and the functions built on it
compile a plan per call, for queries and other joins that no rule holds,
and bind into dictionaries keyed by variable.
"""

from __future__ import annotations

from bisect import bisect_left
from functools import partial
from operator import itemgetter
from typing import Callable, Iterator, Optional

from .model import Atom, BCQ, Interpretation, Variable, atoms_variables

_EMPTY: tuple = ()
_NO_FACT = Atom("", ())   # the fact a plan without a seed starts from


def _found(_values) -> bool:
    return True


def _shaped(values: list):
    # shaped like what itemgetter gives: one value alone, several as a tuple
    return values[0] if len(values) == 1 else tuple(values)


class Plan:
    """A join of ``atoms`` compiled over the slots of ``variables``.

    The first ``n_bound`` variables are bound on entry.  With a ``seed``
    atom, ``run_from`` first matches the seed against one fact and then the
    atoms around it.  ``variables`` holds every variable of the atoms, the
    seed and the entry.  Nothing is compiled before the first run, so a
    plan that never runs costs little.

    A run may take a bound ``below`` from ``Interpretation.watermark``: it
    then joins only the facts numbered below it, the facts present when
    the watermark was taken, and picks the most constrained atom by how
    many facts of each list lie below it.  Index lists are sorted by
    number, so those facts are a prefix, counted by a bisect that a list
    wholly below the bound skips.  A bounded run therefore finds exactly
    the matches, in exactly the order, that an unbounded run found then.

    With ``keep``, a run may drop a match whose first ``keep`` slots equal
    those of an earlier match of the same run (see the module docstring);
    without it, every match comes.

    A node, built on the first visit of a set ``mask`` of matched atoms, is
    ``[lookups, steps]``: per remaining atom ``j`` (only the first without
    reordering) ``(j, pred, ((position, slot or -1, static key), ...))``,
    and per atom the step that matches it there, built when first picked.
    A step is ``(arity, get, expect, read, same, bind, child, scan)``:
    ``get`` reads the positions fixed by a constant or a bound slot, to
    compare with ``expect`` or, when a slot is among them, with what
    ``read`` reads off the slots; ``same`` pairs a repeated new variable
    with its first position; ``bind`` takes each new variable's first
    position into its slot; ``child`` is the next node, None after the last
    atom; ``scan`` is the routine that runs the step, chosen when it is
    built: ``_scan``, or ``_collapse`` for a step that binds a dead slot,
    whose tuple ends with ``live``, the getter of its live bindings (None
    when it has none).
    """

    __slots__ = ("atoms", "variables", "n_bound", "reorder", "seed", "keep", "start",
                 "_nodes")

    def __init__(self, atoms, variables, n_bound: int = 0, reorder: bool = True,
                 seed: Optional[Atom] = None, keep: Optional[int] = None):
        self.atoms = tuple(atoms)
        self.variables = variables
        self.n_bound = n_bound
        self.reorder = reorder
        self.seed = seed
        self.keep = keep
        self.start = None

    def _compile(self) -> tuple:
        """The first step: the seed's, or an empty one leading to the root."""
        self._nodes = {}
        root = self._node(0) if self.atoms else None
        self.start = self._step(self.seed or _NO_FACT, range(self.n_bound), root)
        return self.start

    def _bound(self, mask: int) -> set:
        """The slots bound once the atoms in ``mask`` are matched."""
        matched = [a for j, a in enumerate(self.atoms) if mask >> j & 1]
        if self.seed is not None:
            matched.append(self.seed)
        return set(range(self.n_bound)).union(
            *([self.variables.index(v) for v in a.variables()] for a in matched))

    def _node(self, mask: int) -> list:
        node = self._nodes.get(mask)
        if node is None:
            bound = self._bound(mask)
            remaining = [j for j in range(len(self.atoms)) if not mask >> j & 1]
            lookups = []
            for j in remaining if self.reorder else remaining[:1]:
                pred = self.atoms[j].pred
                spec = []
                for i, a in enumerate(self.atoms[j].args):
                    if not isinstance(a, Variable):
                        spec.append((i, -1, (pred, i, a)))
                    elif self.variables.index(a) in bound:
                        spec.append((i, self.variables.index(a), None))
                lookups.append((j, pred, tuple(spec)))
            node = self._nodes[mask] = [tuple(lookups), [None] * len(self.atoms)]
        return node

    def _step(self, atom: Atom, bound, child) -> tuple:
        fixed, expect, same, bind, first = [], [], [], [], {}
        for idx, p in enumerate(atom.args):
            if not isinstance(p, Variable):
                fixed.append(idx)
                expect.append(p)
                continue
            s = self.variables.index(p)
            if s in bound:
                fixed.append(idx)
                expect.append(s)
            elif s in first:
                same.append((idx, first[s]))
            else:
                first[s] = idx
                bind.append((idx, s))
        # a slot number is an int, a constant a tuple
        if not any(e.__class__ is int for e in expect):
            read = None
        elif all(e.__class__ is int for e in expect):
            read = itemgetter(*expect)
        else:   # constants and slots mixed: at least two values, a tuple
            read = partial(_read_args, tuple(expect))
        return (len(atom.args), itemgetter(*fixed) if fixed else None, _shaped(expect),
                read, tuple(same), tuple(bind), child, Plan._scan)

    def _pick(self, mask: int, j: int) -> tuple:
        """The step matching atom ``j`` after the atoms in ``mask``, scanned
        by ``_collapse`` when it binds a dead slot."""
        after = mask | 1 << j
        child = self._node(after) if after != (1 << len(self.atoms)) - 1 else None
        step = self._step(self.atoms[j], self._bound(mask), child)
        if self.keep is not None:
            later = {self.variables.index(v) for k, a in enumerate(self.atoms)
                     if not after >> k & 1 for v in a.variables()}
            bind = step[5]
            live = [idx for idx, s in bind if s < self.keep or s in later]
            if len(live) < len(bind):
                step = step[:7] + (Plan._collapse, itemgetter(*live) if live else None)
        self._nodes[mask][1][j] = step
        return step

    def run(self, interp: Interpretation, values, emit: Callable[[tuple], bool],
            below: Optional[int] = None) -> bool:
        """Call ``emit`` with the slot tuple of every match that extends
        the entry ``values``, over the facts numbered below ``below`` if
        given; a truthy return stops the search, and the result says
        whether it was stopped."""
        slots = list(values)
        slots += [None] * (len(self.variables) - len(slots))
        return self._scan(0, self.start or self._compile(), (_NO_FACT,), slots, emit,
                          interp._by_pred, interp._by_arg,
                          len if below is None else _counter(interp, below))

    def run_from(self, interp: Interpretation, fact: Atom,
                 emit: Callable[[tuple], bool], below: Optional[int] = None) -> bool:
        """``run`` with the seed atom matched to ``fact`` first."""
        step = self.start or self._compile()
        if len(fact.args) != step[0]:
            return False
        return self._scan(0, step, (fact,), [None] * len(self.variables), emit,
                          interp._by_pred, interp._by_arg,
                          len if below is None else _counter(interp, below))

    def _walk(self, mask: int, node: list, slots: list, emit, by_pred: dict,
              by_arg: dict, count) -> bool:
        """Pick the most constrained remaining atom and scan its candidates,
        the first ``count(list)`` facts of a list.  The interpretation's
        index dictionaries are read directly: this is the hot loop of every
        chase and every fixpoint."""
        lookups, steps = node
        best = None
        least = pick = 0
        for j, pred, spec in lookups:
            facts = by_pred.get(pred, _EMPTY)
            n = count(facts)
            for i, s, key in spec:
                lst = by_arg.get(key if s < 0 else (pred, i, slots[s]), _EMPTY)
                m = count(lst)
                if m < n:
                    facts, n = lst, m
            if not n:
                return False
            if best is None or n < least:
                best, least, pick = facts, n, j
        step = steps[pick] or self._pick(mask, pick)
        if least < len(best):
            best = best[:least]
        return step[7](self, mask | 1 << pick, step, best, slots, emit, by_pred, by_arg, count)

    def _scan(self, mask: int, step: tuple, facts, slots: list, emit, by_pred: dict,
              by_arg: dict, count) -> bool:
        """Match ``step``'s atom against each of ``facts`` and go on below."""
        _arity, get, expect, read, same, bind, child, _scan = step
        if read is not None:
            expect = read(slots)
        # a slot bound here is only read below this level, so backtracking
        # needs no undo: the next fact overwrites it
        for fact in facts:
            fa = fact.args
            if get is not None and get(fa) != expect:
                continue
            if same and any(fa[i] != fa[j] for i, j in same):
                continue
            for idx, s in bind:
                slots[s] = fa[idx]
            if child is None:
                if emit(tuple(slots)):
                    return True
            elif self._walk(mask, child, slots, emit, by_pred, by_arg, count):
                return True
        return False

    def _collapse(self, mask: int, step: tuple, facts, slots: list, emit, by_pred: dict,
                  by_arg: dict, count) -> bool:
        """``_scan`` for a step that binds a dead slot: a fact whose live
        bindings, those that ``live`` reads, repeat an earlier fact's is
        skipped, since below it the same matches would come again with only
        the dead slots changed.  Without live bindings the first fact that
        fits stands for all."""
        _arity, get, expect, read, same, bind, child, _collapse, live = step
        if read is not None:
            expect = read(slots)
        seen: set = set()
        for fact in facts:
            fa = fact.args
            if get is not None and get(fa) != expect:
                continue
            if same and any(fa[i] != fa[j] for i, j in same):
                continue
            if live is not None:
                key = live(fa)
                if key in seen:
                    continue
                seen.add(key)
            for idx, s in bind:
                slots[s] = fa[idx]
            if child is None:
                if emit(tuple(slots)):
                    return True
            elif self._walk(mask, child, slots, emit, by_pred, by_arg, count):
                return True
            if live is None:
                return False
        return False


def _counter(interp: Interpretation, below: int) -> Callable[[list], int]:
    """How a bounded run counts an index list: its facts numbered below
    ``below``."""
    number = interp._atoms.__getitem__

    def count(facts) -> int:
        if not facts or number(facts[-1]) < below:
            return len(facts)
        return bisect_left(facts, below, key=number)

    return count


def seeded_plans(body, variables, keep: Optional[int] = None) -> list:
    """One plan per body atom, seeded with that atom and matching the rest
    of the body around it, as ``(atom, plan)`` in body order; ``keep`` as
    in ``Plan``."""
    return [(atom, Plan(body[:k] + body[k + 1:], variables, seed=atom, keep=keep))
            for k, atom in enumerate(body)]


def slot_atoms(atoms, variables) -> tuple:
    """``atoms`` as ``(pred, args)`` pairs, where ``args(values)`` is the
    argument tuple under the values of the slots of ``variables``."""
    slot = {v: i for i, v in enumerate(variables)}
    return tuple((a.pred, _args_reader(tuple(slot.get(t, t) for t in a.args)))
                 for a in atoms)


def _args_reader(spec: tuple) -> Callable[[tuple], tuple]:
    if spec and all(s.__class__ is int for s in spec):
        # one position is read as a slice, to give a tuple like several
        return itemgetter(*spec) if len(spec) > 1 else itemgetter(slice(spec[0], spec[0] + 1))
    return partial(_read_args, spec)


def _read_args(spec: tuple, values: tuple) -> tuple:
    return tuple([values[s] if s.__class__ is int else s for s in spec])


def match_each(interp: Interpretation, atoms, binding: dict,
               callback: Callable[[dict], bool], reorder: bool = True) -> bool:
    """Invoke ``callback`` on every embedding of ``atoms`` extending
    ``binding``, with a plan compiled for this call; the dictionary passed
    to the callback is ``binding`` itself, extended in first-occurrence
    order, and must not be retained.  A truthy callback return stops the
    search; the function reports whether it was stopped."""
    atoms = tuple(atoms)
    free = tuple(v for v in atoms_variables(atoms) if v not in binding)
    n = len(binding)
    plan = Plan(atoms, tuple(binding) + free, n, reorder)

    def leaf(values: tuple) -> bool:
        binding.update(zip(free, values[n:]))
        return callback(binding)

    try:
        return plan.run(interp, binding.values(), leaf)
    finally:
        for v in free:
            binding.pop(v, None)


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


def head_satisfied(interp: Interpretation, head: Plan, values) -> bool:
    """Do the entry ``values`` of the plan ``head`` extend so that its atoms
    embed?  ``head`` is usually a rule's ``head_plan``, and ``values`` the
    frontier's values."""
    return head.run(interp, values, _found)


def unsatisfied_matches(interp: Interpretation, rules, new=None) -> Iterator[tuple]:
    """Every ``(rule, match)`` whose match embeds the rule's body but does
    not satisfy its head, rule by rule in the given order, each rule's
    matches in the order of its ``body_plan`` (that of ``find_matches``).
    Given the facts ``new``, only the matches that map some body atom onto
    one of them, found by the rule's ``seeded_plans``, in seed order; a
    match that uses several of them may come more than once.  A Datalog
    rule's seeded plans yield one match per dead-slot class: of the matches
    of one run that differ only in slots that no later atom reads, the
    first, whose frontier, and so whose head, is that of all of them.
    Heads are checked lazily."""
    if new is not None:
        new_of: dict = {}
        for fact in new:
            new_of.setdefault(fact.pred, []).append(fact)
    for rule in rules:
        found: list = []
        if new is None:
            rule.body_plan.run(interp, (), found.append)
        else:
            for atom, plan in rule.seeded_plans:
                for fact in new_of.get(atom.pred, ()):
                    plan.run_from(interp, fact, found.append)
        n = len(rule.frontier)
        for values in found:
            if not head_satisfied(interp, rule.head_plan, values[:n]):
                yield rule, dict(zip(rule.body_plan.variables, values))


def evaluate_bcq(interp: Interpretation, q: BCQ) -> bool:
    """Boolean conjunctive query entailment over one interpretation."""
    return match_each(interp, q.atoms, {}, _found)


def bcq_match(interp: Interpretation, q: BCQ) -> Optional[dict]:
    """The first embedding of the query's atoms, or None."""
    found: list = []

    def keep(binding: dict) -> bool:
        found.append(dict(binding))
        return True

    match_each(interp, q.atoms, {}, keep)
    return found[0] if found else None
