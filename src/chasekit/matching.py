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
``model.Tgd.seeded_plans``).  A caller may also hand a run a set of the
kept slots it has already taken, and the last step then drops those too,
over as many runs as share the set (see ``Plan``).

What is planned is compiled to Python functions, as query compilers
compile their plans: a *node* function per set of matched atoms, which
makes the index lookups of the remaining atoms and calls the step of the
atom it picks, and a *step* function per atom picked there, which scans
the candidate facts with every test and binding inlined and calls the
next node, or emits the match after the last atom.  Their source text is
made of slot numbers, argument positions and fixed local names only:
every predicate, constant, index key and next function reaches a
function through its own globals dictionary, so no text of a program
ever becomes code, and programs that differ only in their predicates and
constants share their code objects.  Each distinct source text is
compiled once per process (``_CODE``).  A function's globals hold only
what it calls, never the function itself or its plan, so a plan holds no
reference cycle and is freed as soon as its last user drops it.

A run enters a plan at its *entry* (``Plan.entry``): the first function
of a run, compiled on first use, and the number of slots it binds.
``Plan.run`` and ``Plan.run_from`` look it up on every run.  The loops
that run plans once per fact, the chase's discovery and
``datalog.saturate``, look it up once, when they index the plans, and call
the function directly, testing the fact's arity as ``run_from`` does;
``head_satisfied`` enters the head plan without ``Plan.run``.

A rule compiles its own plans once (see ``model.Tgd``), and every engine
that applies it runs those.  ``match_each`` and the functions built on it
compile a plan per call, for queries and other joins that no rule holds,
and bind into dictionaries keyed by variable.
"""

from __future__ import annotations

import weakref
from bisect import bisect_left
from functools import partial
from operator import itemgetter
from types import CodeType, FunctionType
from typing import Callable, Iterator, Optional

from .model import Atom, BCQ, Interpretation, Variable, atoms_variables

# the arguments every node function takes; a step takes its facts first
_ARGS = "slots, emit, pget, aget, count, known"
# source text -> its function's code object, shared by every plan
_CODE: dict = {}


def _found(_values) -> bool:
    return True


def _function(lines: list, names: dict) -> FunctionType:
    """The function ``lines`` define, with ``names`` as its globals.  Its
    code object is compiled on the first use of its source text, under a
    file name of its own, since a profiler merges the functions that share
    a file, a line and a name."""
    source = "\n    ".join(lines) + "\n"
    code = _CODE.get(source)
    if code is None:
        module = compile(source, f"<{__name__} {len(_CODE)}>", "exec")
        code = _CODE[source] = next(c for c in module.co_consts if isinstance(c, CodeType))
    names["__name__"] = __name__
    return FunctionType(code, names)


def _lazy(plan_ref, mask: int, j: int, *args) -> bool:
    """Stand-in for the step of atom ``j`` after the atoms in ``mask``
    until its first call, which compiles the step in its place and runs
    it.  The plan is held weakly: its functions must not keep it alive."""
    return plan_ref()._pick(mask, j)(*args)


class Plan:
    """A join of ``atoms`` compiled over the slots of ``variables``.

    The first ``n_bound`` variables are bound on entry.  With a ``seed``
    atom, ``run_from`` first matches the seed against one fact and then the
    atoms around it.  ``variables`` holds every variable of the atoms, the
    seed and the entry.  Nothing is compiled before the first run, so a
    plan that never runs costs little.

    ``run_from`` may take a bound ``below`` from ``Interpretation.watermark``:
    it then joins only the facts numbered below it, the facts present when
    the watermark was taken, and picks the most constrained atom by how
    many facts of each list lie below it.  Index lists are sorted by
    number, so those facts are a prefix, counted by a bisect that a list
    wholly below the bound skips.  A bounded run therefore finds exactly
    the matches, in exactly the order, that an unbounded run found then.

    With ``keep``, a run may drop a match whose first ``keep`` slots equal
    those of an earlier match of the same run (see the module docstring);
    without it, every match comes.  A ``keep`` plan's ``run_from`` may also
    take a set ``known`` at run time, which the plan never holds: a match
    whose first ``keep`` slots, as a tuple, are in it is dropped, and each
    match that comes adds its own.  So a caller that passes one set to
    every run of a rule's plans gets each such key at most once over all
    of them, and a repeat costs one probe of the set and no tuple of the
    match.  Without a set, a run yields exactly the matches it yields
    otherwise.

    ``start`` is the function a run calls first: the seed's step, or the
    node of no matched atoms.  ``entry()`` returns it, compiled on the
    first call, with the slot width; ``run`` calls ``start(slots, ...)``
    and ``run_from`` ``start((fact,), slots, ...)``.  A caller that keeps
    ``start`` keeps the plan too, since the plan's functions hold it only
    weakly.  A run reads only the slots bound on entry or bound by itself,
    and hands out copies, so runs that do not nest may share one slot
    list, as the chase's do.

    A node, compiled on the first visit of a set ``mask`` of matched atoms
    and kept in ``_nodes``, is called as ``node(slots, emit, pget, aget,
    count, known)``, where ``pget`` and
    ``aget`` read the interpretation's predicate and argument indexes,
    ``count(list)`` is how many of a list's first facts are joined and
    ``known`` is the set or None, read only by a ``keep`` plan.  For
    every remaining atom in turn (only the first without reordering), it
    looks up the predicate's list and then each fixed position's, keeps
    the shortest, and returns False at once when that is empty; the first shortest over the atoms wins, and its step is called
    with that list's first ``count`` facts.  Until its first call, a step
    is the stand-in ``_lazy``.  A step, called as ``step(facts, ...)``,
    compares each fact's fixed positions with their constants or bound
    slots and its repeated positions with each other, binds the new slots,
    and calls the next node, or after the last atom emits ``tuple(slots)``.
    A step that binds a dead slot keeps a set of the live bindings it has
    passed on and skips a fact that repeats one; with no live binding, it
    stops after the first fact that fits.  The last step of a ``keep`` plan
    checks ``known``, when it is a set, after its bindings.
    """

    __slots__ = ("atoms", "variables", "n_bound", "reorder", "seed", "keep", "start",
                 "_entry", "_nodes", "__weakref__")

    def __init__(self, atoms, variables, n_bound: int = 0, reorder: bool = True,
                 seed: Optional[Atom] = None, keep: Optional[int] = None):
        self.atoms = tuple(atoms)
        self.variables = variables
        self.n_bound = n_bound
        self.reorder = reorder
        self.seed = seed
        self.keep = keep
        self.start = None
        self._entry = None

    def _compile(self) -> tuple:
        """The plan's entry, with ``start`` the first function of a run:
        the seed's step, or the root node."""
        self._nodes = {}
        if self.seed is None:
            self.start = self._node(0)
        else:
            self.start = self._step(self.seed, range(self.n_bound),
                                    self._node(0) if self.atoms else None)
        self._entry = (self.start, len(self.variables))
        return self._entry

    def entry(self) -> tuple:
        """``(start, width)``: the function a run calls first, compiled on
        the first call, and the number of slots a run binds.  A caller that
        runs the plan once per fact looks the entry up once and calls
        ``start`` as ``run`` and ``run_from`` do."""
        return self._entry or self._compile()

    def _bound(self, mask: int) -> set:
        """The slots bound once the atoms in ``mask`` are matched."""
        matched = [a for j, a in enumerate(self.atoms) if mask >> j & 1]
        if self.seed is not None:
            matched.append(self.seed)
        return set(range(self.n_bound)).union(
            *([self.variables.index(v) for v in a.variables()] for a in matched))

    def _node(self, mask: int) -> FunctionType:
        node = self._nodes.get(mask)
        if node is not None:
            return node
        bound = self._bound(mask)
        remaining = [j for j in range(len(self.atoms)) if not mask >> j & 1]
        if not self.reorder:
            remaining = remaining[:1]
        me = weakref.ref(self)
        names: dict = {}
        lines = [f"def node({_ARGS}):"]
        for k, j in enumerate(remaining):
            atom = self.atoms[j]
            names[f"p{k}"] = atom.pred
            names[f"s{k}"] = partial(_lazy, me, mask, j)
            lines += [f"facts = pget(p{k}, ())", "n = count(facts)"]
            for i, t in enumerate(atom.args):
                if not isinstance(t, Variable):
                    key = f"k{k}_{i}"
                    names[key] = (atom.pred, i, t)
                elif self.variables.index(t) in bound:
                    key = f"(p{k}, {i}, slots[{self.variables.index(t)}])"
                else:
                    continue
                lines += [f"lst = aget({key}, ())", "m = count(lst)",
                          "if m < n:", "    facts = lst", "    n = m"]
            lines += ["if not n:", "    return False"]
            if len(remaining) == 1:
                lines += ["if n < len(facts):", "    facts = facts[:n]",
                          f"return s0(facts, {_ARGS})"]
            elif k == 0:
                lines += ["best = facts", "least = n", "step = s0"]
            else:
                lines += ["if n < least:", "    best = facts", "    least = n",
                          f"    step = s{k}"]
        if not remaining:     # a plan without atoms: one match, of the entry
            lines += ["return True if emit(tuple(slots)) else False"]
        elif len(remaining) > 1:
            lines += ["if least < len(best):", "    best = best[:least]",
                      f"return step(best, {_ARGS})"]
        node = self._nodes[mask] = _function(lines, names)
        return node

    def _step(self, atom: Atom, bound, child, dead=()) -> FunctionType:
        """The step matching ``atom`` when the slots ``bound`` are bound,
        going on to the node ``child``, or emitting when it is None; a
        step that binds a slot in ``dead`` collapses its scan.  The last
        step of a ``keep`` plan emits a match only if its frontier, the
        first ``keep`` slots, is not in the run's set ``known``, and adds it
        there; a frontier bound before this step is that of every fact that
        fits, so the first repeat ends the scan."""
        names: dict = {"child": child}
        reads, tests, binds, live = [], [], [], []
        first: dict = {}
        for i, t in enumerate(atom.args):
            if not isinstance(t, Variable):
                names[f"c{i}"] = t
                tests.append(f"fa[{i}] != c{i}")
                continue
            s = self.variables.index(t)
            if s in bound:
                reads.append(f"e{i} = slots[{s}]")
                tests.append(f"fa[{i}] != e{i}")
            elif s in first:
                tests.append(f"fa[{i}] != fa[{first[s]}]")
            else:
                first[s] = i
                binds.append(f"    slots[{s}] = fa[{i}]")
                if s not in dead:
                    live.append(f"fa[{i}]")
        collapse = len(live) < len(binds)
        lines = [f"def step(facts, {_ARGS}):", *reads]
        if collapse and live:
            lines.append("seen = set()")
        lines += ["for fact in facts:", "    fa = fact.args"]
        if tests:
            lines += [f"    if {' or '.join(tests)}:", "        continue"]
        if collapse and live:
            lines += [f"    key = {live[0] if len(live) == 1 else '(' + ', '.join(live) + ')'}",
                      "    if key in seen:", "        continue", "    seen.add(key)"]
        # a slot bound here is only read below this level, so backtracking
        # needs no undo: the next fact overwrites it
        lines += binds
        if child is not None:
            lines.append(f"    if child({_ARGS}):")
        else:
            if self.keep is not None:
                front = "(" + "".join(f"slots[{s}], " for s in range(self.keep)) + ")"
                miss = "continue" if any(s < self.keep for s in first) else "return False"
                lines += ["    if known is not None:", f"        front = {front}",
                          "        if front in known:", f"            {miss}",
                          "        known.add(front)"]
            lines.append("    if emit(tuple(slots)):")
        lines.append("        return True")
        if collapse and not live:
            lines.append("    return False")
        lines.append("return False")
        return _function(lines, names)

    def _pick(self, mask: int, j: int) -> FunctionType:
        """The step matching atom ``j`` after the atoms in ``mask``, put in
        the place of its stand-in in the node of ``mask``."""
        after = mask | 1 << j
        child = self._node(after) if after != (1 << len(self.atoms)) - 1 else None
        dead = ()
        if self.keep is not None:
            later = {self.variables.index(v) for k, a in enumerate(self.atoms)
                     if not after >> k & 1 for v in a.variables()}
            dead = set(range(self.keep, len(self.variables))) - later
        step = self._step(self.atoms[j], self._bound(mask), child, dead)
        k = sum(1 for i in range(j) if not mask >> i & 1)
        self._nodes[mask].__globals__[f"s{k}"] = step
        return step

    def run(self, interp: Interpretation, values, emit: Callable[[tuple], bool]) -> bool:
        """Call ``emit`` with the slot tuple of every match that extends
        the entry ``values``; a truthy return stops the search, and the
        result says whether it was stopped."""
        start, width = self.entry()
        slots = list(values)
        slots += [None] * (width - len(slots))
        return start(slots, emit, interp._pget, interp._aget, len, None)

    def run_from(self, interp: Interpretation, fact: Atom,
                 emit: Callable[[tuple], bool], below: Optional[int] = None,
                 known: Optional[set] = None) -> bool:
        """``run`` with the seed atom matched to ``fact`` first, over the
        facts numbered below ``below`` if given; a ``keep`` plan skips the
        matches whose first ``keep`` slots are in the set ``known`` and
        adds those of the matches it emits."""
        start, width = self.entry()
        if len(fact.args) != len(self.seed.args):
            return False
        count = len if below is None else _counter(interp, below)
        return start((fact,), [None] * width, emit, interp._pget, interp._aget, count, known)


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


def seed_keys(body, variables, keep: int) -> tuple:
    """For each body atom, in body order, how a caller of the ``keep``
    plans of ``seeded_plans`` can tell two seed facts apart, or None when
    the atom has no *dead* position (one whose variable is not kept, is in
    no other body atom and occurs once in the atom) or the body has no
    other atom, so that a run reads only the seed fact.  Otherwise ``(key,
    preds, clash)``.  ``key`` reads a fact's arguments at every other
    position, constants and repeated variables included, so two facts with
    one key either both fail the atom or both match it, binding alike
    every slot that a run reads.  ``preds`` holds the predicates of the
    other body atoms.  ``clash(args, known)``, or None when no later body
    atom has the seed's predicate and arity, says whether a fact with the
    arguments ``args`` could match a later atom too, in a match that uses
    it for both: with no third atom in the body, only if that one match's
    kept slots, as a tuple, are not in the set ``known``.  It is compiled
    as a plan's steps are, from positions and fixed names only."""
    kept = set(variables[:keep])
    out = []
    for k, atom in enumerate(body):
        args = atom.args
        rest = body[:k] + body[k + 1:]
        read = kept.union(*(a.variables() for a in rest))
        live = [i for i, t in enumerate(args)
                if not isinstance(t, Variable) or t in read or args.count(t) > 1]
        if len(live) == len(args) or len(body) == 1:
            out.append(None)
            continue
        names: dict = {}
        lines = ["def clash(args, known):"]
        for other in body[k + 1:]:
            if other.pred != atom.pred or len(other.args) != len(args):
                continue
            first: dict = {}
            tests = []
            for i, t in (*enumerate(args), *enumerate(other.args)):
                if not isinstance(t, Variable):
                    name = f"c{len(names)}"
                    names[name] = t
                    tests.append(f"args[{i}] == {name}")
                elif t not in first:
                    first[t] = i
                elif first[t] != i:
                    tests.append(f"args[{first[t]}] == args[{i}]")
            if len(body) == 2:
                front = "".join(f"args[{first[v]}], " for v in variables[:keep])
                tests.append(f"({front}) not in known")
            lines += [f"if {' and '.join(tests) or 'True'}:", "    return True"]
        clash = _function(lines + ["return False"], names) if len(lines) > 1 else None
        # a lone live position is read as the term itself
        out.append((itemgetter(*live) if live else itemgetter(slice(0, 0)),
                    frozenset(a.pred for a in rest), clash))
    return tuple(out)


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
    embed?  ``head`` is usually a rule's ``head_plan``, and ``values`` a
    whole match of the rule's body.  It calls the plan's entry as
    ``Plan.run`` does, without that frame: the chase checks a head for
    every existential candidate it pops."""
    start, width = head.entry()
    slots = list(values)
    slots += [None] * (width - len(slots))
    return start(slots, _found, interp._pget, interp._aget, len, None)


def unsatisfied_matches(interp: Interpretation, rules, new=None) -> Iterator[tuple]:
    """Every ``(rule, values)`` whose match embeds the rule's body but does
    not satisfy its head, the match as the tuple of its values over the
    slots of ``rule.body_plan.variables``, rule by rule in the given order,
    each rule's matches in the order of its ``body_plan`` (that of
    ``find_matches``).
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
        for values in found:
            if not head_satisfied(interp, rule.head_plan, values):
                yield rule, values


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
