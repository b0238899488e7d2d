"""The standard (restricted) chase under a Datalog-first strategy.

Every rule application is one chase step, recorded in a trace together with
its match, its extension to fresh nulls, and the labelled provenance edges
``t -(y)-> n`` that connect a frontier value ``t`` to each null ``n``
created by the step.

A rule is applied only on an *unsatisfied* match: no extension of the match
embeds the head into the current interpretation.  An existential rule fires
only while no existential-free rule has an unsatisfied match (Datalog
first).  Fairness comes from per-rule FIFO match queues consumed round
robin; the seeded strategy instead draws the next candidate at random.

Candidates are found when a fact is added, and satisfaction is decided
when a candidate is popped, never when it is queued, so the queues and the
seeded draws do not depend on it.  For a Datalog rule the match grounds
the whole head, and the head is satisfied exactly when every ground head
atom is already a fact.  For an existential rule, satisfaction depends on
the frontier values alone and is decided by the rule's head plan, which
takes the whole match.  Every rule's joins are compiled once, on the rule
(see ``Tgd``), so a second chase of the same program compiles nothing.
The engine indexes the plans seeded with each body atom by the atom's
predicate once, with their entries (see ``matching``), so it enters the
compiled join of each plan directly for every new fact.  The facts a step
adds skip the ground test: a match holds values of ground facts, the rule
gives the constants, and the nulls are fresh.
Under the deterministic strategy, an existential rule with two or more
body atoms queues a cursor for the matches of a new fact rather than the
matches themselves, and the cursor yields them, over the facts of that
moment, only when the queue reaches it.  A capped chase thus holds what
it pops, not every match it finds, and its candidates and their order
are those of queueing every match at once (see ``_RuleQueue``).  A
seeded draw needs every pending match, so under that strategy every
queue takes its matches at once.

A Datalog queue takes a match only when no match with the same frontier
was queued earlier in the same chase: the engine hands one set of
frontiers per Datalog queue to every run of the rule's seeded plans, whose
last step drops a repeat before it is built (see ``matching``), and to
the queue's first fill.  That leaves every trace as it was.  The frontier
grounds the head, so a repeat grounds the same head as its earlier twin.
A Datalog queue is no strategy's to draw from, and its FIFO pops the twin
first, which is applied or found satisfied; facts are never removed, so
the repeat would only have been popped after it and found satisfied.  A
satisfied pop is no step, so the step cap falls where it fell.

A Datalog rule's seeded plan also skips whole runs, once per chase, by a
*seed memo* (see ``_Engine.index_seeded``), and that too leaves every
trace as it was.  A seed atom A may have a dead position: its variable
is not in the frontier, is in no other body atom and occurs once in A.
The *key* of a fact is its arguments at A's other positions, constants
and repeated variables included, so a fact that fails A's tests never
shares a key with one that passes them.  The run of a fact f whose key
an earlier fact f' brought is skipped when it would push nothing, which
holds by induction on the order of the runs, one per fact and seed,
skipped or not.  Take a match m of the skipped run.  Put f' in f's place
at A: since f' agrees with f wherever the key reads, this gives a twin
m' with m's frontier.  Suppose that, for each body atom whose fact in m'
is derived, the run of that fact for that atom has come already.  A
match of database facts alone came with the first fill.  Otherwise take
the latest of these runs, say of the fact g for the atom B.  When it
ran, every fact of m' was present, so it found m' or, by the collapse of
dead slots, a match with the same frontier; or it was skipped and, by
induction, that frontier was taken already.  So m's frontier is in the
queue's set, and the run of f would have pushed nothing.  The runs that
have not come yet are those of f for the body atoms after A and those of
the facts of f's step that are discovered after f.  So the run is made
after all when a later fact of the step has the predicate of another
body atom, or when f could match a later atom B along with A; with A and
B the whole body, that one match's frontier is tested instead.  Without
these two guards, the twin's frontier could be pushed later than the
skipped run would have pushed it, and a trace could move.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass, field
from functools import partial
from typing import Optional

from .matching import head_satisfied, unsatisfied_matches
from .model import Atom, Database, Interpretation, Null, Program, Tgd, Variable


@dataclass(frozen=True)
class Deterministic:
    pass


@dataclass(frozen=True)
class Seeded:
    seed: int


@dataclass(slots=True)
class ChaseStep:
    """One rule application, kept as the slots it was computed over.

    ``values`` is the match as its rule's queue held it, over the first
    slots of ``variables`` (the rule's ``step_variables``, shared by all
    its steps); ``created_nulls`` fill the existentials' slots.  The
    engines read the slots; ``match`` and ``extension`` are read-only
    dicts built from them on each read, for printing and reports.
    ``added`` is ``new_facts`` itself when every head atom was new.
    """

    index: int
    rule_id: int
    variables: tuple           # body variables, then existentials
    values: tuple              # body variables -> terms, by slot
    new_facts: tuple           # the instantiated head
    added: tuple               # head atoms that were actually new
    created_nulls: tuple       # existentials -> fresh nulls, by slot

    @property
    def match(self) -> dict:
        """Body variables -> terms."""
        return dict(zip(self.variables, self.values))

    @property
    def extension(self) -> dict:
        """The match plus existentials -> fresh nulls."""
        return dict(zip(self.variables, self.values + self.created_nulls))

    def line(self) -> str:
        bind = ", ".join(f"{v.name}={t}" for v, t in
                         sorted(self.match.items(), key=lambda kv: kv[0].name))
        new = ", ".join(str(a) for a in self.new_facts)
        return f"step {self.index}: rule {self.rule_id}, match {{{bind}}}, new {{{new}}}"

    def to_dict(self) -> dict:
        return {
            "index": self.index,
            "rule": self.rule_id,
            "match": {v.name: str(t) for v, t in self.match.items()},
            "extension": {v.name: str(t) for v, t in self.extension.items()},
            "newFacts": [str(a) for a in self.new_facts],
            "added": [str(a) for a in self.added],
            "createdNulls": [n.name for n in self.created_nulls],
        }


@dataclass
class ChaseTrace:
    program: Program
    database: tuple
    steps: list = field(default_factory=list)
    var_of_null: dict = field(default_factory=dict)
    chain_edges: list = field(default_factory=list)   # (term, frontier var, null)

    def lines(self) -> list:
        return [s.line() for s in self.steps]

    def to_dict(self) -> dict:
        return {
            "database": [str(a) for a in self.database],
            "steps": [s.to_dict() for s in self.steps],
            "chainEdges": [[str(t), y.name, n.name] for t, y, n in self.chain_edges],
        }

    def null_chain_edges(self) -> list:
        """The chain edges whose source is itself a null."""
        return [(t, y, n) for t, y, n in self.chain_edges if isinstance(t, Null)]

    def producers(self, atoms: list) -> list:
        """The index of the step that added each of ``atoms``, None for an
        atom no step added (a database atom); a step adds only atoms that
        are new."""
        producer = dict.fromkeys(atoms)
        for step in self.steps:
            for atom in step.added:
                if atom in producer:
                    producer[atom] = step.index
        return [producer[atom] for atom in atoms]


@dataclass
class ChaseResult:
    terminated: bool
    interpretation: Interpretation
    trace: ChaseTrace

    @property
    def steps(self) -> int:
        return len(self.trace.steps)


class _RuleQueue:
    """FIFO of discovered candidate matches for one rule, stored as value
    tuples over the slots of the rule's ``body_plan``: the frontier first,
    then the body-only variables, and, in a lazy queue, behind them a FIFO
    of ``cursors``.

    A cursor ``(plan, fact, below)`` stands for the matches that the new
    ``fact`` made: ``plan`` is the rule's body plan seeded with the body
    atom the fact matched, and ``below`` the interpretation's watermark
    taken when the fact was discovered.  The chase only adds facts, so the
    facts numbered below the watermark are exactly those present then, and
    ``plan.run_from(..., below)`` yields the matches an eager push would
    have queued then, in the same order.  ``fill`` materialises the oldest
    cursor into ``items``; every cursor is younger than every item, so the
    FIFO order is that of the eager queue.

    The engine makes a queue lazy only under the deterministic strategy,
    and only when its rule is existential and has two or more body atoms.
    That strategy fills from a cursor only when no item is left.  A seeded
    draw is over every pending match, so it would fill every cursor before
    each draw, and a cursor would only cost its watermark.  A Datalog
    queue is drained before the next existential step, so deferring its
    candidates saves nothing and costs a bisect per count; a single-atom
    body gives a cursor at most one match, which is cheaper queued at once.

    A Datalog queue is a FIFO under both strategies, and it takes no match
    whose frontier repeats that of a match queued earlier in the same
    chase: each would come after its twin and find its head already
    satisfied, so the trace does not change.

    An existential queue keeps its duplicates: what it holds and in which
    order decides the seeded strategy's draws, so it never depends on
    satisfaction.  Whether a popped candidate is already satisfied is
    decided when it is popped: a Datalog rule's by ``_Engine.run_datalog``,
    an existential rule's by ``head_satisfied``, whose False hands it out.
    """

    def __init__(self, rule: Tgd):
        self.rule = rule
        self.items: deque = deque()
        self.cursors: deque = deque()
        self.lazy = False            # set by the engine
        self.n_frontier = len(rule.frontier)

    def __len__(self) -> int:
        return len(self.items)

    def fill(self, interp: Interpretation) -> None:
        """Materialise the oldest cursor's matches into ``items``."""
        plan, fact, below = self.cursors.popleft()
        plan.run_from(interp, fact, self.items.append, below)

    def pop_at(self, offset: int) -> tuple:
        values = self.items[offset]
        del self.items[offset]
        return values


def _push_new(push, known: set, n: int, values: tuple) -> None:
    """``push`` the match ``values`` unless its frontier, its first ``n``
    values, is in ``known``; add it there."""
    front = values[:n]
    if front not in known:
        known.add(front)
        push(values)


# an Atom from the tuple (pred, args), without the Python frame of Atom()
_atom = partial(tuple.__new__, Atom)


class _Engine:
    def __init__(self, program: Program, database: Database,
                 strategy, max_steps: int):
        self.program = program
        self.interp = database.copy()
        self.max_steps = max_steps
        self.rng = random.Random(strategy.seed) if isinstance(strategy, Seeded) else None
        self.trace = ChaseTrace(program, tuple(database))
        self.null_counter = 0
        queues = [_RuleQueue(r) for r in program.rules]
        if self.rng is None:
            for q in queues:
                q.lazy = bool(q.rule.existentials) and len(q.rule.body) > 1
        self.datalog = [q for q in queues if q.rule.is_datalog]
        self.existential = [q for q in queues if not q.rule.is_datalog]
        self.rr = 0  # round-robin pointer over existential rules
        # a watermark per step only when a cursor needs it: the facts of one
        # step share its number, and without watermarks all facts share one
        self.lazy = any(q.lazy for q in queues)
        # predicate -> one entry per body atom of that predicate (see
        # ``index_seeded``); only a Datalog queue keeps its frontiers
        self.body_index: dict = {}
        for q in queues:
            known = set() if q.rule.is_datalog else None
            self.index_seeded(q, q.rule.seeded_plans, known)
            fill = q.items.append
            if known is not None:
                fill = partial(_push_new, fill, known, q.n_frontier)
            q.rule.body_plan.run(self.interp, (), fill)

    def index_seeded(self, q: _RuleQueue, plans, known: Optional[set]) -> None:
        """Index the seeded ``plans``, ``(atom, plan)`` pairs of ``q``'s
        rule in body order, under their seed's predicate as ``(start,
        slots, arity, push, known, plan, memo)``: the plan's start function
        and a slot list of its width, or two Nones for a lazy queue, which
        takes a cursor instead of the matches; the seed's arity; where the
        matches or cursors go; the set of frontiers the queue has taken, or
        None; the plan, for the cursors and because its compiled functions
        hold it only weakly; and the seed memo, or None.  Every run of a
        plan reuses its slot list (see ``Plan``).

        Given ``known``, a seed with a dead position (``Tgd.seed_keys``)
        gets a memo ``(key, preds, clash, seen)``: the rule's reader of a
        fact's key and its two guards, and ``seen``, the keys of the facts
        of this chase that came to the seed, a new set for each chase.
        ``discover`` skips the run of a fact whose key is in ``seen``,
        unless a later fact of its step has a predicate in ``preds`` or
        ``clash`` says that the fact could match a later body atom as well
        in a match whose frontier is not known.  The skipped run would
        have pushed nothing, by induction on the order of the runs: a
        match m of it has a twin m' with the earlier fact of the same key
        in the seed's place and the same frontier, and the latest of the
        runs of m''s facts for their atoms found m' or its frontier, or was
        itself skipped; the guards make sure those runs have all come
        before this one (see the module docstring)."""
        push = q.cursors.append if q.lazy else q.items.append
        keys = q.rule.seed_keys if known is not None else (None,) * len(plans)
        for (atom, plan), keyed in zip(plans, keys):
            start = slots = None
            if not q.lazy:
                start, width = plan.entry()
                slots = [None] * width
            memo = None if keyed is None else (*keyed, set())
            self.body_index.setdefault(atom.pred, []).append(
                (start, slots, len(atom.args), push, known, plan, memo))

    def discover(self, added: tuple, below: Optional[int]) -> None:
        """Enqueue every candidate match that involves one of the new facts
        ``added`` by a step, fact by fact, or, in a lazy queue, a cursor for
        them with the watermark ``below``.  Each plan is entered as
        ``Plan.run_from`` enters it, arity test and all, unless its memo
        skips the run."""
        pget = self.interp._pget
        aget = self.interp._aget
        index = self.body_index
        for i, fact in enumerate(added):
            args = fact.args
            arity = len(args)
            seed = (fact,)
            for start, slots, n, push, known, plan, memo in index.get(fact.pred, ()):
                if start is None:
                    push((plan, fact, below))
                elif n == arity:
                    if memo is not None:
                        read, preds, clash, seen = memo
                        key = read(args)
                        if key not in seen:
                            seen.add(key)
                        elif ((clash is None or not clash(args, known))
                              and (i + 1 == len(added)
                                   or preds.isdisjoint([g.pred for g in added[i + 1:]]))):
                            continue    # the run would push nothing
                    start(seed, slots, push, pget, aget, len, known)

    def fresh_null(self, step_index: int, var: Variable) -> Null:
        self.null_counter += 1
        return Null(self.null_counter, f"n{step_index}_{var.name}")

    def record(self, rule: Tgd, values: tuple, new_facts: tuple, created: tuple) -> None:
        """Add the ``new_facts`` of an application of ``rule`` to the match
        ``values`` with the fresh nulls ``created``, record the step, and
        discover the facts that were new."""
        insert = self.interp._insert     # ground facts (see the module docstring)
        added = tuple([a for a in new_facts if insert(a)])
        if len(added) == len(new_facts):
            added = new_facts
        steps = self.trace.steps
        steps.append(ChaseStep(len(steps) + 1, rule.rule_id, rule.step_variables, values,
                               new_facts, added, created))
        self.discover(added, self.interp.watermark() if self.lazy else None)

    def apply(self, q: _RuleQueue, values: tuple) -> None:
        """Apply the existential candidate ``values`` of ``q``'s rule."""
        rule = q.rule
        trace = self.trace
        index = len(trace.steps) + 1
        created = tuple([self.fresh_null(index, v) for v in rule.existentials])
        trace.var_of_null.update(zip(created, rule.existentials))
        slots = values + created
        for n in created:
            # the frontier's values are the first slots
            for t, y in zip(values, rule.frontier):
                trace.chain_edges.append((t, y, n))
        new_facts = tuple([_atom((pred, args(slots))) for pred, args in rule.head_slots])
        self.record(rule, values, new_facts, created)

    def run_datalog(self) -> Optional[ChaseResult]:
        """Apply unsatisfied Datalog matches until fixpoint (or the cap).
        A match grounds the whole head, so it is satisfied exactly when
        each ground atom of the rule's ``head_slots`` is already a fact.
        The test probes the interpretation's atoms with plain tuples; only
        an unsatisfied match builds its head's Atoms.  A Datalog step
        creates no null and draws no chain edge, so it skips ``apply``."""
        facts = self.interp._atoms
        steps = self.trace.steps
        progress = True
        while progress:
            progress = False
            for q in self.datalog:
                rule = q.rule
                head = rule.head_slots
                items = q.items
                while items:
                    values = items.popleft()
                    # an Atom is the tuple (pred, args), so the plain tuple finds it
                    for pred, args in head:
                        if (pred, args(values)) not in facts:
                            break
                    else:   # every head atom is a fact already
                        continue
                    if len(steps) >= self.max_steps:
                        return ChaseResult(False, self.interp, self.trace)
                    self.record(rule, values,
                                tuple([_atom((pred, args(values))) for pred, args in head]), ())
                    progress = True
        return None

    def pick_existential(self) -> Optional[tuple]:
        if self.rng is None:
            n = len(self.existential)
            for i in range(n):
                q = self.existential[(self.rr + i) % n]
                while q.items or q.cursors:
                    if not q.items:
                        q.fill(self.interp)
                        continue
                    values = q.items.popleft()
                    if not head_satisfied(self.interp, q.rule.head_plan, values):
                        self.rr = (self.rr + i + 1) % n
                        return q, values
            return None
        # Seeded: draw uniformly among all pending candidates, discarding
        # any that have become satisfied since they were enqueued; no queue
        # is lazy, so the draw sees them all.
        while True:
            pending = [q for q in self.existential if len(q)]
            total = sum(len(q) for q in pending)
            if not total:
                return None
            pick = self.rng.randrange(total)
            for q in pending:
                if pick < len(q):
                    values = q.pop_at(pick)
                    if not head_satisfied(self.interp, q.rule.head_plan, values):
                        return q, values
                    break
                pick -= len(q)

    def run(self) -> ChaseResult:
        while True:
            capped = self.run_datalog()
            if capped is not None:
                return capped
            choice = self.pick_existential()
            if choice is None:
                return ChaseResult(True, self.interp, self.trace)
            if len(self.trace.steps) >= self.max_steps:
                return ChaseResult(False, self.interp, self.trace)
            self.apply(*choice)


def chase(program: Program, database: Database, strategy=Deterministic(),
          max_steps: int = 100_000) -> ChaseResult:
    """Run the Datalog-first restricted chase up to ``max_steps`` applications.

    A ``terminated`` result is a model of the program over the database; a
    capped result signals *possible* nontermination, never a verdict.
    Raises ValueError for a negative ``max_steps``.
    """
    if max_steps < 0:
        raise ValueError("max_steps must not be negative")
    return _Engine(program, database, strategy, max_steps).run()


def validate_trace(program: Program, trace: ChaseTrace) -> None:
    """Replay a trace and verify every chase-step side condition.

    Checks, step by step over the step's slots and with the matcher only,
    never the chase's queues: that the match embeds the body, that it is
    not yet satisfied, and that an existential rule fires only when no
    Datalog rule has an unsatisfied match; then that fresh nulls were
    really fresh and that the new facts are exactly the instantiated head.
    The Datalog fixpoint is checked over every fact at the first
    existential step, and from then on only over the matches that use a
    fact added since the previous existential step's check: satisfaction
    only grows as facts are added, so the others still hold, and no
    Datalog body is joined over the whole interpretation more than once.
    Raises AssertionError on the first violation, also under ``python -O``.
    """
    interp = Interpretation(trace.database)
    seen_nulls: set = set()
    new = None     # facts added since the last existential step's check
    for step in trace.steps:
        rule = program.rule(step.rule_id)
        values = step.values
        # an Atom is the tuple (pred, args), so the plain tuple finds it
        if any((pred, args(values)) not in interp for pred, args in rule.body_slots):
            raise AssertionError(f"step {step.index}: match does not embed the body")
        if head_satisfied(interp, rule.head_plan, values):
            raise AssertionError(f"step {step.index}: match was already satisfied")
        if rule.existentials:
            for dl, _values in unsatisfied_matches(interp, program.datalog_rules(), new):
                raise AssertionError(
                    f"step {step.index}: Datalog rule {dl.rule_id} was not at fixpoint")
        for n in step.created_nulls:
            if not isinstance(n, Null) or n in seen_nulls:
                raise AssertionError(f"step {step.index}: null {n} is not fresh")
            seen_nulls.add(n)
        slots = values + step.created_nulls
        if step.new_facts != tuple(Atom(pred, args(slots)) for pred, args in rule.head_slots):
            raise AssertionError(f"step {step.index}: head mismatch")
        if rule.existentials:
            new = []
        for atom in step.new_facts:
            if interp.add(atom) and new is not None:
                new.append(atom)
