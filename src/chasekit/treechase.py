"""Space-bounded nondeterministic chase for Boolean query entailment.

The runner keeps, besides the fact set ``I``, a stack ``T`` of term sets
that mirrors one root-to-leaf path of the term tree: certificate-rule
applications push a new set, other applications extend the last one, and
facts are discarded as soon as they mention a popped term.  After each of
the ``|q|`` outer rounds the stack collapses into its root.

The fact set is updated in place, which rests on one invariant: every
term of every fact is live, that is, in some layer of the stack.  Layers
are disjoint, and the frontier terms of a step are never popped (popping
stops at the first layer that holds one), so the head facts of a step are
over live terms.  A pop therefore deletes exactly the facts that mention a
popped term, which are the facts a filter of the whole set over the live
terms would drop, and the survivors keep their order.

The nondeterminism lives in two drivers, which choose the steps:

* the *guided* driver replays one full-chase derivation of a query match,
  scheduling for every producing step the tasks that rebuild the needed
  path bottom-up (children before parents, shallow before deep), listed
  by one walk over the tasks, with no tree of them built;
* the *search* driver explores every run up to an inner bound, for tiny
  instances only.

The guided driver drops each part of the reference chase once it has
read it: the model's indexes after ``bcq_match``; the term tree, the task
builder and all of the trace but its steps once the schedules are listed;
the steps and the model's fact table (``Interpretation._atoms``, which
the replay only probes) when it returns.  A ``GuidedResult`` keeps only
the reference's size.

A step is a rule and the values of its match over the slots of the
rule's ``body_plan``, the form in which the chase records it and
``unsatisfied_matches`` lists it.  The driver that chooses a step checks
it, and ``TreeChaseRun.apply`` only executes: the guided replay checks
each translated step against the rule's ``body_slots`` and ``head_plan``,
and the search applies only the unsatisfied matches it has just listed.
"""

from __future__ import annotations

import bisect
import itertools
from dataclasses import dataclass, field
from functools import partial
from typing import Iterable, Optional

from .arboreal import ArboreousInfo, InvariantViolation, TermTree, build_term_tree
from .chase import ChaseTrace, Deterministic, chase
from .matching import bcq_match, evaluate_bcq, head_satisfied, unsatisfied_matches
from .model import (Atom, BCQ, Constant, Database, Null,
                    Program, Term, Tgd, Variable, substitute)


# runner nulls are numbered from here, apart from the reference chase's nulls
_NULL_NAMESPACE = 1_000_000_000
# tasks one TaskTreeBuilder may schedule before it gives up
_TASK_NODE_CAP = 500_000


class ReplayDivergence(Exception):
    """A scheduled step could not be replayed; signals an analyzer defect."""


class ReferenceCapExceeded(RuntimeError):
    """The guided engine's reference chase hit its step cap: no verdict."""


@dataclass
class SpaceProfile:
    max_atoms: int = 0
    max_stack: int = 0
    max_terms: int = 0
    max_live_nulls: int = 0
    inner_steps: list = field(default_factory=list)

    def to_dict(self) -> dict:
        return {"maxAtoms": self.max_atoms, "maxStack": self.max_stack,
                "maxTerms": self.max_terms, "maxLiveNulls": self.max_live_nulls,
                "innerSteps": list(self.inner_steps)}


class TreeChaseRun:
    """One run of the bounded chase, driven by the guided replay or the
    search; ``apply`` executes steps, given as slot tuples, that its
    driver has checked.

    ``interp`` changes in place (see the module docstring); ``snapshot``
    and ``restore`` save and bring back the facts, the stack and the step
    counts, for a search.
    """

    def __init__(self, program: Program, database: Database, v_ehat: Iterable[Variable]):
        self.v_ehat = set(v_ehat)
        self.interp = database.copy()
        constants = list(dict.fromkeys(
            itertools.chain(program.constants(),
                            (t for t in database.terms()))))
        self.stack: list = [set(constants)]
        # the root keeps every constant for good; every other live term is a null
        self._constants = len(constants)
        self.null_counter = itertools.count(_NULL_NAMESPACE)
        self.profile = SpaceProfile()
        self.profile.inner_steps.append(0)
        self.popped: list = []       # terms the last step popped
        self.added: list = []        # facts the last step added
        self._observe()

    # -- state inspection ---------------------------------------------------

    def live_terms(self) -> set:
        out: set = set()
        for layer in self.stack:
            out |= layer
        return out

    def _observe(self) -> None:
        p = self.profile
        p.max_atoms = max(p.max_atoms, len(self.interp))
        p.max_stack = max(p.max_stack, len(self.stack))
        live = sum(map(len, self.stack))     # the layers are disjoint
        p.max_terms = max(p.max_terms, live)
        p.max_live_nulls = max(p.max_live_nulls, live - self._constants)

    # -- transitions ----------------------------------------------------------

    def apply(self, rule: Tgd, values: tuple) -> tuple:
        """Execute one rule application at the match ``values``, over the
        slots of ``rule.body_plan``; returns the fresh nulls, in the order
        of ``rule.existentials``.

        Precondition, not checked here: the match embeds the body and does
        not satisfy the head.  The fact set changes in place: the facts that
        mention a popped term go, the head facts that are new come last.
        ``popped`` and ``added`` then hold the terms and facts this step
        removed and added.
        """
        frontier_terms = set(values[:len(rule.frontier)])
        self.popped = []
        while len(self.stack) > 1 and frontier_terms.isdisjoint(self.stack[-1]):
            self.popped.extend(self.stack.pop())
        if self.popped:
            self.interp.discard_terms(self.popped)
        fresh = []
        for v in rule.existentials:
            nid = next(self.null_counter)
            fresh.append(Null(nid, f"m{nid}_{v.name}"))
        fresh = tuple(fresh)
        if self.v_ehat & set(rule.existentials):
            self.stack.append(set(fresh))
        else:
            self.stack[-1] |= set(fresh)
        self.added = []
        slots = values + fresh
        for pred, args in rule.head_slots:
            fact = Atom(pred, args(slots))
            if self.interp.add(fact):
                self.added.append(fact)
        self.profile.inner_steps[-1] += 1
        self._observe()
        return fresh

    def break_iteration(self) -> None:
        self.stack = [self.live_terms()]
        self.profile.inner_steps.append(0)
        self._observe()

    def holds(self, q: BCQ) -> bool:
        return evaluate_bcq(self.interp, q)

    def snapshot(self) -> tuple:
        """The state that ``restore`` brings back: facts, stack, step counts."""
        return (self.interp.copy(), [set(layer) for layer in self.stack],
                list(self.profile.inner_steps))

    def restore(self, state: tuple) -> None:
        """Continue from ``state``, which is taken over, not copied: a
        snapshot is restored at most once."""
        self.interp, self.stack, self.profile.inner_steps = state


# ---------------------------------------------------------------------------
# Task schedules
# ---------------------------------------------------------------------------

class _BodyPaths(dict):
    """Step index -> ``tree.path_of_terms`` of the step's values, each
    computed on its first read; step ``i`` is ``steps[i - 1]``."""

    def __init__(self, steps: list, tree: TermTree):
        super().__init__()
        self._steps = steps
        self._tree = tree

    def __missing__(self, index: int) -> tuple:
        path = self[index] = self._tree.path_of_terms(self._steps[index - 1].values)
        return path


class TaskTreeBuilder:
    """Derives, for a chase step, the schedule that rebuilds its inputs.

    A task (d, i) assumes everything expressible over the first d-1 nodes
    of step i's body path is present; its subtasks pick, per depth >= d,
    the latest earlier step that produced an atom exactly that deep on the
    same path.  A schedule lists the steps of a task's tree in post-order:
    every task after its subtasks, shallower subtasks first.

    ``atom_steps`` is built over every step; ``body_path``, step index ->
    the root path of the step's body terms, computes a step's path on its
    first read, so a schedule pays only for the steps it visits.
    """

    def __init__(self, trace: ChaseTrace, tree: TermTree):
        self.nodes_made = 0
        self.atom_steps: dict = {}    # root path -> ascending step indices
        self.body_path = _BodyPaths(trace.steps, tree)
        for step in trace.steps:
            for atom in step.added:
                lst = self.atom_steps.setdefault(tree.path_of_atom(atom), [])
                if not lst or lst[-1] != step.index:
                    lst.append(step.index)

    def _latest_before(self, path: tuple, limit: int) -> Optional[int]:
        lst = self.atom_steps.get(path)
        if not lst:
            return None
        pos = bisect.bisect_left(lst, limit)
        return lst[pos - 1] if pos else None

    def schedule(self, depth: int, step: int) -> list:
        """The steps of the task (depth, step) and of all its subtasks.

        One walk over an explicit stack visits each task before its
        subtasks, the deepest subtask first, so it lists the schedule
        reversed.  Every task counts against ``_TASK_NODE_CAP``."""
        out: list = []
        pending = [(depth, step)]
        while pending:
            d, i = pending.pop()
            self.nodes_made += 1
            if self.nodes_made > _TASK_NODE_CAP:
                raise InvariantViolation("task tree exceeds the node cap")
            out.append(i)
            path = self.body_path[i]
            for e in range(d, len(path) + 1):
                j = self._latest_before(path[:e], i)
                if j is not None:
                    pending.append((e, j))
        out.reverse()
        return out


# ---------------------------------------------------------------------------
# Guided replay
# ---------------------------------------------------------------------------

@dataclass
class GuidedResult:
    """A guided answer: its verdict, the run's space profile, the length
    of each query atom's schedule (``m_bound`` is the longest), the steps
    replayed and skipped, and the counts of the reference chase's steps
    and facts.  It keeps no part of the reference chase, which
    ``tree_chase_guided`` drops before it returns."""
    entailed: bool
    profile: SpaceProfile
    m_bound: int
    schedule_lengths: tuple
    replayed_steps: int
    skipped_steps: int
    reference_steps: int
    reference_facts: int


class _GuidedReplayer:
    """Replays reference steps in the runner and checks, after each one, that
    ``tau`` (runner null -> reference null, identity elsewhere) is injective
    on the live terms and maps every fact into the reference chase.  Of the
    reference it holds the trace's ``steps`` and the model's ``facts``, any
    container of its atoms.

    Both checks look only at what the step added.  ``tau`` gains entries
    for fresh nulls and loses those of popped nulls, which never come back,
    and with them go the facts that mention them.  The reference is fixed,
    so a live fact that mapped into the reference once still does, and two
    live terms that had distinct images still have them.  Hence only the
    added facts need the homomorphism check, and only the new nulls the
    injectivity check, against ``inv``: the inverse of ``tau`` on the live
    terms, which gains the new nulls and loses the popped terms.  So
    ``tau`` holds the live nulls only.  ``check_homomorphism()`` and
    ``inverse_on_live()`` are the full checks, over the whole state.

    A step whose translated body does not embed is a divergence, one whose
    head holds is skipped.  Replay is not held to Datalog-first: it
    interleaves rebuilds of sibling branches, so pending existential-free
    matches can appear at moments the reference chase never saw, and
    applying them would prune the very path the schedule is building.
    Soundness and the space bound do not depend on that order.
    """

    def __init__(self, program: Program, steps: list, facts,
                 info: ArboreousInfo, database: Database):
        self.program = program
        self.steps = steps
        self.facts = facts
        self.run = TreeChaseRun(program, database, info.v_ehat)
        self.tau: dict = {}          # runner null -> chase null
        self.skipped = 0
        self.replayed = 0
        self.check_homomorphism()
        self.inv = self.inverse_on_live()    # chase term -> live runner term

    def to_chase(self, t: Term) -> Term:
        return self.tau.get(t, t)

    def inverse_on_live(self) -> dict:
        """The inverse of the map on all live terms, built afresh."""
        inv: dict = {}
        for t in self.run.live_terms():
            self._admit(inv, t)
        return inv

    def _admit(self, inv: dict, t: Term) -> None:
        image = self.to_chase(t)
        if image in inv:
            raise InvariantViolation(
                f"map to the reference chase is not injective on live terms "
                f"({image} has two preimages)")
        inv[image] = t

    def check_homomorphism(self, facts: Optional[Iterable[Atom]] = None) -> None:
        """Every fact, or every one of ``facts``, maps into the reference."""
        ref = self.facts
        for atom in self.run.interp if facts is None else facts:
            image = Atom(atom.pred, tuple(self.to_chase(t) for t in atom.args))
            if image not in ref:
                raise InvariantViolation(f"{atom} maps outside the reference chase")

    def replay_step(self, step_index: int) -> None:
        step = self.steps[step_index - 1]
        rule = self.program.rule(step.rule_id)
        try:
            values = tuple([image if isinstance(image, Constant) else self.inv[image]
                            for image in step.values])
        except KeyError as missing:
            raise ReplayDivergence(f"step {step_index}: body term {missing.args[0]} "
                                   f"has no live preimage") from None
        if any((pred, args(values)) not in self.run.interp for pred, args in rule.body_slots):
            raise ReplayDivergence(f"step {step_index}: body atom missing after translation")
        if head_satisfied(self.run.interp, rule.head_plan, values):
            self.skipped += 1
            return
        fresh = self.run.apply(rule, values)
        self.replayed += 1
        for t in self.run.popped:
            del self.inv[self.tau.pop(t, t)]
        for n, image in zip(fresh, step.created_nulls):
            self.tau[n] = image
            self._admit(self.inv, n)
        self.check_homomorphism(self.run.added)


def _producers(steps: list, atoms: list) -> list:
    """The index of the step that added each of ``atoms``, None for an atom
    no step added (a database atom); a step adds only atoms that are new."""
    producer = dict.fromkeys(atoms)
    for step in steps:
        for atom in step.added:
            if atom in producer:
                producer[atom] = step.index
    return [producer[atom] for atom in atoms]


def tree_chase_guided(program: Program, database: Database, q: BCQ,
                      info: ArboreousInfo, chase_cap: int = 100_000) -> GuidedResult:
    """Answer ``q`` by replaying task-tree schedules inside the bounded run.

    The terminating full chase acts as the reference: a negative answer
    needs no replay, a positive one is rebuilt path-locally and must come
    out true again.  The reference is released part by part: the model's
    indexes once ``bcq_match`` has read them, the term tree, the task
    builder and all of the trace but its steps once the schedules are
    listed, and the steps and the fact table when this call returns.  The
    result keeps only the reference's size.
    """
    if not info.arboreous:
        raise ValueError("guided tree chase requires an arboreous program")
    reference = chase(program, database, Deterministic(), chase_cap)
    if not reference.terminated:
        raise ReferenceCapExceeded("reference chase hit the step cap")
    theta = bcq_match(reference.interpretation, q)
    trace, facts = reference.trace, reference.interpretation._atoms
    sizes = (len(trace.steps), len(facts))
    del reference       # and with it the model's indexes
    replayer = _GuidedReplayer(program, trace.steps, facts, info, database)
    if theta is None:
        for _ in q.atoms:
            replayer.run.break_iteration()
        return GuidedResult(False, replayer.run.profile, 0,
                            tuple(0 for _ in q.atoms), 0, 0, *sizes)
    grounds = [substitute(atom, theta) for atom in q.atoms]
    builder = TaskTreeBuilder(trace, build_term_tree(trace, info))
    schedules = [[] if producer is None else builder.schedule(1, producer)
                 for producer in _producers(trace.steps, grounds)]
    del trace, builder
    m_bound = max((len(s) for s in schedules), default=0)
    for ground, schedule in zip(grounds, schedules):
        for step_index in schedule:
            replayer.replay_step(step_index)
        live_image = Atom(ground.pred, tuple(replayer.inv.get(t, t) for t in ground.args))
        if live_image not in replayer.run.interp:
            raise ReplayDivergence(f"query atom {ground} not rebuilt")
        replayer.run.break_iteration()
    verdict = replayer.run.holds(q)
    if not verdict:
        raise ReplayDivergence("replay lost a derived query match")
    return GuidedResult(True, replayer.run.profile, m_bound,
                        tuple(len(s) for s in schedules),
                        replayer.replayed, replayer.skipped, *sizes)


# ---------------------------------------------------------------------------
# Bounded exhaustive search
# ---------------------------------------------------------------------------

def tree_chase_search(program: Program, database: Database, q: BCQ,
                      v_ehat: Iterable[Variable], m_bound: int,
                      node_budget: int = 100_000, counts: Optional[dict] = None) -> str:
    """Explore every run of ``len(q)`` outer rounds of at most ``m_bound``
    steps each: 'true' if some run accepts, 'false' if every run was
    explored and the bound cut none, else 'inconclusive'.

    A node is cut when it has made ``m_bound`` steps in its round and some
    match is still unsatisfied.  'true' is sound, since every step applies
    a rule to facts that hold.  'false' is sound too: if no node was cut,
    the run that applies steps and never breaks reached, within the
    bound, a node with no unsatisfied match.  Its facts include the
    database, which is over constants, and the root never pops a
    constant; so they form a model, and ``q`` failed in it, as at every
    node.  With a cut node, the exhaustion shows nothing.

    ``counts``, if given, receives the nodes visited (``nodes``), the
    nodes cut (``cut``), and whether every run was explored
    (``exhausted``): an 'inconclusive' that exhausted the runs was cut, one
    that did not ran out of ``node_budget``.
    """
    run = TreeChaseRun(program, database, v_ehat)
    cut = 0

    def moves(k: int, j: int):
        """The children of node (k, j) as (k, j, transition), in search
        order; the choices (the unsatisfied Datalog matches, or else the
        existential ones) are listed once the break to the next outer round
        has been explored and undone.  At the bound, only whether a choice
        is left is checked."""
        nonlocal cut
        yield k + 1, 0, run.break_iteration
        if j == m_bound:
            if any(unsatisfied_matches(run.interp, program.rules)):
                cut += 1
            return
        choices = list(unsatisfied_matches(run.interp, program.datalog_rules()))
        if not choices:
            choices = list(unsatisfied_matches(run.interp, program.existential_rules()))
        for rule, values in choices:
            yield k, j + 1, partial(run.apply, rule, values)

    def finish(verdict: str, nodes: int, exhausted: bool) -> str:
        if counts is not None:
            counts.update(nodes=nodes, cut=cut, exhausted=exhausted)
        return verdict

    # depth-first over an explicit stack: a frame holds a node's remaining
    # moves and the state from before the move being explored
    frames: list = []
    k = j = 0
    for spent in itertools.count(1):
        if spent > node_budget:
            return finish("inconclusive", node_budget, False)
        if run.holds(q):
            return finish("true", spent, False)
        if k < len(q):
            frames.append([moves(k, j), None])
        while frames:
            frame = frames[-1]
            if frame[1] is not None:
                run.restore(frame[1])
            move = next(frame[0], None)
            if move is not None:
                break
            frames.pop()
        else:
            return finish("inconclusive" if cut else "false", spent, True)
        k, j, transition = move
        frame[1] = run.snapshot()
        transition()
