"""Space-bounded nondeterministic chase for Boolean query entailment.

The runner keeps, besides the fact set ``I``, a stack ``T`` of term sets
that mirrors one root-to-leaf path of the term tree: certificate-rule
applications push a new set, other applications extend the last one, and
facts are discarded as soon as they mention a popped term.  After each of
the ``|q|`` outer rounds the stack collapses into its root.

Choices are supplied by scripts, so the nondeterminism lives in drivers:

* the *guided* driver replays one full-chase derivation of a query match,
  scheduling for every producing step the tasks that rebuild the needed
  path bottom-up (children before parents, shallow before deep);
* the *search* driver explores all scripts up to an inner bound, for tiny
  instances only.
"""

from __future__ import annotations

import bisect
import itertools
from dataclasses import dataclass, field
from typing import Iterable, Optional

from .arboreal import ArboreousInfo, InvariantViolation, TermTree, build_term_tree
from .chase import ChaseResult, ChaseTrace, Deterministic, chase
from .matching import bcq_match, evaluate_bcq, find_matches, head_satisfied
from .model import (Atom, BCQ, Constant, Database, Interpretation, Null,
                    Program, Term, Tgd, Variable, substitute)


# runner nulls are numbered from here, apart from the reference chase's nulls
_NULL_NAMESPACE = 1_000_000_000
# task nodes one TaskTreeBuilder may create before it gives up
_TASK_NODE_CAP = 500_000


class InvalidChoice(Exception):
    pass


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


@dataclass(frozen=True)
class Apply:
    rule_id: int
    match: tuple      # sorted ((variable, term), ...) pairs


@dataclass(frozen=True)
class Break:
    pass


class TreeChaseRun:
    """One run of the bounded chase; choices are validated, then applied.

    With ``datalog_first`` (the default) an existential choice is rejected
    while an existential-free rule still has an unsatisfied match.  Guided
    replay disables this: replays interleave rebuilds of sibling branches,
    so pending existential-free matches can appear at moments the reference
    chase never saw, and applying them would prune the very path the
    schedule is building.  Soundness and the space bound do not depend on
    the strict check.
    """

    def __init__(self, program: Program, database: Database, v_ehat: Iterable[Variable],
                 datalog_first: bool = True):
        self.program = program
        self.datalog_first = datalog_first
        self.v_ehat = set(v_ehat)
        self.interp = database.copy()
        constants = list(dict.fromkeys(
            itertools.chain(program.constants(),
                            (t for t in database.terms()))))
        self.stack: list = [set(constants)]
        self.null_counter = itertools.count(_NULL_NAMESPACE)
        self.datalog = program.datalog_rules()
        self.profile = SpaceProfile()
        self.profile.inner_steps.append(0)
        self.log: list = []
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
        live = self.live_terms()
        p.max_terms = max(p.max_terms, len(live))
        p.max_live_nulls = max(p.max_live_nulls,
                               sum(1 for t in live if isinstance(t, Null)))

    def datalog_saturated(self) -> bool:
        return self.unsatisfied_datalog_match() is None

    def unsatisfied_datalog_match(self) -> Optional[tuple]:
        for rule in self.datalog:
            for match in find_matches(self.interp, rule.body):
                if not head_satisfied(self.interp, rule.head, match):
                    return rule, match
        return None

    def check_applicable(self, rule: Tgd, match: dict) -> None:
        for atom in rule.body:
            if substitute(atom, match) not in self.interp:
                raise InvalidChoice(f"rule {rule.rule_id}: body not embedded")
        if head_satisfied(self.interp, rule.head, match):
            raise InvalidChoice(f"rule {rule.rule_id}: match already satisfied")
        if self.datalog_first and rule.existentials and not self.datalog_saturated():
            raise InvalidChoice("existential rule chosen before Datalog fixpoint")

    # -- transitions ----------------------------------------------------------

    def apply(self, rule: Tgd, match: dict) -> dict:
        """Validate and execute one rule application; returns the extension."""
        self.check_applicable(rule, match)
        frontier_terms = {match[y] for y in rule.frontier}
        pruned = 0
        while len(self.stack) > 1 and not (frontier_terms & self.stack[-1]):
            self.stack.pop()
            pruned += 1
        extension = dict(match)
        fresh = []
        for v in rule.existentials:
            nid = next(self.null_counter)
            n = Null(nid, f"m{nid}_{v.name}")
            extension[v] = n
            fresh.append(n)
        pushed = bool(self.v_ehat & set(rule.existentials))
        if pushed:
            self.stack.append(set(fresh))
        else:
            self.stack[-1] |= set(fresh)
        allowed = self.live_terms()
        head_facts = [substitute(a, extension) for a in rule.head]
        survivors = [a for a in itertools.chain(self.interp, head_facts)
                     if all(t in allowed for t in a.args)]
        self.interp = Interpretation(dict.fromkeys(survivors))
        self.profile.inner_steps[-1] += 1
        self.log.append({"rule": rule.rule_id, "pruned": pruned,
                         "action": "push" if pushed else "extend",
                         "lastSetSize": len(self.stack[-1]),
                         "atoms": len(self.interp)})
        self._observe()
        return extension

    def break_iteration(self) -> None:
        self.stack = [self.live_terms()]
        self.profile.inner_steps.append(0)
        self._observe()

    def holds(self, q: BCQ) -> bool:
        return evaluate_bcq(self.interp, q)


def tree_chase_run(program: Program, database: Database, q: BCQ,
                   v_ehat: Iterable[Variable], m_bound: int,
                   scripts: Iterable[Iterable]) -> tuple:
    """Execute scripts (one per query atom, Apply/Break entries) and report
    the verdict together with the run's space profile."""
    run = TreeChaseRun(program, database, v_ehat)
    scripts = list(scripts)
    if len(scripts) > len(q):
        raise InvalidChoice(f"{len(scripts)} scripts for {len(q)} query atoms")
    for script in scripts:
        steps = 0
        for choice in script:
            if isinstance(choice, Break):
                break
            steps += 1
            if steps > m_bound:
                raise InvalidChoice(f"script exceeds the inner bound {m_bound}")
            rule = program.rule(choice.rule_id)
            run.apply(rule, dict(choice.match))
        run.break_iteration()
    while len(run.profile.inner_steps) < len(q) + 1:
        run.break_iteration()
    return run.holds(q), run.profile


# ---------------------------------------------------------------------------
# Task trees
# ---------------------------------------------------------------------------

@dataclass
class TaskNode:
    depth: int
    step: int
    children: list


class TaskTreeBuilder:
    """Derives, for a chase step, the schedule that rebuilds its inputs.

    A task (d, i) assumes everything expressible over the first d-1 nodes
    of step i's body path is present; its subtasks pick, per depth >= d,
    the latest earlier step that produced an atom exactly that deep on the
    same path.
    """

    def __init__(self, program: Program, trace: ChaseTrace, tree: TermTree):
        self.program = program
        self.trace = trace
        self.tree = tree
        self.nodes_made = 0
        self.atom_steps: dict = {}    # (depth, path) -> ascending step indices
        for step in trace.steps:
            for atom in step.added:
                path = tree.path_of_atom(atom)
                key = (len(path), path)
                lst = self.atom_steps.setdefault(key, [])
                if not lst or lst[-1] != step.index:
                    lst.append(step.index)
        self.body_path: dict = {}
        for step in trace.steps:
            rule = program.rule(step.rule_id)
            terms = [step.match[v] for v in rule.frontier + rule.body_only]
            self.body_path[step.index] = tree.path_of_terms(terms)

    def _latest_before(self, key: tuple, limit: int) -> Optional[int]:
        lst = self.atom_steps.get(key)
        if not lst:
            return None
        pos = bisect.bisect_left(lst, limit)
        return lst[pos - 1] if pos else None

    def build(self, depth: int, step: int) -> TaskNode:
        self.nodes_made += 1
        if self.nodes_made > _TASK_NODE_CAP:
            raise InvariantViolation("task tree exceeds the node cap")
        path = self.body_path[step]
        children = []
        for e in range(depth, len(path) + 1):
            j = self._latest_before((e, path[:e]), step)
            if j is not None:
                children.append(self.build(e, j))
        return TaskNode(depth, step, children)


def build_task_tree(program: Program, trace: ChaseTrace, tree: TermTree,
                    target_step: int) -> TaskNode:
    return TaskTreeBuilder(program, trace, tree).build(1, target_step)


def schedule_sequence(node: TaskNode) -> list:
    """Children before parents, shallower siblings first."""
    out: list = []

    def walk(n: TaskNode) -> None:
        for child in n.children:
            walk(child)
        out.append(n.step)

    walk(node)
    return out


# ---------------------------------------------------------------------------
# Guided replay
# ---------------------------------------------------------------------------

@dataclass
class GuidedResult:
    entailed: bool
    profile: SpaceProfile
    m_bound: int
    schedule_lengths: tuple
    replayed_steps: int
    skipped_steps: int
    reference: ChaseResult


class _GuidedReplayer:
    def __init__(self, program: Program, reference: ChaseResult,
                 info: ArboreousInfo, database: Database):
        self.program = program
        self.reference = reference
        self.run = TreeChaseRun(program, database, info.v_ehat, datalog_first=False)
        self.tau: dict = {}          # runner null -> chase null
        self.skipped = 0
        self.replayed = 0

    def to_chase(self, t: Term) -> Term:
        return self.tau.get(t, t)

    def inverse_on_live(self) -> dict:
        inv: dict = {}
        for t in self.run.live_terms():
            image = self.to_chase(t)
            if image in inv:
                raise InvariantViolation(
                    f"map to the reference chase is not injective on live terms "
                    f"({image} has two preimages)")
            inv[image] = t
        return inv

    def check_homomorphism(self) -> None:
        ref = self.reference.interpretation
        for atom in self.run.interp:
            image = Atom(atom.pred, tuple(self.to_chase(t) for t in atom.args))
            if image not in ref:
                raise InvariantViolation(f"{atom} maps outside the reference chase")

    def replay_step(self, step_index: int) -> None:
        step = self.reference.trace.steps[step_index - 1]
        rule = self.program.rule(step.rule_id)
        inv = self.inverse_on_live()
        match = {}
        for v in rule.frontier + rule.body_only:
            image = step.match[v]
            if isinstance(image, Constant):
                match[v] = image
            elif image in inv:
                match[v] = inv[image]
            else:
                raise ReplayDivergence(
                    f"step {step_index}: body term {image} has no live preimage")
        for atom in rule.body:
            if substitute(atom, match) not in self.run.interp:
                raise ReplayDivergence(
                    f"step {step_index}: body atom missing after translation")
        if head_satisfied(self.run.interp, rule.head, match):
            self.skipped += 1
            return
        extension = self.run.apply(rule, match)
        self.replayed += 1
        for v in rule.existentials:
            self.tau[extension[v]] = step.extension[v]
        self.inverse_on_live()       # local injectivity after every step
        self.check_homomorphism()


def tree_chase_guided(program: Program, database: Database, q: BCQ,
                      info: ArboreousInfo, chase_cap: int = 100_000) -> GuidedResult:
    """Answer ``q`` by replaying task-tree schedules inside the bounded run.

    The terminating full chase acts as the reference: a negative answer
    needs no replay, a positive one is rebuilt path-locally and must come
    out true again.
    """
    if not info.arboreous:
        raise ValueError("guided tree chase requires an arboreous program")
    reference = chase(program, database, Deterministic(), chase_cap)
    if not reference.terminated:
        raise ReferenceCapExceeded("reference chase hit the step cap")
    theta = bcq_match(reference.interpretation, q)
    replayer = _GuidedReplayer(program, reference, info, database)
    if theta is None:
        for _ in q.atoms:
            replayer.run.break_iteration()
        return GuidedResult(False, replayer.run.profile, 0,
                            tuple(0 for _ in q.atoms), 0, 0, reference)
    tree = build_term_tree(reference.trace, info)
    builder = TaskTreeBuilder(program, reference.trace, tree)
    schedules = []
    for atom in q.atoms:
        ground = substitute(atom, theta)
        producer = reference.trace.producer_of(ground)
        if producer is None:
            schedules.append([])
        else:
            schedules.append(schedule_sequence(builder.build(1, producer)))
    m_bound = max((len(s) for s in schedules), default=0)
    for k, schedule in enumerate(schedules):
        for step_index in schedule:
            replayer.replay_step(step_index)
        ground = substitute(q.atoms[k], theta)
        live_image = Atom(ground.pred,
                          tuple(replayer.inverse_on_live().get(t, t) for t in ground.args))
        if live_image not in replayer.run.interp:
            raise ReplayDivergence(f"query atom {ground} not rebuilt")
        replayer.run.break_iteration()
    verdict = replayer.run.holds(q)
    if not verdict:
        raise ReplayDivergence("replay lost a derived query match")
    return GuidedResult(True, replayer.run.profile, m_bound,
                        tuple(len(s) for s in schedules),
                        replayer.replayed, replayer.skipped, reference)


# ---------------------------------------------------------------------------
# Bounded exhaustive search
# ---------------------------------------------------------------------------

class _Budget(Exception):
    pass


def tree_chase_search(program: Program, database: Database, q: BCQ,
                      v_ehat: Iterable[Variable], m_bound: int,
                      node_budget: int = 100_000) -> str:
    """Explore every script up to the inner bound; 'true' if some run
    accepts, 'false' only on full exhaustion, else 'inconclusive'."""
    v_ehat = set(v_ehat)
    spent = [0]

    def choices(run: TreeChaseRun) -> list:
        out = []
        saturated = run.datalog_saturated()
        for rule in program.rules:
            if rule.existentials and not saturated:
                continue
            for match in find_matches(run.interp, rule.body):
                if not head_satisfied(run.interp, rule.head, match):
                    out.append((rule, match))
        return out

    def explore(run: TreeChaseRun, k: int, j: int) -> bool:
        spent[0] += 1
        if spent[0] > node_budget:
            raise _Budget()
        if run.holds(q):
            return True
        if k == len(q):
            return False
        # break to the next outer round
        interp, stack = Interpretation(run.interp), [set(s) for s in run.stack]
        run.break_iteration()
        if explore(run, k + 1, 0):
            return True
        run.interp, run.stack = interp, stack
        run.profile.inner_steps.pop()
        if j == m_bound:
            return False
        for rule, match in choices(run):
            interp, stack = Interpretation(run.interp), [set(s) for s in run.stack]
            run.apply(rule, match)
            if explore(run, k, j + 1):
                return True
            run.interp, run.stack = interp, stack
        return False

    run = TreeChaseRun(program, database, v_ehat)
    try:
        return "true" if explore(run, 0, 0) else "false"
    except _Budget:
        return "inconclusive"
