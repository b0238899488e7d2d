"""Path queries, propagation checks, and the saturation certificate search.

A path through the dependency graph induces a conjunctive query: each edge
contributes a variable-disjoint variant of its target rule, with the fresh
null of one step identified with the frontier variable that consumes it in
the next.  Base propagation asks the Datalog part to re-derive the first
step's head re-anchored at the end of the path; step propagation asks it to
carry such a re-anchored head across a second cycle traversal while keeping
the context variables fixed.

A component is certified by an edge set E when removing E breaks all its
cycles, all E-edges into one target share a label, and both propagation
conditions hold for every E-avoiding connection between E-edges.  The
search enumerates feedback edge sets ascending by size and memoizes the
individual propagation checks.

Both ``check_e_saturating`` and the search walk the four conditions in the
same order, one elementary check at a time (``_condition_checks``).  The
report consumes the whole walk; the search drops a candidate at its first
failed check, since a single failure already rules it out, so a candidate
whose first base path fails costs no step-propagation check at all.  The
search then re-runs the full report on the last failed candidate only, so
a negative verdict still carries every condition, both counts and the
first counterexample, exactly as if each candidate had been checked in
full.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Optional

from .datalog import entails
from .depgraph import DepEdge, LabelledDepGraph, SccAnalysis
from .model import Program, Variable, substitute


class NonComposablePath(Exception):
    pass


class PathBudgetExceeded(Exception):
    pass


@dataclass(frozen=True)
class PathQuery:
    path: tuple                 # DepEdge sequence
    atoms: tuple                # full conjunction
    body_parts: tuple           # per-step instantiated body conjunctions
    head_parts: tuple           # per-step head conjunctions, nulls chained
    chain_vars: tuple           # y~_1 .. y~_{k+1}
    renamings: tuple            # per-step mapping rule variable -> fresh variable


def path_query(program: Program, path: Iterable[DepEdge],
               graph: Optional[LabelledDepGraph] = None) -> PathQuery:
    """The conjunction accompanying a chain of rule applications along ``path``."""
    path = tuple(path)
    if not path:
        raise NonComposablePath("empty path has no query")
    for a, b in zip(path, path[1:]):
        if a.dst != b.src:
            raise NonComposablePath(f"{a} does not compose with {b}")
    if graph is not None:
        known = set(graph.edges)
        for e in path:
            if e not in known:
                raise NonComposablePath(f"{e} is not a graph edge")
    fresh = program.fresh_variables("P")
    renamings = []
    for i, edge in enumerate(path, start=1):
        rule = program.rule_of_var[edge.dst]
        ren = {v: Variable(next(fresh).id, f"{v.name}~{i}") for v in rule.variables()}
        renamings.append(ren)
    chain = [renamings[0][path[0].label]]
    for i in range(1, len(path)):
        chain.append(renamings[i][path[i].label])
    final = next(fresh)
    chain.append(Variable(final.id, f"Y~{len(path) + 1}"))

    body_parts = []
    head_parts = []
    atoms = []
    for i, edge in enumerate(path):
        rule = program.rule_of_var[edge.dst]
        ren = dict(renamings[i])
        body = tuple(substitute(a, ren) for a in rule.body)
        ren[edge.dst] = chain[i + 1]     # the created null chains forward
        head = tuple(substitute(a, ren) for a in rule.head)
        body_parts.append(body)
        head_parts.append(head)
        atoms.extend(body)
        atoms.extend(head)
    return PathQuery(path, tuple(atoms), tuple(body_parts), tuple(head_parts),
                     tuple(chain), tuple(dict(r) for r in renamings))


def _head_slots(program: Program, e: DepEdge) -> tuple:
    """Slot variables of the rule behind ``e``: label, other frontier,
    target existential, other existentials."""
    rule = program.rule_of_var[e.dst]
    z = tuple(v for v in rule.frontier if v != e.label)
    w = tuple(v for v in rule.existentials if v != e.dst)
    return rule, e.label, z, e.dst, w


def is_base_propagating(program: Program, path: Iterable[DepEdge]) -> bool:
    """Does the Datalog part re-derive the first head at the path's end?

    ``path`` is the certificate edge followed by an edge sequence avoiding
    the certificate set (possibly none).
    """
    pq = path_query(program, path)
    first_label = pq.renamings[0][pq.path[0].label]
    conclusion = tuple(substitute(a, {first_label: pq.chain_vars[-1]})
                       for a in pq.head_parts[0])
    return entails(program.datalog_index, pq.atoms, conclusion)


def is_step_propagating(program: Program, path_a: Iterable[DepEdge],
                        path_b: Iterable[DepEdge], e_star: DepEdge) -> bool:
    """Propagate a satisfied head of ``e_star``'s rule across a second cycle.

    ``path_a`` and ``path_b`` each start with a certificate edge followed by
    an avoiding (possibly empty) continuation; the hypothesis head keeps its
    context variables fresh, so entailment must not depend on them.
    """
    path_a, path_b = tuple(path_a), tuple(path_b)
    pq = path_query(program, path_a + path_b)
    ell = len(path_a)
    rule_star, y_star, z_star, v_star, w_star = _head_slots(program, e_star)
    top = max(v.id for v in pq.chain_vars)
    for ren in pq.renamings:
        top = max(top, max(v.id for v in ren.values()))
    counter = itertools.count(top + 1)
    xz = {v: Variable(next(counter), f"Xz_{v.name}") for v in z_star}
    xw = {v: Variable(next(counter), f"Xw_{v.name}") for v in w_star}
    hyp_map = dict(xz)
    hyp_map.update(xw)
    hyp_map[y_star] = pq.chain_vars[ell]             # junction variable
    hyp_map[v_star] = pq.chain_vars[1]               # null of the first traversal
    conc_map = dict(xz)
    conc_map.update(xw)
    conc_map[y_star] = pq.chain_vars[-1]             # final variable
    conc_map[v_star] = pq.chain_vars[ell + 1]        # null created by path_b's edge
    hypothesis = pq.atoms + tuple(substitute(a, hyp_map) for a in rule_star.head)
    conclusion = tuple(substitute(a, conc_map) for a in rule_star.head)
    return entails(program.datalog_index, hypothesis, conclusion)


def enumerate_ebar_paths(scc: SccAnalysis, component: int, e_set: Iterable[DepEdge],
                         path_budget: int = 10_000) -> list:
    """All paths inside the component that avoid ``e_set``, lead from a
    target of an ``e_set`` edge to a source of one, including the empty
    path anchored wherever a target is itself a source.

    Returns (start_vertex, edge_tuple) pairs.  Requires the component
    without ``e_set`` to be acyclic; raises PathBudgetExceeded past the cap.
    """
    e_set = tuple(e_set)
    remainder = _remainder(scc, component, e_set)
    if not _is_acyclic(scc.components[component], remainder):
        raise ValueError("component minus the edge set is cyclic")
    return _ebar_paths(remainder, e_set, path_budget)


def _remainder(scc: SccAnalysis, component: int, e_set: tuple) -> list:
    removed = set(e_set)
    return [e for e in scc.intra_edges[component] if e not in removed]


def _ebar_paths(remainder: list, e_set: tuple, path_budget: int) -> list:
    """``enumerate_ebar_paths`` over an acyclic ``remainder``."""
    starts = {e.dst for e in e_set}
    ends = {e.src for e in e_set}
    out_edges: dict = {}
    for e in remainder:
        out_edges.setdefault(e.src, []).append(e)
    paths = []
    for s in sorted(starts, key=lambda v: v.id):
        if s in ends:
            paths.append((s, ()))
        stack = [(s, ())]
        while stack:
            v, prefix = stack.pop()
            for e in out_edges.get(v, ()):
                ext = prefix + (e,)
                if e.dst in ends:
                    paths.append((s, ext))
                    if len(paths) > path_budget:
                        raise PathBudgetExceeded(len(paths))
                stack.append((e.dst, ext))
    return paths


def _is_acyclic(vertices, edges) -> bool:
    """Kahn elimination: the graph is acyclic iff every vertex gets removed."""
    succ: dict = {v: [] for v in vertices}
    indegree = dict.fromkeys(succ, 0)
    for e in edges:
        succ[e.src].append(e.dst)
        indegree[e.dst] += 1
    ready = [v for v, d in indegree.items() if not d]
    removed = 0
    while ready:
        removed += 1
        for w in succ[ready.pop()]:
            indegree[w] -= 1
            if not indegree[w]:
                ready.append(w)
    return removed == len(succ)


@dataclass
class CheckReport:
    component: int
    e_set: tuple
    conditions: tuple          # four booleans
    counterexample: Optional[str]
    base_paths_checked: int
    step_pairs_checked: int

    @property
    def ok(self) -> bool:
        return all(self.conditions)


class PropagationCache:
    """Memoizes base/step checks across certificate candidates."""

    def __init__(self, program: Program):
        self.program = program
        self.base: dict = {}
        self.step: dict = {}

    def base_ok(self, path: tuple) -> bool:
        if path not in self.base:
            self.base[path] = is_base_propagating(self.program, path)
        return self.base[path]

    def step_ok(self, path_a: tuple, path_b: tuple, e_star: DepEdge) -> bool:
        key = (path_a, path_b, e_star)
        if key not in self.step:
            self.step[key] = is_step_propagating(self.program, path_a, path_b, e_star)
        return self.step[key]


def _condition_checks(program: Program, scc: SccAnalysis, component: int,
                      e_set: tuple, cache: PropagationCache, path_budget: int):
    """Walk the certificate conditions one elementary check at a time.

    Yields ``(condition index, counterexample)``, the counterexample being
    None for a check that holds: one check each for acyclicity and the
    shared labels, then, only if both hold, one per base path and one per
    step pair, in a fixed order.  A check runs only when its pair is
    requested, so a caller that stops at the first failure skips the rest.
    """
    remainder = _remainder(scc, component, e_set)
    acyclic = _is_acyclic(scc.components[component], remainder)
    yield 0, None if acyclic else "cycle survives edge removal"
    by_target: dict = {}
    for e in e_set:
        by_target.setdefault(e.dst, set()).add(e.label)
    bad = next((v for v, ls in by_target.items() if len(ls) > 1), None)
    yield 1, None if bad is None else (f"edges into {bad.name} carry labels "
                                       f"{sorted(l.name for l in by_target[bad])}")
    if not acyclic or bad is not None:
        return
    ebar = _ebar_paths(remainder, e_set, path_budget)
    for e in e_set:
        for start, cont in ebar:
            if start == e.dst:
                ok = cache.base_ok((e,) + cont)
                yield 2, None if ok else \
                    f"not base-propagating: {e} with continuation length {len(cont)}"
    for ea, eb in itertools.product(e_set, repeat=2):
        for start_a, cont_a in ebar:
            if start_a != ea.dst or (cont_a[-1].dst if cont_a else start_a) != eb.src:
                continue
            for start_b, cont_b in ebar:
                if start_b != eb.dst:
                    continue
                for e_star in e_set:
                    ok = cache.step_ok((ea,) + cont_a, (eb,) + cont_b, e_star)
                    yield 3, None if ok else f"not step-propagating for {e_star}"


def check_e_saturating(program: Program, scc: SccAnalysis, component: int,
                       e_set: Iterable[DepEdge], cache: Optional[PropagationCache] = None,
                       path_budget: int = 10_000) -> CheckReport:
    """Evaluate the four certificate conditions for one component and edge set."""
    cache = cache or PropagationCache(program)
    e_set = tuple(e_set)
    intra = set(scc.intra_edges[component])
    for e in e_set:
        if e not in intra:
            raise ValueError(f"{e} is not an edge of component {component}")
    conditions = [True] * 4
    checked = [0] * 4
    counterexample = None
    for i, failure in _condition_checks(program, scc, component, e_set, cache,
                                        path_budget):
        checked[i] += 1
        if failure:
            conditions[i] = False
            counterexample = counterexample or failure
    return CheckReport(component, e_set, tuple(conditions), counterexample,
                       checked[2], checked[3])


@dataclass
class ComponentCertificate:
    component: int
    vertices: tuple
    e_set: tuple
    report: Optional[CheckReport]
    verdict: str               # saturating | not-saturating | inconclusive
    reason: Optional[str] = None
    candidates_tried: int = 0


@dataclass
class SaturationResult:
    verdict: str               # saturating | not-saturating | inconclusive
    components: tuple          # ComponentCertificate per component index

    @property
    def certificates(self) -> dict:
        """Certificate edge sets per component (empty for trivial ones)."""
        return {c.component: c.e_set for c in self.components
                if c.verdict == "saturating"}


def find_saturating_certificate(program: Program, scc: SccAnalysis,
                                path_budget: int = 10_000,
                                candidate_budget: int = 4096) -> SaturationResult:
    """Search every cyclic component for a certified edge set.

    Candidates are enumerated ascending by cardinality over the component's
    edges, keeping only feedback sets (condition one is necessary), with
    propagation checks memoized across candidates.  A candidate is dropped
    at its first failed check: every condition must hold for a certificate,
    so the checks after a failure cannot change whether it is one.  The
    report of the certificate found, or of the last feedback set that
    failed, is the full ``check_e_saturating`` report of that edge set, the
    same as with no early stop.  Exhausting the enumeration yields a
    definitive negative; hitting the candidate or path budget yields an
    inconclusive verdict instead.  Negative budgets raise ValueError.
    """
    if candidate_budget < 0 or path_budget < 0:
        raise ValueError("budgets must not be negative")
    cache = PropagationCache(program)
    out = []
    for ci, comp in enumerate(scc.components):
        intra = scc.intra_edges[ci]
        verts = tuple(sorted(comp, key=lambda v: v.id))
        if not intra:
            out.append(ComponentCertificate(ci, verts, (), None, "saturating",
                                            "trivial component"))
            continue
        tried = 0
        found = last_failed = None
        budget_hit = False
        for e_set in itertools.chain.from_iterable(
                itertools.combinations(intra, size) for size in range(1, len(intra) + 1)):
            if tried == candidate_budget:
                budget_hit = True
                break
            tried += 1
            try:
                failed = next((i for i, failure in _condition_checks(
                    program, scc, ci, e_set, cache, path_budget) if failure), None)
            except PathBudgetExceeded:
                budget_hit = True
                break
            if failed is None:
                found = e_set
                break
            if failed > 0:         # a feedback set that fails a later condition
                last_failed = e_set
        if found:
            report = check_e_saturating(program, scc, ci, found, cache, path_budget)
            out.append(ComponentCertificate(ci, verts, found, report,
                                            "saturating", None, tried))
        elif budget_hit:
            out.append(ComponentCertificate(ci, verts, (), None, "inconclusive",
                                            "search budget exceeded", tried))
        elif last_failed:
            report = check_e_saturating(program, scc, ci, last_failed, cache, path_budget)
            out.append(ComponentCertificate(ci, verts, (), report, "not-saturating",
                                            report.counterexample, tried))
        else:
            out.append(ComponentCertificate(ci, verts, (), None, "not-saturating",
                                            "no feedback edge set exists", tried))
    if all(c.verdict == "saturating" for c in out):
        verdict = "saturating"
    elif any(c.verdict == "not-saturating" for c in out):
        verdict = "not-saturating"
    else:
        verdict = "inconclusive"
    return SaturationResult(verdict, tuple(out))
