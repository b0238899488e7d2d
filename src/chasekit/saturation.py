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

Everything that does not depend on the candidate or the path is built once
per search and kept in its ``PropagationCache``:

* the fragments of the path queries.  An edge's fragment is its target
  rule renamed apart, and it is cached by the edge and its occurrence in
  the path (the first, the second, ...): a base path repeats no edge, and
  a step pair at most repeats each edge once, so the occurrence keeps two
  copies of one edge apart without renaming anything per path.  A query
  joins the cached bodies and the cached heads relinked to the next step's
  chain variable, so it costs one lookup per edge;
* each cyclic component compiled over integer vertex and edge ids
  (``_Component``), in the order of its sorted vertex ids and of the
  graph's edges, never in the order of a set.  Removing a candidate's
  edges is skipping their ids, so the acyclicity test, the path count and
  the walks run over lists indexed by id;
* each component's cuts: the single edges c whose removal alone leaves it
  acyclic, with bound(c), the number of walks of the component without c,
  empty walks included.  A superset of a feedback set is a feedback set,
  and each Ē-path of a candidate E that contains c is a distinct walk of
  the component without E, a subgraph of the component without c, so E
  has at most bound(c) Ē-paths.  When the least bound of the cuts in E is
  within the path budget, the candidate runs neither Kahn's test nor a
  count; otherwise one Kahn elimination decides acyclicity and counts the
  Ē-paths.

The cache lives for one search only: the fragments' fresh variables are
numbered from one counter of the cache, which is what keeps them apart, so
two searches never share it, and no cache outlives an ``analyze`` call.

Both ``check_e_saturating`` and the search walk the four conditions in the
same order, one elementary check at a time (``_condition_checks``).  The
report consumes the whole walk; the search drops a candidate at its first
failed check, since a single failure already rules it out, so a candidate
whose first base path fails costs no step-propagation check at all.  The
Ē-paths are walked from one start at a time, when a check first asks for
that start, so such a candidate walks only the paths from its first edge's
target.  A base check builds its path query only when the fixpoint has to
decide it: the atoms of its conclusion missing from the query can be read
off the first and last fragments, and ``entails`` answers without
saturating when none is missing or one has a predicate no rule derives.  The
search then re-runs the full report on the last failed candidate only, so
a negative verdict still carries every condition, both counts and the
first counterexample, exactly as if each candidate had been checked in
full.  The label check skips each E-edge into a vertex whose in-edges in
the component carry one label (``beta_of`` 1), as no such edge can clash.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from types import MappingProxyType
from typing import Iterable, Optional

from .datalog import early_verdict, entails
from .depgraph import DepEdge, SccAnalysis
from .model import Atom, Program, Tgd, Variable, substitute


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
    renamings: tuple            # per-step read-only map rule variable -> fresh variable


def path_query(program: Program, path: Iterable[DepEdge],
               cache: Optional[PropagationCache] = None) -> PathQuery:
    """The conjunction accompanying a chain of rule applications along ``path``.

    Step i is the fragment of the i-th edge: its target rule renamed apart,
    with the null the edge targets renamed to chain variable i+1.  That is
    the next edge's label as renamed in the next fragment, or, after the
    last step, a final variable that occurs in no fragment.  Chain variable
    1 is the first edge's label.  The fragments and their relinked heads
    come from ``cache`` and are built on first use there; without one, a
    new cache is made for this call alone.  ``renamings`` holds read-only
    views of the fragments' renamings, so no caller can change what later
    queries of the same cache are built from.
    """
    path = _composed(path)
    cache = cache or PropagationCache(program)
    fragments = cache.fragments(path)
    chain = [f.link for f in fragments]
    chain.append(cache.final)
    atoms: list = []
    heads = []
    for fragment, link in zip(fragments, chain[1:]):
        head = fragment.head_linked(link)
        atoms += fragment.body
        atoms += head
        heads.append(head)
    return PathQuery(path, tuple(atoms), tuple(f.body for f in fragments), tuple(heads),
                     tuple(chain), tuple(f.renaming for f in fragments))


def _composed(path: Iterable[DepEdge]) -> tuple:
    """``path`` as a tuple; NonComposablePath if it is empty or an edge
    does not start where the one before it ends."""
    path = tuple(path)
    if not path:
        raise NonComposablePath("empty path has no query")
    for a, b in zip(path, path[1:]):
        if a.dst != b.src:
            raise NonComposablePath(f"{a} does not compose with {b}")
    return path


def is_base_propagating(program: Program, path: Iterable[DepEdge],
                        cache: Optional[PropagationCache] = None) -> bool:
    """Does the Datalog part re-derive the first head at the path's end?

    ``path`` is the certificate edge followed by an edge sequence avoiding
    the certificate set (possibly none).  The conclusion is the first head
    of the path query with chain variable 1 anchored at the final one.  Its
    atoms without chain variable 1 are first-head atoms, and the others
    hold the final variable, which occurs in the last head only.  So the
    atoms that ``entails`` finds missing from the query are those in
    neither the first nor the last head, and the path query is built only
    when they leave the answer to the fixpoint.
    """
    path = _composed(path)
    cache = cache or PropagationCache(program)
    first, final = cache.fragment(path[0], 0), cache.final
    # chain variable 2: the second edge's label (in its second fragment if
    # the edge repeats the first), or the final one
    link = cache.fragment(path[1], int(path[1] == path[0])).link if path[1:] else final
    head = first.head_linked(link)
    conclusion = tuple(substitute(a, {first.link: final}) for a in head)
    last = cache.fragment(path[-1], path.count(path[-1]) - 1)
    known = set(head).union(last.head_linked(final))
    index = program.datalog_index
    verdict = early_verdict(index, [a for a in conclusion if a not in known])
    if verdict is not None:
        return verdict
    return entails(index, path_query(program, path, cache).atoms, conclusion)


def is_step_propagating(program: Program, path_a: Iterable[DepEdge],
                        path_b: Iterable[DepEdge], e_star: DepEdge,
                        cache: Optional[PropagationCache] = None) -> bool:
    """Propagate a satisfied head of ``e_star``'s rule across a second cycle.

    ``path_a`` and ``path_b`` each start with a certificate edge followed by
    an avoiding (possibly empty) continuation; the hypothesis head keeps its
    context variables fresh, so entailment must not depend on them.
    """
    path_a, path_b = tuple(path_a), tuple(path_b)
    cache = cache or PropagationCache(program)
    pq = path_query(program, path_a + path_b, cache=cache)
    ell = len(path_a)
    rule = program.rule_of_var[e_star.dst]
    context = [v for v in rule.frontier + rule.existentials
               if v not in (e_star.label, e_star.dst)]
    hyp_map = {v: cache.variable(f"C_{v.name}") for v in context}
    conc_map = dict(hyp_map)
    hyp_map[e_star.label] = pq.chain_vars[ell]          # junction variable
    hyp_map[e_star.dst] = pq.chain_vars[1]              # null of the first traversal
    conc_map[e_star.label] = pq.chain_vars[-1]          # final variable
    conc_map[e_star.dst] = pq.chain_vars[ell + 1]       # null created by path_b's edge
    hypothesis = pq.atoms + tuple(substitute(a, hyp_map) for a in rule.head)
    conclusion = tuple(substitute(a, conc_map) for a in rule.head)
    return entails(program.datalog_index, hypothesis, conclusion)


def enumerate_ebar_paths(scc: SccAnalysis, component: int, e_set: Iterable[DepEdge],
                         path_budget: int = 10_000) -> list:
    """All paths inside the component that avoid ``e_set``, lead from a
    target of an ``e_set`` edge to a source of one, including the empty
    path anchored wherever a target is itself a source.

    Returns (start_vertex, edge_tuple) pairs, the paths of each start in
    the order of the starts' variable ids.  Requires the component without
    ``e_set`` to be acyclic; raises PathBudgetExceeded, before walking any
    path, if there are more than ``path_budget`` paths, the empty ones
    included.
    """
    e_set = tuple(e_set)
    comp = _Component(scc.components[component], scc.intra_edges[component])
    removed = comp.removed(e_set)
    bound = comp.ebar_bound(e_set, removed, path_budget)
    if bound is None:
        raise ValueError("component minus the edge set is cyclic")
    if bound > path_budget:
        raise PathBudgetExceeded(bound)
    ebar = _Ebar(comp, e_set, removed)
    return [(start, cont) for start in sorted({e.dst for e in e_set}, key=lambda v: v.id)
            for cont in ebar[start]]


class _Component:
    """A graph over integer ids, compiled once: vertices are numbered in
    the order of their variable ids and edges in the order given, so
    nothing here depends on the order in which a set or dict iterates.  A
    candidate edge set is a set of edge ids that the walks skip.
    ``cuts`` maps each edge that alone leaves the graph acyclic to its
    bound, which depends on the graph only.
    """

    def __init__(self, vertices, edges):
        self.vertices = sorted(vertices, key=lambda v: v.id)
        self.number = {v: i for i, v in enumerate(self.vertices)}
        self.edges = tuple(edges)
        self.edge_id = {e: i for i, e in enumerate(self.edges)}
        self.dst = [self.number[e.dst] for e in self.edges]
        self.out = [[] for _ in self.vertices]       # edge ids by source
        self.indegree = [0] * len(self.vertices)
        for i, e in enumerate(self.edges):
            self.out[self.number[e.src]].append(i)
            self.indegree[self.dst[i]] += 1
        self.cuts: dict = {}                          # edge id -> bound

    def removed(self, e_set: tuple) -> set:
        """The ids of ``e_set``; ValueError names an edge not in the graph."""
        try:
            return {self.edge_id[e] for e in e_set}
        except KeyError as missing:
            edge = missing.args[0]
            raise ValueError(f"{edge} is not an edge of the component") from None

    def _walks(self, removed, starts) -> Optional[list]:
        """Kahn elimination without the ``removed`` edges, counting walks
        as it goes: entry v of the result is the number of walks from a
        vertex of ``starts`` to v, the empty one included, which is final
        once v is eliminated, since all edges into v have been passed by
        then.  None if some vertex is never eliminated: a cycle survives."""
        dst, out = self.dst, self.out
        indegree = self.indegree[:]
        for i in removed:
            indegree[dst[i]] -= 1
        walks = [0] * len(indegree)
        for v in starts:
            walks[v] = 1
        ready = [v for v, d in enumerate(indegree) if not d]
        left = len(indegree)
        while ready:
            v = ready.pop()
            left -= 1
            here = walks[v]
            for i in out[v]:
                if i not in removed:
                    w = dst[i]
                    walks[w] += here
                    indegree[w] -= 1
                    if not indegree[w]:
                        ready.append(w)
        return None if left else walks

    def ebar_bound(self, e_set: tuple, removed: set, path_budget: int) -> Optional[int]:
        """None if the graph without ``removed`` (the ids of ``e_set``) is
        cyclic; otherwise a bound on the number of Ē-paths of ``e_set``
        that is their exact number whenever it exceeds ``path_budget``:
        the least bound of a cut among ``removed`` if it is within the
        budget, else the count of the walks from the targets of ``e_set``
        to its sources.  A single edge is recorded as a cut first if its
        removal leaves the graph acyclic.
        """
        cuts = self.cuts
        bound = min((cuts[i] for i in removed if i in cuts), default=None)
        if bound is not None and bound <= path_budget:
            return bound
        if bound is None and len(removed) == 1:
            walks = self._walks(removed, range(len(self.vertices)))
            if walks is None:
                return None
            bound = cuts[next(iter(removed))] = sum(walks)
            if bound <= path_budget:
                return bound
        number = self.number
        walks = self._walks(removed, {number[e.dst] for e in e_set})
        if walks is None:
            return None
        return sum(walks[v] for v in {number[e.src] for e in e_set})


class _Ebar(dict):
    """Start vertex -> the continuations of the Ē-paths of ``e_set`` from
    it, walked when a check first asks for the start; ``removed``, the ids
    of ``e_set``, leaves the component acyclic.

    The empty continuation comes first if the start is itself an end.
    Then a depth-first walk reports every edge into an end when it scans
    the edge, and descends into the edges in reverse scan order.  The walk
    extends one shared edge list in place, so a path is copied only when it
    is reported.
    """

    def __init__(self, comp: _Component, e_set: tuple, removed: set):
        super().__init__()
        self.comp, self.removed = comp, removed
        self.ends = {comp.number[e.src] for e in e_set}

    def __missing__(self, vertex: Variable) -> list:
        comp, removed, ends = self.comp, self.removed, self.ends
        dst, out, edges = comp.dst, comp.out, comp.edges
        start = comp.number[vertex]
        paths = self[vertex] = [()] if start in ends else []
        v, depth, path, stack = start, 0, [], []
        while True:
            for i in out[v]:
                if i in removed:
                    continue
                if dst[i] in ends:
                    paths.append((*path, edges[i]))
                stack.append((i, depth))
            if not stack:
                return paths
            i, depth = stack.pop()
            del path[depth:]
            path.append(edges[i])
            v, depth = dst[i], depth + 1


@dataclass
class CheckReport:
    component: int
    e_set: tuple
    conditions: tuple          # four booleans
    counterexample: Optional[str]
    base_paths_checked: int
    step_pairs_checked: int


class _Fragment:
    """The target rule of one edge, renamed apart, for one occurrence of
    the edge in a path; ``link`` is the renamed edge label and ``null`` the
    renamed edge target, which each query relinks to its chain."""

    __slots__ = ("renaming", "body", "head", "link", "null", "_linked")

    def __init__(self, rule: Tgd, edge: DepEdge, renaming: dict):
        self.renaming = MappingProxyType(renaming)
        self.body = tuple(substitute(a, renaming) for a in rule.body)
        self.head = tuple(substitute(a, renaming) for a in rule.head)
        self.link = renaming[edge.label]
        self.null = renaming[edge.dst]
        self._linked: dict = {}

    def head_linked(self, chain: Variable) -> tuple:
        """The head with ``null`` renamed to ``chain``, built once per chain."""
        head = self._linked.get(chain)
        if head is None:
            null = self.null
            head = self._linked[chain] = tuple(
                Atom(a.pred, tuple(chain if t == null else t for t in a.args))
                for a in self.head)
        return head


class PropagationCache:
    """What one certificate search builds once and reuses across its
    candidates: the base and step verdicts per path, the path-query
    fragments per (edge, occurrence) and the compiled components.

    Every variable it makes, in a fragment or for a step check's context,
    is numbered from its own counter above the program's variables, which
    keeps all of them apart; it belongs to one program and one search and
    is dropped with it.
    """

    def __init__(self, program: Program):
        self.program = program
        self.base: dict = {}
        self.step: dict = {}
        self._ids = itertools.count(program.max_var_id + 1)
        self._fragments: dict = {}     # (edge, occurrence) -> _Fragment
        self._components: dict = {}    # vertex frozenset -> _Component
        self.final = self.variable("Y~")

    def variable(self, name: str) -> Variable:
        return Variable(next(self._ids), name)

    def fragments(self, path: tuple) -> list:
        """The fragment of every edge of ``path``; an edge's k-th occurrence
        gets its k-th fragment, so repeated edges stay variable-disjoint."""
        seen: dict = {}
        out = []
        for edge in path:
            k = seen[edge] = seen.get(edge, -1) + 1
            out.append(self.fragment(edge, k))
        return out

    def fragment(self, edge: DepEdge, k: int) -> _Fragment:
        """The fragment of the ``k``-th occurrence of ``edge``, from 0."""
        fragment = self._fragments.get((edge, k))
        if fragment is None:
            rule = self.program.rule_of_var[edge.dst]
            renaming = {v: self.variable(f"{v.name}~{k + 1}") for v in rule.variables()}
            fragment = self._fragments[edge, k] = _Fragment(rule, edge, renaming)
        return fragment

    def component(self, scc: SccAnalysis, index: int) -> _Component:
        """Component ``index`` compiled; within one program its vertices
        determine its edges."""
        vertices = scc.components[index]
        comp = self._components.get(vertices)
        if comp is None:
            comp = self._components[vertices] = _Component(vertices,
                                                           scc.intra_edges[index])
        return comp

    def base_ok(self, path: tuple) -> bool:
        ok = self.base.get(path)
        if ok is None:
            ok = self.base[path] = is_base_propagating(self.program, path, self)
        return ok

    def step_ok(self, path_a: tuple, path_b: tuple, e_star: DepEdge) -> bool:
        key = (path_a, path_b, e_star)
        if key not in self.step:
            self.step[key] = is_step_propagating(self.program, path_a, path_b, e_star,
                                                 self)
        return self.step[key]


def _condition_checks(program: Program, scc: SccAnalysis, component: int,
                      e_set: tuple, cache: PropagationCache, path_budget: int):
    """Walk the certificate conditions one elementary check at a time.

    Yields ``(condition index, counterexample)``, the counterexample being
    None for a check that holds: one check each for acyclicity and the
    shared labels, then, only if both hold, one per base path and one per
    step pair, in a fixed order.  A check runs only when its pair is
    requested, so a caller that stops at the first failure skips the rest.
    An edge set with more than ``path_budget`` Ē-paths raises
    PathBudgetExceeded after the first two yields, before any base check.
    """
    comp = cache.component(scc, component)
    removed = comp.removed(e_set)
    bound = comp.ebar_bound(e_set, removed, path_budget)
    yield 0, None if bound is not None else "cycle survives edge removal"
    by_target: dict = {}
    for e in e_set:
        if scc.beta_of[e.dst] > 1:
            by_target.setdefault(e.dst, set()).add(e.label)
    bad = next((v for v, ls in by_target.items() if len(ls) > 1), None)
    yield 1, None if bad is None else (f"edges into {bad.name} carry labels "
                                       f"{sorted(l.name for l in by_target[bad])}")
    if bound is None or bad is not None:
        return
    if bound > path_budget:
        raise PathBudgetExceeded(bound)
    ebar = _Ebar(comp, e_set, removed)
    for e in e_set:
        for cont in ebar[e.dst]:
            ok = cache.base_ok((e,) + cont)
            yield 2, None if ok else \
                f"not base-propagating: {e} with continuation length {len(cont)}"
    for ea, eb in itertools.product(e_set, repeat=2):
        for cont_a in ebar[ea.dst]:
            if (cont_a[-1].dst if cont_a else ea.dst) != eb.src:
                continue
            for cont_b in ebar[eb.dst]:
                for e_star in e_set:
                    ok = cache.step_ok((ea,) + cont_a, (eb,) + cont_b, e_star)
                    yield 3, None if ok else f"not step-propagating for {e_star}"


def check_e_saturating(program: Program, scc: SccAnalysis, component: int,
                       e_set: Iterable[DepEdge], cache: Optional[PropagationCache] = None,
                       path_budget: int = 10_000) -> CheckReport:
    """Evaluate the four certificate conditions for one component and edge set."""
    cache = cache or PropagationCache(program)
    e_set = tuple(e_set)
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
    so the checks after a failure cannot change whether it is one, and a
    candidate costs only the checks it reaches: one that contains a cut
    (a single edge that is a feedback set) is a feedback set with at most
    the cut's bound of Ē-paths, so within ``path_budget`` it runs no
    acyclicity test and no count; its Ē-paths are walked per start as its
    checks reach them; and a base check decided by the first and last
    heads of its path builds no path query.  The
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
        else:   # the last candidate, every intra edge, is a feedback set: one failed
            report = check_e_saturating(program, scc, ci, last_failed, cache, path_budget)
            out.append(ComponentCertificate(ci, verts, (), report, "not-saturating",
                                            report.counterexample, tried))
    if all(c.verdict == "saturating" for c in out):
        verdict = "saturating"
    elif any(c.verdict == "not-saturating" for c in out):
        verdict = "not-saturating"
    else:
        verdict = "inconclusive"
    return SaturationResult(verdict, tuple(out))
