"""The labelled existential dependency graph and its component analysis.

Vertices are the existential variables of a program.  For an existential
``v``, the position set ``omega(v)`` over-approximates where values created
for ``v`` can flow: it starts from the head positions of ``v`` and is closed
under "if all body positions of a universal variable ``x`` are reachable,
then so are the head positions of ``x``".  An edge ``u -(y)-> w`` exists
when the body positions of the frontier variable ``y`` of ``w``'s rule all
lie inside ``omega(u)``.

On top of the graph: strongly connected components in topological order,
per-vertex intra-component edge-label sets, confluence (the maximum number
of distinct intra-component in-edge labels at a vertex), and the rank
computation that grades components by how often their cycles can multiply
values flowing in from predecessor components.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, NamedTuple

from .model import Program, Variable


def compute_omegas(program: Program) -> dict:
    """Least position sets closed under body-to-head flow, per existential.

    A worklist closure: each universal variable counts its body positions
    not yet in omega, a position entering omega lowers the count of every
    universal with that body position, and a universal whose count reaches
    zero adds its head positions.  So each existential costs the positions
    and universals it reaches, not a rescan of every universal per round.
    """
    positions = program.positions
    body_count = {}
    readers: dict = {}    # position -> universals with that body position
    for rule in program.rules:
        for v in rule.frontier + rule.body_only:
            body = positions[v][0]
            body_count[v] = len(body)
            for p in body:
                readers.setdefault(p, []).append(v)
    omegas = {}
    for rule in program.rules:
        for v in rule.existentials:
            omega: set = set()
            missing: dict = {}
            todo = list(positions[v][1])
            while todo:
                p = todo.pop()
                if p in omega:
                    continue
                omega.add(p)
                for x in readers.get(p, ()):
                    left = missing[x] = missing.get(x, body_count[x]) - 1
                    if not left:
                        todo.extend(positions[x][1])
            omegas[v] = frozenset(omega)
    return omegas


class DepEdge(NamedTuple):
    src: Variable
    label: Variable    # a frontier variable of dst's rule
    dst: Variable

    def __str__(self) -> str:
        return f"{self.src.name} -({self.label.name})-> {self.dst.name}"


@dataclass
class LabelledDepGraph:
    program: Program
    vertices: tuple
    edges: tuple
    omega: dict

    def vertex_label(self, v: Variable) -> str:
        return f"{v.name}@r{self.program.rule_of_var[v].rule_id}"

    def to_dot(self, scc: SccAnalysis) -> str:
        lines = ["digraph ledgraph {"]
        name = {v: f'"{self.vertex_label(v)}"' for v in self.vertices}
        for ci, comp in enumerate(scc.components):
            lines.append(f"  subgraph cluster_{ci} {{")
            lines.append(f'    label="C{ci}";')
            for v in sorted(comp, key=lambda u: u.id):
                lines.append(f"    {name[v]};")
            lines.append("  }")
        for e in self.edges:
            lines.append(f'  {name[e.src]} -> {name[e.dst]} [label="{e.label.name}"];')
        lines.append("}")
        return "\n".join(lines) + "\n"


def build_ledgraph(program: Program) -> LabelledDepGraph:
    """The graph, with its edges ordered by rule, then target, then label,
    then source in vertex order.  The sources of the edges labelled ``y``
    are the vertices whose omega holds every body position of ``y``: the
    intersection of what a position index, a bit set of vertex numbers per
    position, gives for each of them."""
    omegas = compute_omegas(program)
    vertices = tuple(omegas)
    holders: dict = {}
    for n, u in enumerate(vertices):
        for p in omegas[u]:
            holders[p] = holders.get(p, 0) | 1 << n
    everyone = (1 << len(vertices)) - 1
    positions = program.positions
    edges = []
    for rule in program.rules:
        if not rule.existentials:
            continue
        sources = []
        for y in rule.frontier:
            held = everyone
            for p in positions[y][0]:
                held &= holders.get(p, 0)
            found = []
            while held:
                low = held & -held
                found.append(vertices[low.bit_length() - 1])
                held ^= low
            sources.append(found)
        for w in rule.existentials:
            for y, found in zip(rule.frontier, sources):
                edges.extend(DepEdge(u, y, w) for u in found)
    return LabelledDepGraph(program, vertices, tuple(edges), omegas)


# ---------------------------------------------------------------------------
# Strongly connected components
# ---------------------------------------------------------------------------

@dataclass
class SccAnalysis:
    graph: LabelledDepGraph
    components: tuple          # frozensets of vertices, in topological order
    component_of: dict         # vertex -> component index
    lambda_of: dict            # vertex -> frozenset of intra-component labels
    beta_of: dict              # vertex -> confluence
    beta: tuple                # per-component confluence
    intra_edges: tuple         # per-component tuple of edges
    incoming_edges: tuple      # per-component tuple of edges from outside

    def nontrivial(self) -> list:
        """Indices of components with a cycle (an intra-component edge)."""
        return [i for i, es in enumerate(self.intra_edges) if es]


def _components(vertices: tuple, succ: Mapping[Variable, list],
                pred: Mapping[Variable, list]) -> list:
    """Strongly connected components by two plain walks (Sharir 1981): the
    finish order of a depth-first walk, then a walk over reversed edges
    from each unplaced vertex, latest finished first, which reaches
    exactly that vertex's component."""
    finished: list = []
    seen: set = set()
    for root in vertices:
        if root in seen:
            continue
        seen.add(root)
        work = [(root, iter(succ[root]))]
        while work:
            v, it = work[-1]
            for w in it:
                if w not in seen:
                    seen.add(w)
                    work.append((w, iter(succ[w])))
                    break
            else:
                work.pop()
                finished.append(v)
    placed: set = set()
    components: list = []
    for root in reversed(finished):
        if root in placed:
            continue
        placed.add(root)
        comp, todo = [root], [root]
        while todo:
            for u in pred[todo.pop()]:
                if u not in placed:
                    placed.add(u)
                    comp.append(u)
                    todo.append(u)
        components.append(frozenset(comp))
    return components


def scc_analysis(graph: LabelledDepGraph) -> SccAnalysis:
    succ: dict = {v: [] for v in graph.vertices}
    pred: dict = {v: [] for v in graph.vertices}
    for e in graph.edges:
        succ[e.src].append(e.dst)
        pred[e.dst].append(e.src)
    components = _components(graph.vertices, succ, pred)

    # Topological order of the condensation; ties broken by the smallest
    # rule id (then variable id) occurring in the component.
    comp_of = {}
    for i, comp in enumerate(components):
        for v in comp:
            comp_of[v] = i
    preds: dict = {i: set() for i in range(len(components))}
    for e in graph.edges:
        a, b = comp_of[e.src], comp_of[e.dst]
        if a != b:
            preds[b].add(a)

    # no two components share a variable, so no two keys tie
    rule_of_var = graph.program.rule_of_var
    key = [(min(rule_of_var[v].rule_id for v in comp), min(v.id for v in comp))
           for comp in components]
    order: list = []
    placed: set = set()
    remaining = set(range(len(components)))
    while remaining:
        first = min((i for i in remaining if preds[i] <= placed), key=key.__getitem__)
        order.append(first)
        placed.add(first)
        remaining.discard(first)

    ordered = tuple(components[i] for i in order)
    comp_of = {}
    for i, comp in enumerate(ordered):
        for v in comp:
            comp_of[v] = i

    # one pass over the edges, each list in edge order
    labels: dict = {v: [] for v in graph.vertices}
    intra: tuple = tuple([] for _ in ordered)
    incoming: tuple = tuple([] for _ in ordered)
    for e in graph.edges:
        a, b = comp_of[e.src], comp_of[e.dst]
        if a == b:
            labels[e.dst].append(e.label)
            intra[a].append(e)
        else:
            incoming[b].append(e)
    lambda_of = {v: frozenset(labels[v]) for v in graph.vertices}
    beta_of = {v: len(lambda_of[v]) for v in graph.vertices}
    beta = tuple(max((beta_of[v] for v in comp), default=0) for comp in ordered)
    return SccAnalysis(graph, ordered, comp_of, lambda_of, beta_of, beta,
                       tuple(map(tuple, intra)), tuple(map(tuple, incoming)))


# ---------------------------------------------------------------------------
# Ranks
# ---------------------------------------------------------------------------

@dataclass
class ComponentRank:
    component: int
    r_in: int
    r_cxt: int
    context_components: tuple
    rank: int


@dataclass
class RankReport:
    components: tuple      # ComponentRank per component, topological order
    program_rank: int


class MissingCertificate(Exception):
    pass


def compute_rank(scc: SccAnalysis, certificates: Mapping[int, Iterable[DepEdge]]) -> RankReport:
    """Grade components along the condensation order.

    ``certificates`` maps each nontrivial component index to the edge set
    used to break its cycles; context components are those feeding, from the
    outside, a target of a certificate edge under a different label.
    """
    ranks: dict = {}
    out = []
    for i, comp in enumerate(scc.components):
        direct_preds = {scc.component_of[e.src] for e in scc.incoming_edges[i]}
        r_in = max((ranks[j] for j in direct_preds), default=0)
        beta = scc.beta[i]
        if beta == 0:
            cxt_comps: tuple = ()
            r_cxt = 0
            rank = r_in
        else:
            if i not in certificates:
                raise MissingCertificate(f"component {i} has no certificate edge set")
            cxt = {scc.component_of[e.src] for ce in certificates[i]
                   for e in scc.incoming_edges[i]
                   if e.dst == ce.dst and e.label != ce.label}
            cxt_comps = tuple(sorted(cxt))
            r_cxt = max((ranks[j] for j in cxt_comps), default=0)
            bump = 1 if beta == 1 else 2
            rank = max(r_in, r_cxt + bump)
        ranks[i] = rank
        out.append(ComponentRank(i, r_in, r_cxt, cxt_comps, rank))
    program_rank = max(ranks.values(), default=0)
    return RankReport(tuple(out), program_rank)
