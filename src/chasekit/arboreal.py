"""Tree-shaped structure inside the chase of suitably restricted programs.

A saturating program with a unique maximum-rank component of confluence at
most one is *arboreous*: the nulls of that component form a forest under
provenance edges.  Collapsing each certificate-rule application together
with its non-certificate descendants into one bag, and rooting the
remaining terms, yields the *term tree*, a partition of all chase terms.
It is read off the trace in one pass over its steps, since a null is
created after its forest parent.

The *position order* is the greatest relation on predicate positions that
survives four deletion rules; it certifies, per surviving pair, that the
first argument's bag is an ancestor of the second's in every chase.  A rule
is *path-guarded* when its affected body variables are totally ordered by
the induced variable order, which confines rule applications to single
root-to-leaf paths.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Mapping, Optional

from .chase import ChaseTrace
from .depgraph import LabelledDepGraph, RankReport, SccAnalysis
from .model import Atom, Null, Position, Program, Term, Variable


class InvariantViolation(Exception):
    """A structural guarantee failed on an actual trace; analyzer defect."""


@dataclass
class ArboreousInfo:
    verdict: str                   # arboreous | not-arboreous | not-applicable
    reason: Optional[str] = None
    component: Optional[int] = None
    chat: tuple = ()               # vertices of the maximum-rank component
    ehat: tuple = ()               # its certificate edges
    ehat_rule_ids: tuple = ()      # rules owning an existential targeted by ehat
    v_ehat: tuple = ()             # all existentials of those rules

    @property
    def arboreous(self) -> bool:
        return self.verdict == "arboreous"


def check_arboreous(program: Program, scc: SccAnalysis, ranks: RankReport,
                    certificates: Mapping[int, tuple]) -> ArboreousInfo:
    """Classify a saturating program for tree-chase applicability."""
    if ranks.program_rank == 0:
        return ArboreousInfo("not-applicable",
                             "rank 0: use the full chase; the tree chase adds nothing")
    top = [c.component for c in ranks.components if c.rank == ranks.program_rank]
    if len(top) != 1:
        return ArboreousInfo("not-arboreous",
                             f"maximum rank {ranks.program_rank} is shared by "
                             f"components {top}")
    chat = top[0]
    if scc.beta[chat] > 1:
        return ArboreousInfo("not-arboreous",
                             f"confluence {scc.beta[chat]} > 1 in the maximum-rank "
                             f"component", chat)
    ehat = tuple(certificates.get(chat, ()))
    rule_ids = tuple(sorted({program.rule_of_var[e.dst].rule_id for e in ehat}))
    v_ehat = []
    chat_set = scc.components[chat]
    for rid in rule_ids:
        for v in program.rule(rid).existentials:
            v_ehat.append(v)
            if v not in chat_set:
                raise InvariantViolation(
                    f"existential {v.name} of certificate rule {rid} lies outside "
                    f"the maximum-rank component")
    return ArboreousInfo("arboreous", None, chat,
                         tuple(sorted(chat_set, key=lambda v: v.id)),
                         ehat, rule_ids, tuple(v_ehat))


# ---------------------------------------------------------------------------
# Null forest and term tree
# ---------------------------------------------------------------------------

@dataclass
class NullForest:
    nodes: tuple
    parent: dict                   # null -> null, roots absent


def build_null_forest(trace: ChaseTrace, info: ArboreousInfo) -> NullForest:
    """Provenance edges restricted to maximum-rank nulls; validates shape."""
    chat = set(info.chat)
    nodes = tuple(n for n, v in trace.var_of_null.items() if v in chat)
    node_set = set(nodes)
    parent: dict = {}
    for t, _y, n in trace.chain_edges:
        if n in node_set and isinstance(t, Null) and t in node_set:
            if n in parent and parent[n] != t:
                raise InvariantViolation(f"null {n.name} has two parents")
            # acyclicity: a parent was a frontier value of its child's
            # step, so it was created strictly earlier, with a smaller id
            if t.id >= n.id:
                raise InvariantViolation(
                    f"null {n.name} has parent {t.name}, which is not older")
            parent[n] = t
    return NullForest(nodes, parent)


@dataclass
class TermTree:
    node_terms: tuple              # index 0 is the root's term set
    parent: tuple                  # parent[0] is None
    creating_step: tuple           # step index per node, None for the root
    node_of: dict                  # term -> node index
    depths: tuple                  # root path length per node, 1 for the root

    def __len__(self) -> int:
        return len(self.node_terms)

    def root_path(self, node: int) -> tuple:
        path = []
        while node is not None:
            path.append(node)
            node = self.parent[node]
        return tuple(reversed(path))

    def path_of_terms(self, terms: Iterable[Term]) -> tuple:
        """Smallest root path covering all ``terms``; InvariantViolation if
        they do not sit on one path."""
        nodes = {self.node_of[t] for t in terms}
        if not nodes:
            return (0,)
        deepest = max(nodes, key=self.depths.__getitem__)
        path = self.root_path(deepest)
        if not nodes <= set(path):
            raise InvariantViolation("terms are not on a single root path")
        return path

    def path_of_atom(self, atom: Atom) -> tuple:
        return self.path_of_terms(atom.args)

    def to_dot(self) -> str:
        lines = ["digraph termtree {"]
        for i, terms in enumerate(self.node_terms):
            tag = "root" if i == 0 else f"step {self.creating_step[i]}"
            lines.append(f'  n{i} [label="{tag}\\n{len(terms)} terms"];')
        for i, par in enumerate(self.parent):
            if par is not None:
                lines.append(f"  n{par} -> n{i};")
        lines.append("}")
        return "\n".join(lines) + "\n"


def build_term_tree(trace: ChaseTrace, info: ArboreousInfo) -> TermTree:
    """Bags of certificate-step nulls plus their dragged-along descendants,
    rooted at everything else; validates the partition and tree shape.

    One pass over the steps places the nulls.  A certificate step (its
    rule owns a certificate existential) opens the next bag with the nulls
    it creates, so bags are numbered in step order; any other forest null
    joins the bag of its forest parent, if that parent is in one.  The
    parent is older (``build_null_forest``), so it is placed first, and a
    bag's members come in creation order.  A null is placed once and has
    at most one parent, so no null can land in two bags.
    """
    forest = build_null_forest(trace, info)
    node_set = set(forest.nodes)
    ehat_ids = set(info.ehat_rule_ids)
    bags = []            # (step index, term list); bag i is bags[i - 1]
    bag_of: dict = {}
    for s in trace.steps:
        if s.rule_id in ehat_ids and s.created_nulls:
            bags.append((s.index, list(s.created_nulls)))
            for n in s.created_nulls:
                if n not in node_set:
                    raise InvariantViolation(
                        f"null {n.name} of certificate rule outside forest")
                bag_of[n] = len(bags)      # 0 is reserved for the root
        else:
            for n in s.created_nulls:
                b = bag_of.get(forest.parent.get(n))
                if b is not None:
                    bag_of[n] = b
                    bags[b - 1][1].append(n)

    all_terms = []
    seen: set = set()
    for atom in itertools.chain(trace.database,
                                (f for st in trace.steps for f in st.new_facts)):
        for t in atom.args:
            if t not in seen:
                seen.add(t)
                all_terms.append(t)
    root_terms = [t for t in all_terms if t not in bag_of]
    node_terms = [tuple(root_terms)] + [tuple(members) for _, members in bags]
    creating = [None] + [idx for idx, _ in bags]

    parent: list = [None] * len(node_terms)
    for child, par in forest.parent.items():
        b_child, b_par = bag_of.get(child, 0), bag_of.get(par, 0)
        if b_child != b_par and b_child != 0:
            prev = parent[b_child]
            if prev is not None and prev != b_par:
                raise InvariantViolation("bag has two distinct parents")
            parent[b_child] = b_par
    # acyclicity: bags are numbered in step order, and a bag's parent
    # holds the parent of a null its step created, which that step read
    depths = [1] * len(node_terms)
    for i in range(1, len(node_terms)):
        if parent[i] is None:
            parent[i] = 0
        elif parent[i] >= i:
            raise InvariantViolation(f"bag {i} has parent {parent[i]}, which is not older")
        depths[i] = depths[parent[i]] + 1
    node_of = {}
    for i, terms in enumerate(node_terms):
        for t in terms:
            if t in node_of:
                raise InvariantViolation(f"term {t} in two nodes")
            node_of[t] = i
    return TermTree(tuple(node_terms), tuple(parent), tuple(creating), node_of,
                    tuple(depths))


# ---------------------------------------------------------------------------
# Position order and path guardedness
# ---------------------------------------------------------------------------

@dataclass
class PositionOrder:
    pairs: frozenset               # surviving (Position, Position) pairs
    var_leq: frozenset             # (Variable, Variable) pairs, the induced order
    omega_hat: frozenset
    affected: dict                 # rule id -> tuple of affected body variables

    def leq(self, a: Position, b: Position) -> bool:
        return (a, b) in self.pairs

    def comparable(self, x: Variable, y: Variable) -> bool:
        return (x, y) in self.var_leq or (y, x) in self.var_leq


def _induced_var_order(program: Program, pairs: set) -> frozenset:
    """The reflexive and transitive closure over the program's variables
    of ``x <= y`` for body atoms with ``x`` and ``y`` at a pair of
    positions in ``pairs``."""
    succ: dict = {v: set() for v in program.rule_of_var}
    for rule in program.rules:
        for atom in rule.body:
            for i, a in enumerate(atom.args, start=1):
                if not isinstance(a, Variable):
                    continue
                for j, b in enumerate(atom.args, start=1):
                    if isinstance(b, Variable) and \
                            (Position(atom.pred, i), Position(atom.pred, j)) in pairs:
                        succ[a].add(b)
    closure: set = set()
    for v in succ:
        reach, todo = {v}, [v]
        while todo:
            for b in succ[todo.pop()]:
                if b not in reach:
                    reach.add(b)
                    todo.append(b)
        closure.update((v, b) for b in reach)
    return frozenset(closure)


def compute_position_order(program: Program, graph: LabelledDepGraph,
                           scc: SccAnalysis, info: ArboreousInfo) -> PositionOrder:
    """Greatest fixpoint of the four deletion conditions.

    Conditions on the head atoms: an in-component existential never sits
    below an outside existential; a certificate-rule existential never sits
    below any universal; an in-component existential sits only below the
    labels feeding it; and universal pairs must already be ordered by the
    induced variable order, which is recomputed from the surviving pairs
    each round.
    """
    chat_set = set(info.chat)
    v_ehat = set(info.v_ehat)
    pairs: set = set()
    for pred, arity in program.signature.items():
        for i in range(1, arity + 1):
            for j in range(1, arity + 1):
                pairs.add((Position(pred, i), Position(pred, j)))

    # one walk over the head atoms applies the one-shot conditions and
    # lists the universal pairs (key, x, y) for the iterated one
    universal = []
    for rule in program.rules:
        ex = set(rule.existentials)
        uni = set(rule.frontier)
        for atom in rule.head:
            for i, a in enumerate(atom.args, start=1):
                for j, b in enumerate(atom.args, start=1):
                    key = (Position(atom.pred, i), Position(atom.pred, j))
                    if a in uni and b in uni:
                        universal.append((key, a, b))
                    elif a in ex and a in chat_set:
                        if b in ex and b not in chat_set:
                            pairs.discard(key)
                        elif b in uni and (a in v_ehat or
                                           b not in scc.lambda_of.get(a, frozenset())):
                            pairs.discard(key)

    while True:
        var_leq = _induced_var_order(program, pairs)
        dropped = {key for key, a, b in universal if key in pairs and (a, b) not in var_leq}
        if not dropped:
            break
        pairs -= dropped

    omega_hat = frozenset().union(*(graph.omega[v] for v in chat_set)) \
        if chat_set else frozenset()
    positions = program.positions
    affected = {rule.rule_id: tuple(v for v in rule.frontier + rule.body_only
                                    if omega_hat.issuperset(positions[v][0]))
                for rule in program.rules}
    return PositionOrder(frozenset(pairs), var_leq, omega_hat, affected)


@dataclass
class PathGuardReport:
    guarded: bool
    offending_rule_ids: tuple


def is_path_guarded(program: Program, order: PositionOrder) -> PathGuardReport:
    """Affected body variables must form a chain in the induced order."""
    offending = []
    for rule in program.rules:
        hit = order.affected.get(rule.rule_id, ())
        for x, y in itertools.combinations(hit, 2):
            if not order.comparable(x, y):
                offending.append(rule.rule_id)
                break
    return PathGuardReport(not offending, tuple(offending))


# ---------------------------------------------------------------------------
# Trace-level checks used by the test suites
# ---------------------------------------------------------------------------

def check_order_soundness(tree: TermTree, order: PositionOrder, interp) -> None:
    """Every surviving pair must see an ancestor-or-self bag relation on
    every fact of the chase."""
    for atom in interp:
        arity = len(atom.args)
        for i in range(1, arity + 1):
            for j in range(1, arity + 1):
                if (Position(atom.pred, i), Position(atom.pred, j)) not in order.pairs:
                    continue
                ni = tree.node_of[atom.args[i - 1]]
                nj = tree.node_of[atom.args[j - 1]]
                if ni not in set(tree.root_path(nj)):
                    raise InvariantViolation(
                        f"{atom}: position {i} not an ancestor of {j}")


def check_locality(program: Program, trace: ChaseTrace, tree: TermTree) -> None:
    """Body and head terms of every step must lie on single root paths."""
    for step in trace.steps:
        # the frontier's values are the first slots
        n_frontier = len(program.rule(step.rule_id).frontier)
        tree.path_of_terms(step.values)
        tree.path_of_terms(step.values[:n_frontier] + step.created_nulls)
