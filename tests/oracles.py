"""Independent test oracles.

Everything here deliberately avoids the library's matching and fixpoint
machinery: the naive materializer enumerates candidate fact tuples by brute
force, so it can cross-check the semi-naive engine and the propagation
checks without sharing code paths with them.
"""

from __future__ import annotations

from chasekit.model import Atom, Position, Variable, substitute
from chasekit.saturation import PathQuery


def _naive_unify(pattern: Atom, fact: Atom, binding: dict):
    if pattern.pred != fact.pred or len(pattern.args) != len(fact.args):
        return None
    binding = dict(binding)
    for p, f in zip(pattern.args, fact.args):
        if isinstance(p, Variable):
            if p in binding:
                if binding[p] != f:
                    return None
            else:
                binding[p] = f
        elif p != f:
            return None
    return binding


def naive_matches(body, facts, binding=None):
    """All embeddings of ``body`` into ``facts`` by exhaustive product."""
    results = [dict(binding) if binding else {}]
    for atom in body:
        extended = []
        for b in results:
            for fact in facts:
                nb = _naive_unify(atom, fact, b)
                if nb is not None:
                    extended.append(nb)
        results = extended
    # deduplicate bindings reached through different fact choices
    unique = {}
    for b in results:
        unique[tuple(sorted((v.id, t) for v, t in b.items()))] = b
    return list(unique.values())


def naive_materialize(rules, facts) -> set:
    """Exhaustive fixpoint of existential-free rules over ground facts."""
    closure = set(facts)
    changed = True
    while changed:
        changed = False
        for rule in rules:
            assert not rule.existentials
            for binding in naive_matches(rule.body, sorted(closure, key=str)):
                for h in rule.head:
                    ground = Atom(h.pred, tuple(binding.get(a, a) for a in h.args))
                    if ground not in closure:
                        closure.add(ground)
                        changed = True
    return closure


def naive_entails(rules, body, head) -> bool:
    """Freeze variables to fresh terms, materialize, test the head.  A
    frozen variable is the plain tuple ``("frozen", i)``, numbered by first
    occurrence: no chasekit term has that tag, so it equals no constant or
    null of the rules or the body, whatever their names."""
    frz = {}

    def freeze(atom: Atom) -> Atom:
        args = []
        for a in atom.args:
            if isinstance(a, Variable):
                if a not in frz:
                    frz[a] = ("frozen", len(frz))
                a = frz[a]
            args.append(a)
        return Atom(atom.pred, tuple(args))

    frozen_body = {freeze(a) for a in body}
    frozen_head = {freeze(a) for a in head}
    return frozen_head <= naive_materialize(rules, frozen_body)


def naive_path_query(program, path) -> PathQuery:
    """The query of a composable ``path``, renaming every rule apart per
    step: fresh variables are numbered above the program's, step i's copy
    of variable X is named ``X~i``, and the null created by step i is
    renamed to the next step's label (or a final ``Y~k+1``)."""
    path = tuple(path)
    fresh = program.fresh_variables("P")
    renamings = []
    for i, edge in enumerate(path, start=1):
        rule = program.rule_of_var[edge.dst]
        renamings.append({v: Variable(next(fresh).id, f"{v.name}~{i}")
                          for v in rule.variables()})
    chain = [ren[edge.label] for ren, edge in zip(renamings, path)]
    chain.append(Variable(next(fresh).id, f"Y~{len(path) + 1}"))
    body_parts, head_parts, atoms = [], [], []
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
                     tuple(chain), tuple(renamings))


def model_check(program, interp) -> bool:
    """Is ``interp`` a model: every body match extends to a head embedding?"""
    facts = sorted(interp, key=str)
    for rule in program.rules:
        for binding in naive_matches(rule.body, facts):
            satisfied = False
            for ext in naive_matches(rule.head, facts, binding):
                satisfied = True
                break
            if not satisfied:
                return False
    return True


def _positions(atoms, var) -> frozenset:
    return frozenset((atom.pred, i) for atom in atoms
                     for i, a in enumerate(atom.args, start=1) if a == var)


def naive_omegas(program) -> dict:
    """Omega of every existential, as ``(pred, 1-based index)`` pairs, by
    rescanning every universal variable until nothing changes."""
    body_pos = {}
    head_pos = {}
    universals = []
    for rule in program.rules:
        for v in rule.frontier + rule.body_only:
            universals.append(v)
            body_pos[v] = _positions(rule.body, v)
            head_pos[v] = _positions(rule.head, v)
    omegas = {}
    for rule in program.rules:
        for v in rule.existentials:
            omega = set(_positions(rule.head, v))
            changed = True
            while changed:
                changed = False
                for x in universals:
                    if body_pos[x] <= omega and not head_pos[x] <= omega:
                        omega |= head_pos[x]
                        changed = True
            omegas[v] = frozenset(omega)
    return omegas


def naive_ledgraph(program) -> dict:
    """The labelled dependency graph and its component tables, from the
    definitions alone.

    The edges come from ``naive_omegas``: ``u -(y)-> w`` for every
    existential ``w``, frontier variable ``y`` of its rule and vertex ``u``
    whose omega holds every body position of ``y``, ordered by rule, ``w``,
    ``y`` and then ``u`` in vertex order, as ``(u, y, w)`` tuples.  The
    components are the classes of mutual reachability, in the topological
    order of the condensation that places, among the components whose
    predecessors are all placed, the one with the smallest rule id, then
    variable id, first.  Labels, confluence and the intra-component and
    incoming edges are filtered from the edges, vertex by vertex and
    component by component."""
    omegas = naive_omegas(program)
    vertices = tuple(omegas)
    edges = tuple((u, y, w) for rule in program.rules for w in rule.existentials
                  for y in rule.frontier for u in vertices
                  if _positions(rule.body, y) <= omegas[u])
    classes = naive_components(vertices, [(u, w) for u, _y, w in edges])
    preds = [{i for i, c in enumerate(classes) if c != d
              and any(u in c and w in d for u, _y, w in edges)} for d in classes]
    order = []
    while len(order) < len(classes):
        ready = [i for i in range(len(classes)) if i not in order and preds[i] <= set(order)]
        order.append(min(ready, key=lambda i: (
            min(program.rule_of_var[v].rule_id for v in classes[i]),
            min(v.id for v in classes[i]))))
    components = [classes[i] for i in order]
    comp_of = {v: i for i, c in enumerate(components) for v in c}
    lambda_of = {v: frozenset(y for u, y, w in edges if w == v and comp_of[u] == comp_of[v])
                 for v in vertices}
    beta_of = {v: len(lambda_of[v]) for v in vertices}
    return {
        "vertices": vertices, "edges": edges, "components": tuple(components),
        "component_of": comp_of, "lambda_of": lambda_of, "beta_of": beta_of,
        "beta": tuple(max((beta_of[v] for v in c), default=0) for c in components),
        "intra_edges": tuple(tuple(e for e in edges if comp_of[e[0]] == i == comp_of[e[2]])
                             for i in range(len(components))),
        "incoming_edges": tuple(tuple(e for e in edges
                                      if comp_of[e[2]] == i != comp_of[e[0]])
                                for i in range(len(components))),
    }


def naive_components(vertices, edges) -> list:
    """The classes of mutual reachability of a directed graph given as
    ``(src, dst)`` pairs, as frozensets in the order of their first
    vertex; reachability grows by relaxing every edge until nothing
    changes."""
    reach = {v: {v} for v in vertices}
    changed = True
    while changed:
        changed = False
        for a, b in edges:
            if not reach[b] <= reach[a]:
                reach[a] |= reach[b]
                changed = True
    classes = []
    for u in vertices:
        comp = frozenset(v for v in vertices if v in reach[u] and u in reach[v])
        if comp not in classes:
            classes.append(comp)
    return classes


def naive_var_order(program, pairs) -> frozenset:
    """The variable order that position pairs induce: ``x <= y`` when ``x``
    and ``y`` sit in one body atom at a pair of positions in ``pairs``,
    plus ``x <= x`` for every variable, composed with itself until nothing
    changes."""
    order = {(v, v) for rule in program.rules for v in rule.variables()}
    order |= {(a, b) for rule in program.rules for atom in rule.body
              for i, a in enumerate(atom.args, start=1)
              for j, b in enumerate(atom.args, start=1)
              if isinstance(a, Variable) and isinstance(b, Variable)
              and (Position(atom.pred, i), Position(atom.pred, j)) in pairs}
    while True:
        composed = order | {(a, c) for a, b in order for b2, c in order if b == b2}
        if composed == order:
            return frozenset(order)
        order = composed


def qbf_brute_force(quantifiers, clauses) -> bool:
    """Truth of a prenex CNF QBF by exhaustive assignment recursion.

    ``quantifiers`` is a string over {'e','a'}, one per variable (variable i
    is 1-based); ``clauses`` is a sequence of integer tuples, negative for
    negated literals.
    """

    def value(assignment) -> bool:
        return all(any((lit > 0) == assignment[abs(lit) - 1] for lit in clause)
                   for clause in clauses)

    def recurse(i, assignment) -> bool:
        if i == len(quantifiers):
            return value(assignment)
        branches = (recurse(i + 1, assignment + [b]) for b in (False, True))
        return any(branches) if quantifiers[i] == "e" else all(branches)

    return recurse(0, [])
