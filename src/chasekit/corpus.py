"""Built-in instance generators used as fixtures and acceptance inputs.

Each generator returns a :class:`CorpusInstance` holding a program, a
database, optional queries, and the expected analyzer verdicts.  The QBF
generator has an independent brute-force truth oracle so query answering
can be cross-validated end to end.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .model import Database, Program, parse_facts, parse_program, parse_query


@dataclass
class CorpusInstance:
    name: str
    params: dict
    program: Program
    database: Database
    queries: tuple = ()
    expected: dict = field(default_factory=dict)
    oracle: str = "none"     # none | full-chase | qbf-brute-force


# ---------------------------------------------------------------------------
# Doubly exponential sequence construction
# ---------------------------------------------------------------------------

_DEXP_RULES = """\
first(Z) -> lvl(f,Z), lvl(t,Z) .
lvl(X1,Z), lvl(X2,Z) -> cat(X1,X2,Z,V) .
cat(X1,X2,Z,X) -> part(X1,X), part(X2,X) .
cat(X1,X2,Z,X), next(Z,Zp) -> up(X,Zp,W) .
cat(X1,X2,Z,X), next(Z,Zp), up(X,Zp,Xb) -> lvl(Xb,Zp) .
"""

_DEXP_PROPAGATION = """\
up(Y1,Z,Y2), part(Y2,Y3) -> up(Y3,Z,Y2) .
up(Y3,Z,Y2), part(Y2,Y3), up(Y3,Zq,Y4), part(Y4,Y5) -> up(Y5,Z,Y4) .
"""


def level_database(levels: int) -> str:
    """first/last/next facts describing a strict order of ``levels`` levels."""
    facts = [f"first(1) .", f"last({levels}) ."]
    facts += [f"next({i},{i + 1}) ." for i in range(1, levels)]
    return "\n".join(facts) + "\n"


def gen_dexp(levels: int, with_propagation: bool,
             database_text: Optional[str] = None) -> CorpusInstance:
    """Sequence-doubling construction over a chain of levels.

    Without the two propagation rules the cycle in the dependency graph is
    unbroken and cyclic level orders make the chase run forever; with them
    the set is saturating of rank 2.
    """
    if levels < 1:
        raise ValueError("levels must be >= 1")
    text = _DEXP_RULES + (_DEXP_PROPAGATION if with_propagation else "")
    program = parse_program(text)
    db = parse_facts(database_text if database_text is not None
                     else level_database(levels), program.signature)
    expected = ({"saturating": True, "rank": 2, "arboreous": False}
                if with_propagation else {"saturating": False})
    return CorpusInstance("dexp", {"levels": levels, "props": with_propagation},
                          program, db, (), expected, "full-chase")


def gen_dexp_nonterm() -> CorpusInstance:
    """The cyclic single-level database on the rules without propagation."""
    inst = gen_dexp(1, False, "first(1) .\nlast(1) .\nnext(1,1) .\n")
    inst.name = "dexp-nonterm"
    inst.expected = {"saturating": False, "terminates": False}
    return inst


# ---------------------------------------------------------------------------
# Finite set construction
# ---------------------------------------------------------------------------

_SETS_RULES = """\
elem(X), set(S) -> set(V), su(X,S,V), su(X,V,V) .
su(X,S,T), su(Y,S,S) -> su(Y,T,T) .
"""

_SETS_NONTERM_EXTRA = """\
set(S) -> elem(S) .
su(X,S,T) -> su(T,S,T) .
su(X,S,T), su(Y,X,X) -> su(Y,T,T) .
su(X,S,T), su(S,Y,S) -> su(T,Y,T) .
su(X,S,T), su(X,Y,X) -> su(T,Y,T) .
"""


def gen_sets(n_elements: int) -> CorpusInstance:
    """Sets built one element at a time: ``su(x,S,T)`` reads {x} u S = T.

    Membership ``su(x,S,S)`` propagates to direct supersets, which blocks
    re-adding a member and makes the single self-loop saturating.
    """
    if n_elements < 0:
        raise ValueError("n_elements must be >= 0")
    program = parse_program(_SETS_RULES)
    facts = "".join(f"elem(a{i}) .\n" for i in range(1, n_elements + 1)) + "set(e0) .\n"
    db = parse_facts(facts, program.signature)
    queries = ()
    if n_elements >= 1:
        queries = (parse_query("?- su(a1,S,S) .", program.signature),)
    expected = {"saturating": True, "rank": 1, "arboreous": True, "pathGuarded": True}
    return CorpusInstance("sets", {"n": n_elements}, program, db, queries,
                          expected, "full-chase")


def gen_sets_nonterm() -> CorpusInstance:
    """Sets whose members may be sets: two confluent self-loops with
    distinct labels, which no certificate edge set can reconcile.

    The database carries one element besides the empty set: with the empty
    set alone the propagation facts happen to block every constructor match
    after a single null, while a second seed leaves pairs like "new set
    into an unrelated older set" unblocked forever.
    """
    program = parse_program(_SETS_RULES + _SETS_NONTERM_EXTRA)
    db = parse_facts("set(e0) .\nelem(a1) .\n", program.signature)
    expected = {"saturating": False, "terminates": False}
    return CorpusInstance("sets-nonterm", {}, program, db, (), expected, "none")


# ---------------------------------------------------------------------------
# QBF evaluation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class QbfFormula:
    """Prenex CNF formula: ``quantifiers[i]`` in {'e','a'} binds variable
    i+1; clauses are tuples of nonzero ints, negative for negated."""

    quantifiers: str
    clauses: tuple

    def __post_init__(self):
        if not self.quantifiers or any(q not in "ea" for q in self.quantifiers):
            raise ValueError("quantifiers must be a nonempty string over 'e'/'a'")
        if not self.clauses:
            raise ValueError("at least one clause required")
        n = len(self.quantifiers)
        for clause in self.clauses:
            if not clause:
                raise ValueError("empty clause")
            for lit in clause:
                if lit == 0 or abs(lit) > n:
                    raise ValueError(f"literal {lit} out of range")

    def __str__(self) -> str:
        prefix = " ".join(f"{'E' if q == 'e' else 'A'}p{i+1}"
                          for i, q in enumerate(self.quantifiers))
        body = " & ".join("(" + " | ".join(("-" if l < 0 else "") + f"p{abs(l)}"
                                           for l in clause) + ")"
                          for clause in self.clauses)
        return f"{prefix} . {body}"


def qbf_truth(formula: QbfFormula) -> bool:
    """Brute-force truth by recursion over assignments (the test oracle)."""

    def sat(assignment: list) -> bool:
        return all(any((lit > 0) == assignment[abs(lit) - 1] for lit in clause)
                   for clause in formula.clauses)

    def recurse(i: int, assignment: list) -> bool:
        if i == len(formula.quantifiers):
            return sat(assignment)
        results = (recurse(i + 1, assignment + [b]) for b in (False, True))
        return any(results) if formula.quantifiers[i] == "e" else all(results)

    return recurse(0, [])


_QBF_RULES = """\
getsu(X,S) -> su(X,S,V), su(X,V,V) .
su(X,S,T), su(Y,S,S) -> su(Y,T,T) .
new(X,S), nxt(X,Y) -> getsu(Y,S) .
new(X,S), nxt(X,Y), su(Y,S,T) -> new(Y,T) .
su(X,S,S), in(X,C), first(C) -> csat(C,S) .
csat(C,S), next(C,D), su(X,S,S), in(X,D) -> csat(D,S) .
csat(C,S), last(C) -> sat(S) .
su(X,S,T), ex(X), sat(T) -> sat(S) .
su(X,S,T), pos(X), sat(T) -> satp(S) .
su(X,S,T), neg(X), sat(T) -> satn(S) .
satp(S), satn(S) -> sat(S) .
"""


def _lit_name(lit: int) -> str:
    return f"p{lit}" if lit > 0 else f"np{-lit}"


def gen_qbf(formula: QbfFormula) -> CorpusInstance:
    """Chase encoding of QBF truth over assignment sets.

    Assignments are sets of literal constants grown level by level; clause
    satisfaction is propagated along the clause order, and quantifier
    evaluation walks the assignment tree from the leaves to the empty set.
    The query asks whether the empty assignment is satisfying.
    """
    program = parse_program(_QBF_RULES)
    n = len(formula.quantifiers)
    facts = ["empty(s0) .", "new(start,s0) .", "nxt(start,p1) .", "nxt(start,np1) ."]
    for i in range(1, n):
        for a in (i, -i):
            for b in (i + 1, -(i + 1)):
                facts.append(f"nxt({_lit_name(a)},{_lit_name(b)}) .")
    for j, clause in enumerate(formula.clauses, start=1):
        for lit in clause:
            facts.append(f"in({_lit_name(lit)},c{j}) .")
    for j in range(2, len(formula.clauses) + 1):
        facts.append(f"next(c{j-1},c{j}) .")
    facts.append("first(c1) .")
    facts.append(f"last(c{len(formula.clauses)}) .")
    for i, q in enumerate(formula.quantifiers, start=1):
        if q == "e":
            facts.append(f"ex(p{i}) .")
            facts.append(f"ex(np{i}) .")
        facts.append(f"pos(p{i}) .")
        facts.append(f"neg(np{i}) .")
    db = parse_facts("\n".join(facts) + "\n", program.signature)
    query = parse_query("?- empty(V), sat(V) .", program.signature)
    expected = {"saturating": True, "rank": 1, "arboreous": True,
                "pathGuarded": True, "entailed": qbf_truth(formula)}
    return CorpusInstance("qbf", {"formula": str(formula)}, program, db,
                          (query,), expected, "qbf-brute-force")


# ---------------------------------------------------------------------------
# Binary counter over the doubling construction
# ---------------------------------------------------------------------------

_COUNTER_RULES = """\
first(Z) -> min(f,Z), max(t,Z), succ(f,t,Z) .
cat(X1,X2,Z,X), next(Z,Zp), up(X,Zp,Xb) -> cnu(X1,X2,Xb,Z,Zp) .
cnu(X1,X2,Xb,Z,Zp), cnu(X1,Y2,Yb,Z,Zp), succ(X2,Y2,Z) -> succ(Xb,Yb,Zp) .
cnu(X1,X2,Xb,Z,Zp), cnu(Y1,Y2,Yb,Z,Zp), succ(X1,Y1,Z), max(X2,Z), min(Y2,Z) -> succ(Xb,Yb,Zp) .
cnu(X1,X1,Xb,Z,Zp), min(X1,Z) -> min(Xb,Zp) .
cnu(X1,X1,Xb,Z,Zp), max(X1,Z) -> max(Xb,Zp) .
"""


def gen_counter(levels: int) -> CorpusInstance:
    """Sequence doubling plus a successor order over each level.

    Reading the sequences as binary numbers, the Datalog rules compute the
    numeric successor relation with unique minimum and maximum per level.
    """
    if levels < 1:
        raise ValueError("levels must be >= 1")
    base = _DEXP_RULES + _DEXP_PROPAGATION + _COUNTER_RULES
    program = parse_program(base)
    db = parse_facts(level_database(levels), program.signature)
    expected = {"saturating": True, "rank": 2, "arboreous": False}
    return CorpusInstance("counter", {"levels": levels}, program, db, (),
                          expected, "full-chase")


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------

def instance_from_name(name: str, **params) -> CorpusInstance:
    if name == "dexp":
        return gen_dexp(params.get("levels", 2), params.get("props", True))
    if name == "dexp-nonterm":
        return gen_dexp_nonterm()
    if name == "sets":
        return gen_sets(params.get("n", 2))
    if name == "sets-nonterm":
        return gen_sets_nonterm()
    if name == "qbf":
        return gen_qbf(QbfFormula(params.get("quantifiers", "ea"),
                                  params.get("clauses", ((1, -2), (-1, 2)))))
    if name == "counter":
        return gen_counter(params.get("levels", 1))
    raise KeyError(f"unknown corpus instance {name}")


CORPUS_NAMES = ("dexp", "dexp-nonterm", "sets", "sets-nonterm", "qbf", "counter")
