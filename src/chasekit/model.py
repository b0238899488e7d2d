"""Terms, atoms, rules, programs, databases, queries, and their text formats.

The concrete grammar:

  * variables start with an uppercase letter (``X``, ``Zp``),
  * constants start with a lowercase letter or digit, or are single-quoted,
  * a rule is ``B1, ..., Bn -> H1, ..., Hm .``,
  * a fact is a ground atom terminated by ``.``,
  * a query is ``?- A1, ..., Ak .``,
  * ``%`` starts a comment that runs to the end of the line.

Variables that occur only in a rule head are existential; every rule set is
renamed apart mechanically (each variable id occurs in exactly one rule).

Terms and atoms are plain tuples, so hashing and equality are the tuple's
own, computed in C, and hold across processes and pickling.  A term is its
tag followed by its fields, ``("c", name)``, ``("v", id, name)`` or
``("n", id, name)``, and an ``Atom`` is the named tuple ``(pred, args)``.
The tag keeps a variable and a null with the same fields apart.  It comes
first so that each hash is the hash of exactly that tuple: set and dict
iteration order, and with it every pinned trace and report, follows these
hash values, so the layout must not change.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from operator import itemgetter
from typing import Iterable, Iterator, Mapping, NamedTuple, Optional, Union


class KbError(Exception):
    """Base class for model-level errors."""


class ParseError(KbError):
    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"{line}:{column}: {message}")
        self.message = message
        self.line = line
        self.column = column


class ValidationError(KbError):
    pass


# ---------------------------------------------------------------------------
# Terms
# ---------------------------------------------------------------------------

class _Term(tuple):
    """A term is the tuple ``(tag, *fields)``; ``name`` is the last field."""

    __slots__ = ()

    name = property(itemgetter(-1))

    def __getnewargs__(self) -> tuple:
        return self[1:]

    def __str__(self) -> str:
        return self[-1]

    def __repr__(self) -> str:
        return f"{type(self).__name__}({', '.join(map(repr, self[1:]))})"


class Constant(_Term):
    __slots__ = ()

    def __new__(cls, name: str):
        return tuple.__new__(cls, ("c", name))

    def __str__(self) -> str:
        if _PLAIN_CONSTANT.fullmatch(self.name):
            return self.name
        return "'" + self.name.replace("'", "\\'") + "'"


class _Numbered(_Term):
    __slots__ = ()

    id = property(itemgetter(1))

    def __new__(cls, id: int, name: str):
        return tuple.__new__(cls, (cls._tag, id, name))


class Variable(_Numbered):
    __slots__ = ()
    _tag = "v"


class Null(_Numbered):
    __slots__ = ()
    _tag = "n"


Term = Union[Constant, Variable, Null]


# ---------------------------------------------------------------------------
# Atoms
# ---------------------------------------------------------------------------

class Atom(NamedTuple):
    pred: str
    args: tuple

    def __str__(self) -> str:
        return f"{self.pred}({', '.join(str(a) for a in self.args)})"

    def __repr__(self) -> str:
        return f"Atom({self})"

    @property
    def arity(self) -> int:
        return len(self.args)

    def variables(self) -> Iterator[Variable]:
        for a in self.args:
            if isinstance(a, Variable):
                yield a

    def is_ground(self) -> bool:
        return not any(isinstance(a, Variable) for a in self.args)


def atoms_variables(atoms: Iterable[Atom]) -> list:
    """Distinct variables of a conjunction, in first-occurrence order."""
    seen: dict = {}
    for atom in atoms:
        for v in atom.variables():
            seen.setdefault(v, None)
    return list(seen)


def substitute(atom: Atom, subst: Mapping[Variable, Term]) -> Atom:
    return Atom(atom.pred, tuple(subst.get(a, a) if isinstance(a, Variable) else a
                                 for a in atom.args))


# ---------------------------------------------------------------------------
# Rules and programs
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Tgd:
    """One existential rule ``body -> head``.

    ``frontier`` holds the variables shared between body and head,
    ``existentials`` the head-only variables (in head occurrence order),
    ``body_only`` the remaining body variables.

    The rule's joins are compiled once, on first use, and shared by every
    engine that applies it.  ``body_plan`` and ``seeded_plans`` work over
    the slots of ``frontier + body_only``, so a match is the tuple of its
    frontier values followed by its body-only values; ``head_slots`` reads
    the head over those slots followed by the existentials' (the
    ``step_variables``); ``head_plan`` binds the frontier on entry.
    """

    rule_id: int
    body: tuple
    head: tuple
    frontier: tuple = ()
    existentials: tuple = ()
    body_only: tuple = ()

    def __post_init__(self):
        if not self.body or not self.head:
            raise ValidationError(f"rule {self.rule_id}: body and head must be nonempty")
        for atom in self.body + self.head:
            for a in atom.args:
                if isinstance(a, Null):
                    raise ValidationError(f"rule {self.rule_id}: nulls may not occur in rules")
        body_vars = atoms_variables(self.body)
        head_vars = atoms_variables(self.head)
        body_set = set(body_vars)
        frontier = tuple(v for v in head_vars if v in body_set)
        existentials = tuple(v for v in head_vars if v not in body_set)
        body_only = tuple(v for v in body_vars if v not in set(frontier))
        object.__setattr__(self, "frontier", frontier)
        object.__setattr__(self, "existentials", existentials)
        object.__setattr__(self, "body_only", body_only)

    @property
    def is_datalog(self) -> bool:
        return not self.existentials

    @functools.cached_property
    def body_plan(self) -> matching.Plan:
        """The body as a plan that matches its atoms in the given order."""
        return matching.Plan(self.body, self.frontier + self.body_only, reorder=False)

    @functools.cached_property
    def seeded_plans(self) -> list:
        """The body's plans seeded with each body atom in turn
        (``matching.seeded_plans``)."""
        return matching.seeded_plans(self.body, self.body_plan.variables)

    @functools.cached_property
    def step_variables(self) -> tuple:
        """The variables of a step's slots: the body's, then the
        existentials."""
        return self.frontier + self.body_only + self.existentials

    @functools.cached_property
    def head_slots(self) -> tuple:
        """The head as ``(pred, args)`` pairs over the ``step_variables``
        (``matching.slot_atoms``): a match grounds it in a Datalog rule, a
        match and its fresh nulls in any rule."""
        return matching.slot_atoms(self.head, self.step_variables)

    @functools.cached_property
    def head_plan(self) -> matching.Plan:
        """The head as a plan with the frontier bound on entry (frontier
        slots first, then the existentials)."""
        return matching.Plan(self.head, self.frontier + self.existentials, len(self.frontier))

    def variables(self) -> list:
        return atoms_variables(self.body + self.head)

    def __str__(self) -> str:
        b = ", ".join(str(a) for a in self.body)
        h = ", ".join(str(a) for a in self.head)
        return f"{b} -> {h} ."


class DatalogIndex:
    """Existential-free rules indexed for saturation.

    ``by_body_pred`` maps a predicate to one ``(plan, head)`` pair per body
    atom with that predicate, in rule order: the rule's seeded plan for
    that atom and its ``head_slots``; ``head_preds`` holds every predicate
    that some rule derives.
    """

    def __init__(self, rules: Iterable[Tgd]):
        self.by_body_pred: dict = {}
        head_preds = set()
        for rule in rules:
            if rule.existentials:
                raise ValueError(f"rule {rule.rule_id} has existential variables")
            for atom, plan in rule.seeded_plans:
                self.by_body_pred.setdefault(atom.pred, []).append((plan, rule.head_slots))
            head_preds.update(h.pred for h in rule.head)
        self.head_preds = frozenset(head_preds)


class Program:
    """A renamed-apart rule set with its predicate signature."""

    def __init__(self, rules: Iterable[Tgd]):
        self.rules = tuple(rules)
        self.signature: dict = {}
        self.rule_of_var: dict = {}
        seen_ids: set = set()
        for rule in self.rules:
            for atom in rule.body + rule.head:
                arity = self.signature.setdefault(atom.pred, atom.arity)
                if arity != atom.arity:
                    raise ValidationError(
                        f"predicate {atom.pred} used with arities {arity} and {atom.arity}")
            for v in rule.variables():
                if v.id in seen_ids:
                    raise ValidationError(
                        f"variable id {v.id} ({v.name}) occurs in more than one rule")
                seen_ids.add(v.id)
                self.rule_of_var[v] = rule
        self._datalog = tuple(r for r in self.rules if r.is_datalog)
        self.datalog_ids = frozenset(r.rule_id for r in self._datalog)
        # on a repeated rule id, the first rule with it wins
        self._by_id = {r.rule_id: r for r in reversed(self.rules)}

    def datalog_rules(self) -> tuple:
        return self._datalog

    @functools.cached_property
    def datalog_index(self) -> DatalogIndex:
        """The Datalog part indexed for saturation, built on first use."""
        return DatalogIndex(self._datalog)

    def existential_rules(self) -> tuple:
        return tuple(r for r in self.rules if not r.is_datalog)

    def rule(self, rule_id: int) -> Tgd:
        return self._by_id[rule_id]

    @functools.cached_property
    def max_var_id(self) -> int:
        return max((v.id for v in self.rule_of_var), default=0)

    def fresh_variables(self, prefix: str = "F") -> Iterator[Variable]:
        counter = itertools.count(self.max_var_id + 1)
        for i in counter:
            yield Variable(i, f"{prefix}{i}")

    def constants(self) -> tuple:
        seen: dict = {}
        for rule in self.rules:
            for atom in rule.body + rule.head:
                for a in atom.args:
                    if isinstance(a, Constant):
                        seen.setdefault(a, None)
        return tuple(seen)

    def to_text(self) -> str:
        return "\n".join(str(r) for r in self.rules) + "\n"

    def __len__(self) -> int:
        return len(self.rules)

    def __iter__(self) -> Iterator[Tgd]:
        return iter(self.rules)


# ---------------------------------------------------------------------------
# Interpretations and databases
# ---------------------------------------------------------------------------

class Interpretation:
    """A set of variable-free atoms, indexed by predicate and by argument.

    Iteration is in insertion order, and so is every index list, which
    keeps every consumer deterministic.  ``_atoms`` maps each atom to its
    number: the count of ``watermark`` calls before it was added, from a
    counter that never goes back.  The atoms present when ``watermark``
    returned ``b`` are exactly those numbered below ``b``, and the atoms
    added between two calls share one number, so numbering costs no memory
    per atom.  (The number was once kept per atom and dropped as unused;
    bounded plan runs read it now.)  ``discard_terms`` deletes atoms in
    place, leaves the others in their order and the counter where it is,
    so every index list stays sorted by number.  ``matching.Plan`` reads
    the two index dictionaries and the numbers directly.
    """

    def __init__(self, atoms: Iterable[Atom] = ()):
        self._atoms: dict = {}       # atom -> its number, in insertion order
        self._by_pred: dict = {}
        self._by_arg: dict = {}
        self._number = 0
        for atom in atoms:
            self.add(atom)

    def add(self, atom: Atom) -> bool:
        """Insert ``atom``; returns True when it was not present before."""
        if atom in self._atoms:
            return False
        if not atom.is_ground():
            raise ValidationError(f"interpretations hold ground atoms only: {atom}")
        self._atoms[atom] = self._number
        self._by_pred.setdefault(atom.pred, []).append(atom)
        for i, a in enumerate(atom.args):
            self._by_arg.setdefault((atom.pred, i, a), []).append(atom)
        return True

    def watermark(self) -> int:
        """A bound that the atoms present now are numbered below, and every
        atom added later is not."""
        self._number += 1
        return self._number

    def discard_terms(self, terms: Iterable[Term]) -> None:
        """Delete every atom that mentions one of ``terms``, in place.

        The atoms are found through the argument index, and only the index
        lists that hold one of them are rebuilt.  A list that becomes empty
        is dropped, so the indexes equal those of a set built afresh from
        the surviving atoms in their order.
        """
        terms = set(terms)
        doomed: set = set()
        for pred, atoms in self._by_pred.items():
            for i in range(len(atoms[0].args)):
                for t in terms:
                    doomed.update(self._by_arg.get((pred, i, t), ()))
        if not doomed:
            return
        for atom in doomed:
            del self._atoms[atom]
        for index, keys in ((self._by_pred, {a.pred for a in doomed}),
                            (self._by_arg, {(a.pred, i, t) for a in doomed
                                            for i, t in enumerate(a.args)})):
            for key in keys:
                kept = [a for a in index[key] if a not in doomed]
                if kept:
                    index[key] = kept
                else:
                    del index[key]

    def __contains__(self, atom: Atom) -> bool:
        return atom in self._atoms

    def __len__(self) -> int:
        return len(self._atoms)

    def __iter__(self) -> Iterator[Atom]:
        return iter(self._atoms)

    def by_pred(self, pred: str) -> list:
        return self._by_pred.get(pred, [])

    def copy(self) -> "Interpretation":
        return Interpretation(self._atoms)

    def terms(self) -> Iterator[Term]:
        seen: set = set()
        for atom in self._atoms:
            for a in atom.args:
                if a not in seen:
                    seen.add(a)
                    yield a

    def nulls(self) -> list:
        return [t for t in self.terms() if isinstance(t, Null)]

    def to_text(self) -> str:
        return "\n".join(f"{a} ." for a in self._atoms) + ("\n" if self._atoms else "")


class Database(Interpretation):
    """A finite, null-free interpretation."""

    def add(self, atom: Atom) -> bool:
        for a in atom.args:
            if isinstance(a, Null):
                raise ValidationError(f"databases are null-free: {atom}")
        return super().add(atom)


@dataclass(frozen=True)
class BCQ:
    """Boolean conjunctive query; every variable is existential."""

    atoms: tuple

    def __post_init__(self):
        if not self.atoms:
            raise ValidationError("empty query")
        for atom in self.atoms:
            for a in atom.args:
                if isinstance(a, Null):
                    raise ValidationError("queries may not mention nulls")

    def variables(self) -> list:
        return atoms_variables(self.atoms)

    def __str__(self) -> str:
        return "?- " + ", ".join(str(a) for a in self.atoms) + " ."

    def __len__(self) -> int:
        return len(self.atoms)


# ---------------------------------------------------------------------------
# Tokenizer
# ---------------------------------------------------------------------------

import re

_PLAIN_CONSTANT = re.compile(r"[a-z0-9][A-Za-z0-9_]*")

_TOKEN_RE = re.compile(
    r"""(?P<ws>\s+)
      | (?P<comment>%[^\n]*)
      | (?P<arrow>->)
      | (?P<qmark>\?-)
      | (?P<lpar>\()
      | (?P<rpar>\))
      | (?P<comma>,)
      | (?P<dot>\.)
      | (?P<quoted>'(?:[^'\\\n]|\\')*')
      | (?P<name>[A-Za-z0-9_][A-Za-z0-9_]*)
    """,
    re.VERBOSE,
)


@dataclass
class _Token:
    kind: str
    text: str
    line: int
    column: int


def _tokenize(text: str) -> list:
    tokens = []
    line, col = 1, 1
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m:
            raise ParseError(f"unexpected character {text[pos]!r}", line, col)
        kind = m.lastgroup
        lexeme = m.group()
        if kind not in ("ws", "comment"):
            tokens.append(_Token(kind, lexeme, line, col))
        newlines = lexeme.count("\n")
        if newlines:
            line += newlines
            col = len(lexeme) - lexeme.rfind("\n")
        else:
            col += len(lexeme)
        pos = m.end()
    tokens.append(_Token("eof", "", line, col))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.pos = 0

    @property
    def here(self) -> _Token:
        return self.tokens[self.pos]

    def take(self, kind: str) -> _Token:
        tok = self.here
        if tok.kind != kind:
            raise ParseError(f"expected {kind}, found {tok.text or 'end of input'!r}",
                             tok.line, tok.column)
        self.pos += 1
        return tok

    def at_end(self) -> bool:
        return self.here.kind == "eof"

    def parse_term(self, var_ids: dict, fresh: Iterator[int]) -> Term:
        tok = self.here
        if tok.kind == "quoted":
            self.pos += 1
            return Constant(tok.text[1:-1].replace("\\'", "'"))
        if tok.kind == "name":
            self.pos += 1
            if tok.text[0].isupper():
                if tok.text not in var_ids:
                    var_ids[tok.text] = Variable(next(fresh), tok.text)
                return var_ids[tok.text]
            return Constant(tok.text)
        raise ParseError(f"expected a term, found {tok.text!r}", tok.line, tok.column)

    def parse_atom(self, var_ids: dict, fresh: Iterator[int]) -> tuple:
        tok = self.take("name")
        if tok.text[0].isupper():
            raise ParseError(f"predicate names start lowercase: {tok.text}", tok.line, tok.column)
        self.take("lpar")
        args = []
        if self.here.kind != "rpar":
            args.append(self.parse_term(var_ids, fresh))
            while self.here.kind == "comma":
                self.pos += 1
                args.append(self.parse_term(var_ids, fresh))
        self.take("rpar")
        return Atom(tok.text, tuple(args)), tok

    def parse_atom_list(self, var_ids: dict, fresh: Iterator[int]) -> list:
        out = [self.parse_atom(var_ids, fresh)]
        while self.here.kind == "comma":
            self.pos += 1
            out.append(self.parse_atom(var_ids, fresh))
        return out


def _check_arity(signature: dict, atom: Atom, tok: _Token):
    known = signature.setdefault(atom.pred, atom.arity)
    if known != atom.arity:
        raise ParseError(
            f"predicate {atom.pred} used with arity {atom.arity}, expected {known}",
            tok.line, tok.column)


def parse_program(text: str) -> Program:
    """Parse a rule set; head-only variables become existential."""
    parser = _Parser(text)
    fresh = itertools.count(1)
    rules = []
    signature: dict = {}
    rule_id = itertools.count(1)
    while not parser.at_end():
        var_ids: dict = {}
        body = parser.parse_atom_list(var_ids, fresh)
        parser.take("arrow")
        head = parser.parse_atom_list(var_ids, fresh)
        parser.take("dot")
        for atom, tok in body + head:
            _check_arity(signature, atom, tok)
        rules.append(Tgd(next(rule_id),
                         tuple(a for a, _ in body),
                         tuple(a for a, _ in head)))
    return Program(rules)


def parse_facts(text: str, signature: Optional[dict] = None) -> Database:
    """Parse ground facts; the arity table extends consistently on first use."""
    parser = _Parser(text)
    fresh = itertools.count(1)
    signature = dict(signature) if signature else {}
    db = Database()
    while not parser.at_end():
        var_ids: dict = {}
        atom, tok = parser.parse_atom(var_ids, fresh)
        parser.take("dot")
        if var_ids:
            name = next(iter(var_ids))
            raise ParseError(f"fact is not ground: variable {name}", tok.line, tok.column)
        _check_arity(signature, atom, tok)
        db.add(atom)
    return db


def parse_query(text: str, signature: Optional[dict] = None) -> BCQ:
    parser = _Parser(text)
    fresh = itertools.count(1)
    signature = dict(signature) if signature else {}
    tok = parser.take("qmark")
    if parser.here.kind == "dot":
        raise ParseError("empty query", parser.here.line, parser.here.column)
    var_ids: dict = {}
    atoms = parser.parse_atom_list(var_ids, fresh)
    parser.take("dot")
    for atom, t in atoms:
        _check_arity(signature, atom, t)
    if parser.here.kind != "eof":
        raise ParseError("trailing input after query", parser.here.line, parser.here.column)
    return BCQ(tuple(a for a, _ in atoms))


# matching imports this module, so it is imported once this one is complete
from . import matching  # noqa: E402
