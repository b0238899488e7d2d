r"""Terms, atoms, rules, programs, databases, queries, and their text formats.

The concrete grammar:

  * variables start with an uppercase letter (``X``, ``Zp``),
  * constants start with a lowercase letter or digit, or are single-quoted,
    where ``\'``, ``\\`` and ``\n`` stand for a quote, a backslash and a
    line break,
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
        return "'" + self.name.replace("\\", "\\\\").replace("'", "\\'").replace("\n", "\\n") + "'"


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


class Position(NamedTuple):
    """An argument position of a predicate."""

    pred: str
    index: int      # 1-based

    def __str__(self) -> str:
        return f"<{self.pred},{self.index}>"


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
    frontier values followed by its body-only values; ``body_slots`` and
    ``head_slots`` read the body and the head over those slots followed by
    the existentials' (the ``step_variables``); ``head_plan`` binds all
    but the existentials on entry, so a head check takes the whole match.
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
        body_vars = self._variables_of(self.body)
        head_vars = self._variables_of(self.head)
        frontier = tuple(v for v in head_vars if v in body_vars)
        existentials = tuple(v for v in head_vars if v not in body_vars)
        body_only = tuple(v for v in body_vars if v not in head_vars)
        object.__setattr__(self, "frontier", frontier)
        object.__setattr__(self, "existentials", existentials)
        object.__setattr__(self, "body_only", body_only)
        object.__setattr__(self, "_variables", (*body_vars, *existentials))

    def _variables_of(self, atoms: tuple) -> dict:
        """The variables of ``atoms`` as dict keys, in first-occurrence
        order; a null is rejected."""
        seen: dict = {}
        for atom in atoms:
            for a in atom.args:
                if isinstance(a, Variable):
                    seen[a] = None
                elif isinstance(a, Null):
                    raise ValidationError(f"rule {self.rule_id}: nulls may not occur in rules")
        return seen

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
        (``matching.seeded_plans``).  A Datalog rule's plans keep only the
        frontier, which grounds the whole head, so they skip a match whose
        body-only values differ from an earlier one's only where nothing
        later reads them: it would ground the same head."""
        return matching.seeded_plans(self.body, self.body_plan.variables,
                                     len(self.frontier) if self.is_datalog else None)

    @functools.cached_property
    def seed_keys(self) -> tuple:
        """For a Datalog rule, what tells the seed facts of its seeded
        plans apart, one entry per body atom (``matching.seed_keys``): the
        chase skips a run whose seed fact repeats an earlier one's key."""
        return matching.seed_keys(self.body, self.body_plan.variables, len(self.frontier))

    @functools.cached_property
    def step_variables(self) -> tuple:
        """The variables of a step's slots: the body's, then the
        existentials."""
        return self.frontier + self.body_only + self.existentials

    @functools.cached_property
    def body_slots(self) -> tuple:
        """The body as ``(pred, args)`` pairs over the ``step_variables``
        (``matching.slot_atoms``): a match grounds it."""
        return matching.slot_atoms(self.body, self.step_variables)

    @functools.cached_property
    def head_slots(self) -> tuple:
        """The head as ``(pred, args)`` pairs over the ``step_variables``
        (``matching.slot_atoms``): a match grounds it in a Datalog rule, a
        match and its fresh nulls in any rule."""
        return matching.slot_atoms(self.head, self.step_variables)

    @functools.cached_property
    def head_plan(self) -> matching.Plan:
        """The head as a plan over the ``step_variables`` with the match,
        the frontier and body-only slots, bound on entry; the head reads
        no body-only slot."""
        return matching.Plan(self.head, self.step_variables,
                             len(self.frontier) + len(self.body_only))

    def variables(self) -> list:
        """The rule's variables in first-occurrence order, body first."""
        return list(self._variables)

    def __str__(self) -> str:
        b = ", ".join(str(a) for a in self.body)
        h = ", ".join(str(a) for a in self.head)
        return f"{b} -> {h} ."


class DatalogIndex:
    """Existential-free rules indexed for saturation.

    ``by_body_pred[pred]`` lists one ``(start, width, arity, head)`` entry
    per body atom with the predicate ``pred``, in rule order: the entry of
    the rule's plan seeded with that atom (``Plan.entry``), the atom's
    arity and the rule's ``head_slots``.  A predicate's entries are made on
    its first lookup, so a plan is compiled only once a fact of its seed's
    predicate comes up.  ``head_preds`` holds every predicate that some
    rule derives.
    """

    def __init__(self, rules: Iterable[Tgd]):
        seeded: dict = {}
        head_preds = set()
        for rule in rules:
            if rule.existentials:
                raise ValueError(f"rule {rule.rule_id} has existential variables")
            for atom, plan in rule.seeded_plans:
                seeded.setdefault(atom.pred, []).append((atom, plan, rule.head_slots))
            head_preds.update(h.pred for h in rule.head)
        self.by_body_pred = _SeededEntries(seeded)
        self.head_preds = frozenset(head_preds)


class _SeededEntries(dict):
    """Predicate -> the entries of ``DatalogIndex.by_body_pred``, made on
    the first lookup of each from ``seeded``: predicate -> ``(seed atom,
    plan, head)`` triples, which also keep the plans alive, since their
    compiled functions hold them only weakly."""

    def __init__(self, seeded: dict):
        super().__init__()
        self.seeded = seeded

    def __missing__(self, pred: str) -> list:
        entries = self[pred] = [(*plan.entry(), len(atom.args), head)
                                for atom, plan, head in self.seeded.get(pred, ())]
        return entries


class Program:
    """A renamed-apart rule set with its predicate signature."""

    def __init__(self, rules: Iterable[Tgd]):
        self.rules = tuple(rules)
        self.signature: dict = {}
        self.rule_of_var: dict = {}
        seen_ids: set = set()
        for rule in self.rules:
            for atom in rule.body + rule.head:
                arity = len(atom.args)
                known = self.signature.setdefault(atom.pred, arity)
                if known != arity:
                    raise ValidationError(
                        f"predicate {atom.pred} used with arities {known} and {arity}")
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

    @functools.cached_property
    def positions(self) -> dict:
        """Each variable's ``(body positions, head positions)``, two tuples
        of distinct ``Position``s in first-occurrence order, from one walk
        over each rule's atoms; built on first use.  The program keeps the
        map as long as it lives, so it holds tuples, not sets, and one
        ``Position`` object per position."""
        out: dict = {}
        interned: dict = {}
        for rule in self.rules:
            sides = {v: ({}, {}) for v in rule.variables()}
            for side, atoms in enumerate((rule.body, rule.head)):
                for atom in atoms:
                    for i, a in enumerate(atom.args, start=1):
                        if a in sides:
                            p = Position(atom.pred, i)
                            sides[a][side][interned.setdefault(p, p)] = None
            for v, (body, head) in sides.items():
                out[v] = (tuple(body), tuple(head))
        return out

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
    """A set of atoms, indexed by predicate and by argument.

    ``add`` rejects an atom that holds a variable, so every interpretation
    that the parsers and the tree runner build is ground.  Three callers
    insert without that check, through ``_insert``.  ``datalog.saturate``
    reads every term as an opaque value, so ``entails`` saturates a
    conjunction whose variables stand for themselves.  The chase's rule
    applications insert facts that are ground by construction: a match's
    values come from ground facts, the rule gives the constants, and the
    nulls are fresh.  ``copy`` inserts the atoms its source already holds.

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
    the two index dictionaries, through their ``get`` methods bound once
    here, and the numbers directly.
    """

    def __init__(self, atoms: Iterable[Atom] = ()):
        self._atoms: dict = {}       # atom -> its number, in insertion order
        self._by_pred: dict = {}
        self._by_arg: dict = {}
        # the lookups every plan run hands its join: both dicts live as long
        # as the interpretation, since ``discard_terms`` edits them in place
        self._pget = self._by_pred.get
        self._aget = self._by_arg.get
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

    def _insert(self, atom: Atom) -> bool:
        """``add`` without the ground test, for terms that are opaque values.
        (The body is repeated, not shared: ``add`` is hot enough in parsing
        that one more call shows.)"""
        if atom in self._atoms:
            return False
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
        """A new interpretation of the same atoms, in the same order."""
        out = Interpretation()
        insert = out._insert
        for atom in self._atoms:
            insert(atom)
        return out

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
# Tokenizer and parser
# ---------------------------------------------------------------------------

import re

_PLAIN_CONSTANT = re.compile(r"[a-z0-9][A-Za-z0-9_]*")

# One match per token: the whitespace and comments in front of it, then the
# token itself.  A character that starts no token is a token of its own, and
# the end of the text an empty one.  The last alternative matches whatever
# the others do not, so the scan never backtracks into what it skipped.
_TOKEN_RE = re.compile(
    r"""(?:\s+|%[^\n]*)*
        ( -> | \?- | [(),.]
        | '(?:[^'\\\n]|\\[\\n'])*'
        | [A-Za-z0-9_]+
        | .?
        )""",
    re.VERBOSE,
)

_UPPER = frozenset("ABCDEFGHIJKLMNOPQRSTUVWXYZ")
_NAME_START = frozenset("abcdefghijklmnopqrstuvwxyz0123456789_") | _UPPER
# every one-character token that a text may hold; any other is an error
_ONE_CHARACTER_TOKENS = frozenset("(),.") | _NAME_START

_ESCAPE = re.compile(r"\\(.)")
_ESCAPED = {"\\": "\\", "n": "\n", "'": "'"}


class _Parser:
    """Reads the token strings of one text by index.  A token's line and
    column are worked out only when an error reports them."""

    def __init__(self, text: str):
        self.text = text
        self.tokens = _TOKEN_RE.findall(text)   # the last one is always ""
        self.pos = 0

    def error(self, message: str, index: Optional[int] = None) -> ParseError:
        """The error at token ``index`` (the current one by default).  A
        character that starts no token, anywhere in the text, is reported
        instead, at the first such character."""
        for i, tok in enumerate(self.tokens):
            if len(tok) == 1 and tok not in _ONE_CHARACTER_TOKENS:
                index, message = i, f"unexpected character {tok!r}"
                break
        if index is None:
            index = self.pos
        offset = next(itertools.islice(_TOKEN_RE.finditer(self.text), index, None)).start(1)
        return ParseError(message, self.text.count("\n", 0, offset) + 1,
                          offset - self.text.rfind("\n", 0, offset))

    def take(self, token: str, kind: str) -> None:
        found = self.tokens[self.pos]
        if found != token:
            raise self.error(f"expected {kind}, found {found or 'end of input'!r}")
        self.pos += 1

    def parse_atom(self, var_ids: dict, fresh: Iterator[int]) -> tuple:
        """The atom at the current token, and the index of its predicate."""
        tokens = self.tokens
        at = self.pos
        pred = tokens[at]
        if pred[:1] not in _NAME_START:
            raise self.error(f"expected name, found {pred or 'end of input'!r}")
        if pred[0] in _UPPER:
            raise self.error(f"predicate names start lowercase: {pred}")
        self.pos = at + 1
        self.take("(", "lpar")
        i = self.pos
        args = []
        if tokens[i] != ")":
            while True:
                tok = tokens[i]
                first = tok[:1]
                if first in _UPPER:
                    var = var_ids.get(tok)
                    if var is None:
                        var = var_ids[tok] = Variable(next(fresh), tok)
                    args.append(var)
                elif first in _NAME_START:
                    args.append(Constant(tok))
                elif first == "'" and len(tok) > 1:
                    args.append(Constant(_ESCAPE.sub(lambda m: _ESCAPED[m[1]], tok[1:-1])))
                else:
                    raise self.error(f"expected a term, found {tok!r}", i)
                i += 1
                if tokens[i] != ",":
                    break
                i += 1
        self.pos = i
        self.take(")", "rpar")
        return Atom(pred, tuple(args)), at

    def parse_atom_list(self, var_ids: dict, fresh: Iterator[int]) -> list:
        out = [self.parse_atom(var_ids, fresh)]
        while self.tokens[self.pos] == ",":
            self.pos += 1
            out.append(self.parse_atom(var_ids, fresh))
        return out

    def check_arity(self, signature: dict, atom: Atom, at: int) -> None:
        arity = len(atom.args)
        known = signature.setdefault(atom.pred, arity)
        if known != arity:
            raise self.error(
                f"predicate {atom.pred} used with arity {arity}, expected {known}", at)


def parse_program(text: str) -> Program:
    """Parse a rule set; head-only variables become existential."""
    parser = _Parser(text)
    fresh = itertools.count(1)
    rules = []
    signature: dict = {}
    rule_id = itertools.count(1)
    while parser.tokens[parser.pos]:
        var_ids: dict = {}
        body = parser.parse_atom_list(var_ids, fresh)
        parser.take("->", "arrow")
        head = parser.parse_atom_list(var_ids, fresh)
        parser.take(".", "dot")
        for atom, at in body + head:
            parser.check_arity(signature, atom, at)
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
    while parser.tokens[parser.pos]:
        var_ids: dict = {}
        atom, at = parser.parse_atom(var_ids, fresh)
        parser.take(".", "dot")
        if var_ids:
            name = next(iter(var_ids))
            raise parser.error(f"fact is not ground: variable {name}", at)
        parser.check_arity(signature, atom, at)
        db.add(atom)
    return db


def parse_query(text: str, signature: Optional[dict] = None) -> BCQ:
    parser = _Parser(text)
    fresh = itertools.count(1)
    signature = dict(signature) if signature else {}
    parser.take("?-", "qmark")
    if parser.tokens[parser.pos] == ".":
        raise parser.error("empty query")
    var_ids: dict = {}
    atoms = parser.parse_atom_list(var_ids, fresh)
    parser.take(".", "dot")
    for atom, at in atoms:
        parser.check_arity(signature, atom, at)
    if parser.tokens[parser.pos]:
        raise parser.error("trailing input after query")
    return BCQ(tuple(a for a, _ in atoms))


# matching imports this module, so it is imported once this one is complete
from . import matching  # noqa: E402
