import copy
import hashlib
import os
import pickle
import random
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from chasekit.depgraph import DepEdge
from chasekit.model import (Atom, Constant, Database, Interpretation, Null, ParseError,
                            Program, Tgd, ValidationError, Variable, parse_facts,
                            parse_program, parse_query)

_SRC = str(Path(__file__).resolve().parent.parent / "src")


def test_head_only_variable_is_existential():
    p = parse_program("p(X) -> q(X,V) .")
    assert len(p) == 1
    rule = p.rules[0]
    assert [v.name for v in rule.frontier] == ["X"]
    assert [v.name for v in rule.existentials] == ["V"]
    assert not rule.is_datalog


def test_dexp_program_shape():
    from chasekit.corpus import gen_dexp
    inst = gen_dexp(3, False)
    assert len(inst.program) == 5
    assert inst.program.datalog_ids == {1, 3, 5}
    assert inst.program.signature == {
        "first": 1, "lvl": 2, "cat": 4, "part": 2, "next": 2, "up": 3}


def test_unlisted_head_variable_is_existential_with_empty_frontier():
    p = parse_program("p(X) -> q(Y) .")
    rule = p.rules[0]
    assert [v.name for v in rule.existentials] == ["Y"]
    assert rule.frontier == ()


def test_same_names_renamed_apart_across_rules():
    p = parse_program("p(X) -> q(X) . q(X) -> r(X) .")
    ids = [v.id for r in p.rules for v in r.variables()]
    assert len(ids) == len(set(ids))


def test_arity_mismatch_rejected():
    with pytest.raises(ParseError) as err:
        parse_program("p(X) -> q(X) . q(X,Y) -> r(X) .")
    assert "q" in str(err.value)


def test_syntax_error_carries_position():
    with pytest.raises(ParseError) as err:
        parse_program("p(X) ->\n q(X ,, Y) .")
    assert err.value.line == 2


def test_comments_and_quoted_constants():
    p = parse_program("% a comment\np('hello world') -> q('hello world') .")
    const = p.rules[0].body[0].args[0]
    assert const == Constant("hello world")


@given(st.text())
def test_any_constant_name_round_trips(name):
    c, x = Constant(name), Variable(1, "X")
    db = Database([Atom("p", (c,))])
    assert list(parse_facts(db.to_text())) == list(db)
    program = Program([Tgd(1, (Atom("p", (c, x)),), (Atom("q", (x, c)),))])
    (rule,) = parse_program(program.to_text()).rules
    assert rule.body[0].args[0] == c and rule.head[0].args[1] == c


def test_quoted_constant_escapes():
    assert str(Constant("a\\")) == "'a\\\\'"
    assert str(Constant("x\ny")) == "'x\\ny'"
    (atom,) = parse_facts("p('\\\\n', 'it\\'s', '\\n') .")
    assert atom.args == (Constant("\\n"), Constant("it's"), Constant("\n"))
    for text in ("p('a\\') .", "p('a\\b') .", "p('a\nb') ."):
        with pytest.raises(ParseError) as err:
            parse_facts(text)
        assert (err.value.message, err.value.line, err.value.column) == (
            "unexpected character \"'\"", 1, 3)


def test_facts_parsing_and_arity_extension():
    db = parse_facts("first(1) . last(3) . next(1,2) . next(2,3) .")
    assert len(db) == 4
    assert Atom("next", (Constant("1"), Constant("2"))) in db


def test_empty_fact_text():
    assert len(parse_facts("")) == 0


def test_fact_arity_conflict():
    with pytest.raises(ParseError):
        parse_facts("next(1,2) . next(1) .")


def test_non_ground_fact_rejected():
    with pytest.raises(ParseError):
        parse_facts("p(X) .")


def test_query_parsing():
    q = parse_query("?- sat(V), empty(V) .")
    assert len(q) == 2
    assert len(q.variables()) == 1


def test_ground_query():
    q = parse_query("?- p(a) .")
    assert q.variables() == []


def test_empty_query_rejected():
    with pytest.raises(ParseError):
        parse_query("?- .")


def test_round_trip_program():
    text = ("p(X), q(X,Y) -> r(X,V), s(V) .\n"
            "r(A,B) -> p(B) .\n")
    p1 = parse_program(text)
    p2 = parse_program(p1.to_text())
    assert p1.to_text() == p2.to_text()
    assert p1.datalog_ids == p2.datalog_ids
    assert [len(r.frontier) for r in p1.rules] == [len(r.frontier) for r in p2.rules]


def test_datalog_part_is_exactly_existential_free():
    p = parse_program("a(X) -> b(X) . b(X) -> c(X,V) .")
    assert p.datalog_ids == {1}
    assert [r.rule_id for r in p.existential_rules()] == [2]


def test_datalog_rules_are_built_once():
    p = parse_program("a(X) -> b(X) . b(X) -> c(X,V) . c(X,Y) -> a(Y) .")
    assert [r.rule_id for r in p.datalog_rules()] == [1, 3]
    assert p.datalog_rules() is p.datalog_rules()


def test_database_rejects_nulls():
    from chasekit.model import Null
    db = Database()
    with pytest.raises(ValidationError):
        db.add(Atom("p", (Null(1, "n1"),)))


def test_interpretation_rejects_variables():
    interp = Interpretation()
    with pytest.raises(ValidationError):
        interp.add(Atom("p", (Variable(1, "X"),)))


_TERMS = [Constant("a"), Constant("b"), Null(1, "n1"), Null(2, "n2"), Null(3, "n3")]
_FACT = st.builds(lambda pred, args: Atom(pred, tuple(args[:{"p": 1, "q": 2, "r": 0}[pred]])),
                  st.sampled_from("pqr"), st.lists(st.sampled_from(_TERMS), min_size=2,
                                                    max_size=2))


@given(st.lists(_FACT, max_size=25), st.lists(st.sampled_from(_TERMS), max_size=3))
def test_discard_terms_equals_a_fresh_build_of_the_survivors(facts, terms):
    interp = Interpretation(facts)
    interp.discard_terms(terms)
    survivors = [a for a in dict.fromkeys(facts) if not set(a.args) & set(terms)]
    assert list(interp) == survivors
    fresh = Interpretation(survivors)
    assert interp._by_pred == fresh._by_pred
    assert interp._by_arg == fresh._by_arg
    interp.add(Atom("q", (Null(1, "n1"), Constant("a"))))   # adds after a deletion
    fresh.add(Atom("q", (Null(1, "n1"), Constant("a"))))
    assert list(interp) == list(fresh) and interp._by_arg == fresh._by_arg


def test_rule_rejects_nulls():
    from chasekit.model import Null, Tgd
    with pytest.raises(ValidationError):
        Tgd(1, (Atom("p", (Null(1, "n"),)),), (Atom("q", (Constant("a"),)),))


def test_hashes_are_those_of_the_tagged_tuples():
    x, y = Variable(1, "X"), Variable(2, "Y")
    assert hash(Constant("a")) == hash(("c", "a"))
    assert hash(x) == hash(("v", 1, "X"))
    assert hash(Null(3, "n1")) == hash(("n", 3, "n1"))
    args = (Constant("a"), x, Null(3, "n1"))
    assert hash(Atom("p", args)) == hash(("p", args))
    assert hash(DepEdge(x, y, x)) == hash((x, y, x))


def test_terms_with_the_same_fields_differ_by_kind():
    v, n, c = Variable(1, "X"), Null(1, "X"), Constant("X")
    assert v != n and n != c and v != c
    assert len({v, n, c}) == 3


@pytest.mark.parametrize("value", [
    Constant("a"), Constant("it's"), Variable(1, "X"), Null(2, "n1"),
    Atom("p", (Constant("a"), Variable(1, "X"))),
    DepEdge(Variable(1, "X"), Variable(2, "Y"), Variable(1, "X")),
])
def test_copy_and_pickle_keep_value_and_class(value):
    for other in (copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
        assert other == value and type(other) is type(value)
        assert repr(other) == repr(value)


_KEYS = """[Constant("a"), Variable(1, "X"), Null(2, "n1"),
           Atom("p", (Constant("a"), Null(2, "n1")))]"""

_DUMP = f"""
import pickle, sys
from chasekit.model import Atom, Constant, Null, Variable
keys = {_KEYS}
sys.stdout.buffer.write(pickle.dumps({{k: i for i, k in enumerate(keys)}}))
"""

_LOAD = f"""
import pickle, sys
from chasekit.model import Atom, Constant, Null, Variable
keys = {_KEYS}
table = pickle.loads(sys.stdin.buffer.read())
print([table.get(k) for k in keys])
"""


def _run(script: str, seed: str, data: bytes = b"") -> bytes:
    env = dict(os.environ, PYTHONPATH=_SRC, PYTHONHASHSEED=seed)
    return subprocess.run([sys.executable, "-c", script], input=data, env=env,
                          capture_output=True, check=True, timeout=60).stdout


def test_pickled_keys_hit_under_another_hash_seed():
    table = _run(_DUMP, "1")
    assert _run(_LOAD, "2", table).decode().strip() == "[0, 1, 2, 3]"


_ident = st.text(alphabet="abcdefgh", min_size=1, max_size=4)
_var = st.text(alphabet="XYZUVW", min_size=1, max_size=2)


@st.composite
def _program_text(draw):
    rules = []
    for _ in range(draw(st.integers(1, 4))):
        vars_ = draw(st.lists(_var, min_size=1, max_size=3, unique=True))
        body = ", ".join(f"{draw(_ident)}({', '.join(vars_)})"
                         for _ in range(draw(st.integers(1, 2))))
        head_vars = vars_ + draw(st.lists(st.sampled_from(["V1", "V2"]),
                                          max_size=1, unique=True))
        head = f"{draw(_ident)}({', '.join(head_vars)})"
        rules.append(f"{body} -> {head} .")
    return "\n".join(rules)


@given(_program_text())
def test_parse_is_renamed_apart_and_reparses(text):
    try:
        p = parse_program(text)
    except ParseError:
        return
    ids = [v.id for r in p.rules for v in r.variables()]
    assert len(ids) == len(set(ids))
    again = parse_program(p.to_text())
    assert again.to_text() == p.to_text()


def _corpus_texts() -> list:
    """Rule, fact and query texts from the corpus: a union of its programs
    under renamed predicates, QBF and sets facts, and queries."""
    from chasekit import corpus
    qbf = corpus.gen_qbf(corpus.QbfFormula("aea", ((1, -2), (2, 3), (-1, -3))))
    parts = [corpus.gen_dexp(1, True), corpus.gen_counter(1), corpus.gen_sets(2), qbf,
             corpus.gen_dexp_nonterm(), corpus.gen_sets_nonterm()]
    union = "".join(re.sub(r"\b([a-z]\w*)\(", rf"u{i}_\1(", inst.program.to_text())
                    for i, inst in enumerate(parts))
    return [union, qbf.database.to_text(), corpus.gen_sets(2).database.to_text(),
            str(qbf.queries[0]), str(corpus.gen_sets(2).queries[0]),
            "% quoted\np('hello world', 'x-y', b_2) -> q(X, 'a b') .\n",
            "?- p('x y', Z), q(Z, 0) .\n"]


# No backslash: neither the base texts nor the insertions hold one, so
# quoted-constant escapes other than a quote cannot move this pin.
_INSERTIONS = list("aqZX0_(),.->?'% \n\t\r\u00e9\u00a0$") + [", X", ",0", " . ", "->", "?-"]


def _mutate(rng: random.Random, base: str, edits: int) -> str:
    """``edits`` insert, delete and replace edits of ``base`` at positions
    and with insertions drawn from ``rng``, as ``test_parse_outcomes_pinned``
    makes them."""
    chars = list(base)
    for _ in range(edits):
        op = rng.choice("idr")
        i = rng.randrange(len(chars) + (op == "i"))
        if op == "d":
            del chars[i]
        elif op == "i":
            chars.insert(i, rng.choice(_INSERTIONS))
        else:
            chars[i] = rng.choice(_INSERTIONS)
    return "".join(chars)


def _outcome(parse, text: str):
    try:
        result = parse(text)
    except ParseError as err:
        return (type(err).__name__, err.message, err.line, err.column)
    if isinstance(result, Database):
        return result.to_text()
    if hasattr(result, "rules"):
        return (result.to_text(), [(r.rule_id, [(v.id, v.name) for v in r.variables()])
                                   for r in result.rules], sorted(result.signature.items()))
    return str(result)


def test_parse_outcomes_pinned():
    """Seeded insert, delete and replace mutations of corpus texts: what the
    three parsers return, or the message and position of each error."""
    rng = random.Random(20261019)
    digest = hashlib.sha256()
    for base in _corpus_texts():
        for k in range(120):
            chars = list(base)
            for _ in range(1 + k % 3):
                op = rng.choice("idr")
                i = rng.randrange(len(chars) + (op == "i"))
                if op == "d":
                    del chars[i]
                elif op == "i":
                    chars.insert(i, rng.choice(_INSERTIONS))
                else:
                    chars[i] = rng.choice(_INSERTIONS)
            text = base if k == 0 else "".join(chars)
            for parse in (parse_program, parse_facts, parse_query):
                digest.update(repr(_outcome(parse, text)).encode())
    assert digest.hexdigest() == (
        "c5cd2d63906bd7ca69b74b61d0755c2a98ea044fd4873bdb87e8dffe8d8e5c8a")
