import contextlib
import importlib
import io
import json
import random
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from chasekit.cli import main
from chasekit.corpus import QbfFormula, qbf_truth
from chasekit.model import Atom, Constant, Database
from test_acceptance import QBF_SUITE
from test_model import _corpus_texts, _mutate


@pytest.fixture
def dexp_files(tmp_path):
    rc = main(["examples", "dexp", "--levels", "2", "--out", str(tmp_path)])
    assert rc == 0
    return tmp_path / "dexp.tgd", tmp_path / "dexp.facts"


def test_parse_ok(dexp_files, capsys):
    program, _ = dexp_files
    assert main(["parse", str(program)]) == 0
    out = capsys.readouterr().out
    assert "7 rules" in out


def test_parse_echo_reparses(dexp_files, tmp_path, capsys):
    program, _ = dexp_files
    assert main(["parse", str(program), "--echo"]) == 0
    echoed = capsys.readouterr().out
    again = tmp_path / "again.tgd"
    again.write_text(echoed)
    assert main(["parse", str(again)]) == 0


def test_parse_arity_clash_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.tgd"
    bad.write_text("p(X) -> q(X) .\nq(X,Y) -> p(X) .\n")
    assert main(["parse", str(bad)]) == 2
    assert "q" in capsys.readouterr().err


def test_parse_syntax_error_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.tgd"
    bad.write_text("p(X) -> \n")
    assert main(["parse", str(bad)]) == 2
    err = capsys.readouterr().err
    assert "input error" in err


def test_analyze_json(dexp_files, capsys):
    program, _ = dexp_files
    assert main(["analyze", str(program), "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["saturating"] is True
    assert payload["rank"]["program"] == 2
    assert payload["arboreous"] is False


def test_analyze_dot_export(dexp_files, tmp_path):
    program, _ = dexp_files
    out = tmp_path / "graphs"
    assert main(["analyze", str(program), "--dot", str(out)]) == 0
    dot = (out / "ledgraph.dot").read_text()
    assert "digraph" in dot and "V@r2" in dot


def test_chase_with_trace(dexp_files, tmp_path, capsys):
    program, facts = dexp_files
    trace = tmp_path / "trace.txt"
    tjson = tmp_path / "trace.json"
    rc = main(["chase", str(program), str(facts),
               "--trace", str(trace), "--trace-json", str(tjson)])
    assert rc == 0
    assert "terminated" in capsys.readouterr().out
    assert trace.read_text().startswith("step 1: rule ")
    payload = json.loads(tjson.read_text())
    assert payload["steps"][0]["index"] == 1


def test_chase_cap_reported(tmp_path, capsys):
    main(["examples", "dexp-nonterm", "--out", str(tmp_path)])
    rc = main(["chase", str(tmp_path / "dexp-nonterm.tgd"),
               str(tmp_path / "dexp-nonterm.facts"), "--max-steps", "500"])
    assert rc == 0
    assert "step cap exceeded: 500 steps" in capsys.readouterr().out


def test_query_full_vs_tree_guided(tmp_path, capsys):
    main(["examples", "qbf", "--quantifiers", "ea",
          "--clauses", "1,2;1,-2", "--out", str(tmp_path)])
    capsys.readouterr()
    args = [str(tmp_path / "qbf.tgd"), str(tmp_path / "qbf.facts"),
            str(tmp_path / "qbf.query")]
    assert main(["query", *args, "--engine", "full"]) == 0
    full = capsys.readouterr().out.strip()
    assert main(["query", *args, "--engine", "tree-guided"]) == 0
    guided = capsys.readouterr().out.strip()
    assert full == guided == "entailed"


def test_query_tree_guided_reference_cap_exits_3(tmp_path, capsys):
    main(["examples", "qbf", "--out", str(tmp_path)])
    capsys.readouterr()
    rc = main(["query", str(tmp_path / "qbf.tgd"), str(tmp_path / "qbf.facts"),
               str(tmp_path / "qbf.query"), "--engine", "tree-guided",
               "--max-steps", "5"])
    assert rc == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "Traceback" not in captured.err
    assert captured.err.strip() == "reference chase hit the step cap; no verdict"


def test_query_tree_refused_on_non_arboreous(dexp_files, tmp_path, capsys):
    program, facts = dexp_files
    q = tmp_path / "q.query"
    q.write_text("?- lvl(X,Z) .\n")
    rc = main(["query", str(program), str(facts), str(q), "--engine", "tree-guided"])
    assert rc == 3
    assert "arboreous" in capsys.readouterr().err


def test_query_tree_search_engine(tmp_path, capsys):
    main(["examples", "sets", "--n", "1", "--out", str(tmp_path)])
    capsys.readouterr()
    rc = main(["query", str(tmp_path / "sets.tgd"), str(tmp_path / "sets.facts"),
               str(tmp_path / "sets.query"), "--engine", "tree-search",
               "--m-bound", "4"])
    assert rc == 0
    assert capsys.readouterr().out.strip() == "entailed"


def test_query_tree_search_cut_by_the_bound_has_no_verdict(tmp_path, capsys):
    """A search that explored every run but cut some at the inner bound
    exits 3 and names the bound, on a query the full engine entails."""
    main(["examples", "qbf", "--quantifiers", "ae", "--clauses", "1,2;-1,-2",
          "--out", str(tmp_path)])
    files = [str(tmp_path / f"qbf.{ext}") for ext in ("tgd", "facts", "query")]
    capsys.readouterr()
    assert main(["query", *files, "--engine", "tree-search", "--m-bound", "6",
                 "--search-budget", "50000"]) == 3
    assert capsys.readouterr().err.strip() == "inner bound 6 cut 1688 nodes; no verdict"
    assert main(["query", *files]) == 0
    assert capsys.readouterr().out.strip() == "entailed"


def _drawn_formulas(count: int, seed: int) -> list:
    rnd = random.Random(seed)
    formulas = []
    for _ in range(count):
        n = rnd.randint(1, 3)
        clauses = tuple(tuple(rnd.choice((1, -1)) * rnd.randint(1, n)
                              for _ in range(rnd.randint(1, 3)))
                        for _ in range(rnd.randint(1, 3)))
        formulas.append(QbfFormula("".join(rnd.choice("ae") for _ in range(n)), clauses))
    return formulas


def _answer(capsys, argv) -> tuple:
    code = main(argv)
    captured = capsys.readouterr()
    assert "Traceback" not in captured.err
    return code, captured.out.strip()


def test_query_engines_agree_on_the_command_line(tmp_path, capsys):
    """``tree-guided`` prints what ``full`` prints; ``tree-search`` prints
    the same answer or exits 3, never the opposite answer."""
    inputs = []
    formulas = [QbfFormula(qs, cl) for qs, cl in QBF_SUITE] + _drawn_formulas(6, 2703)
    for i, formula in enumerate(formulas):
        out = tmp_path / f"qbf{i}"
        clauses = ";".join(",".join(map(str, clause)) for clause in formula.clauses)
        assert main(["examples", "qbf", "--quantifiers", formula.quantifiers,
                     f"--clauses={clauses}", "--out", str(out)]) == 0
        truth = "entailed" if qbf_truth(formula) else "not entailed"
        inputs.append(([str(out / f"qbf.{ext}") for ext in ("tgd", "facts", "query")], truth))
    for n in (1, 2):
        out = tmp_path / f"sets{n}"
        assert main(["examples", "sets", "--n", str(n), "--out", str(out)]) == 0
        inputs.append(([str(out / f"sets.{ext}") for ext in ("tgd", "facts", "query")],
                       "entailed"))
    capsys.readouterr()
    searched = {0: 0, 3: 0}
    for files, truth in inputs:
        assert _answer(capsys, ["query", *files, "--engine", "full"]) == (0, truth)
        assert _answer(capsys, ["query", *files, "--engine", "tree-guided"]) == (0, truth)
        code, answer = _answer(capsys, ["query", *files, "--engine", "tree-search",
                                        "--m-bound", "8", "--search-budget", "300"])
        assert (code, answer) in ((0, truth), (3, "")), files
        searched[code] += 1
    assert searched[0] and searched[3]
    assert "not entailed" in [truth for _, truth in inputs]


def test_console_script_runs_main():
    """Each ``[project.scripts]`` entry resolves, and ``--help`` through it
    exits 0, as the installed script calls it."""
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parent.parent / "pyproject.toml"
    scripts = tomllib.loads(pyproject.read_text(encoding="utf-8"))["project"]["scripts"]
    assert scripts["chasekit"] == "chasekit.cli:main"
    for target in scripts.values():
        module, _, name = target.partition(":")
        entry = getattr(importlib.import_module(module), name)
        with pytest.raises(SystemExit) as stop:
            sys.exit(entry(["--help"]))
        assert stop.value.code == 0


def test_examples_write_all_formats(tmp_path):
    main(["examples", "sets", "--n", "2", "--out", str(tmp_path)])
    assert (tmp_path / "sets.tgd").exists()
    assert (tmp_path / "sets.facts").exists()
    assert (tmp_path / "sets.query").exists()


def test_graph_subcommand(dexp_files, capsys):
    program, _ = dexp_files
    assert main(["graph", str(program)]) == 0
    assert "digraph" in capsys.readouterr().out


def test_analyze_exhausted_budget_is_inconclusive_exit_0(dexp_files, capsys):
    program, _ = dexp_files
    assert main(["analyze", str(program), "--json", "--budget", "0"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["saturating"] is False
    assert payload["saturation"]["verdict"] == "inconclusive"
    assert payload["saturation"]["components"][0]["reason"] == "search budget exceeded"


def test_chase_term_tree_export(tmp_path, capsys):
    main(["examples", "sets", "--n", "1", "--out", str(tmp_path)])
    out = tmp_path / "tree.dot"
    rc = main(["chase", str(tmp_path / "sets.tgd"), str(tmp_path / "sets.facts"),
               "--term-tree", str(out)])
    assert rc == 0
    assert "root" in out.read_text()


def test_inputs_starting_with_a_byte_order_mark_are_read(tmp_path, capsys):
    main(["examples", "qbf", "--quantifiers", "ea",
          "--clauses", "1,2;1,-2", "--out", str(tmp_path)])
    args = []
    for suffix in ("tgd", "facts", "query"):
        path = tmp_path / f"qbf.{suffix}"
        path.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
        args.append(str(path))
    capsys.readouterr()
    assert main(["parse", args[0]]) == 0
    assert main(["query", *args, "--engine", "full"]) == 0
    assert capsys.readouterr().out.strip().endswith("entailed")


@settings(max_examples=100, deadline=None)
@given(st.text())
def test_any_constant_survives_a_file(name):
    # the printer escapes only a backslash, a quote and a line feed, so a
    # carriage return must reach the parser as it was written
    database = Database([Atom("p", (Constant(name),))])
    with tempfile.TemporaryDirectory() as tmp:
        program, facts, trace = (Path(tmp) / f for f in ("r.tgd", "r.facts", "trace.json"))
        program.write_text("p(X) -> q(X) .\n", encoding="utf-8")
        facts.write_text(database.to_text(), encoding="utf-8")
        assert main(["chase", str(program), str(facts), "--trace-json", str(trace)]) == 0
        read = json.loads(trace.read_text(encoding="utf-8"))["database"]
    assert read == [str(atom) for atom in database]


def test_chase_term_tree_refused_for_non_arboreous(dexp_files, tmp_path, capsys):
    program, facts = dexp_files
    rc = main(["chase", str(program), str(facts),
               "--term-tree", str(tmp_path / "tree.dot")])
    assert rc == 3


def test_missing_file_exits_2(capsys):
    assert main(["parse", "/nonexistent/file.tgd"]) == 2


@pytest.fixture(scope="module")
def contract_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("contract")
    main(["examples", "qbf", "--quantifiers", "ea", "--clauses", "1,2;1,-2",
          "--out", str(d)])
    main(["examples", "sets", "--n", "1", "--out", str(d)])
    main(["examples", "qbf", "--quantifiers", "aeaeae",
          "--clauses", "1,-1;2,-2;3,-3;4,-4;5,-5;6,-6", "--out", str(d / "alt6")])
    (d / "bad.tgd").write_text("p(X) -> \n")
    (d / "bad.facts").write_text("p(X) .\n")
    (d / "bad.query").write_text("?- .\n")
    (d / "binary.tgd").write_bytes(b"\xff\xfe\x00")
    return d


_Q = ["query", "qbf.tgd", "qbf.facts", "qbf.query"]
_SETS = ["query", "sets.tgd", "sets.facts", "sets.query"]
_ALT6 = ["query", "alt6/qbf.tgd", "alt6/qbf.facts", "alt6/qbf.query"]


@pytest.mark.parametrize("argv, code", [
    (["parse", "bad.tgd"], 2),
    (["parse", "binary.tgd"], 2),
    (["parse", "."], 2),
    (["analyze", "bad.tgd"], 2),
    (["graph", "bad.tgd"], 2),
    (["chase", "bad.tgd", "qbf.facts"], 2),
    (["chase", "qbf.tgd", "bad.facts"], 2),
    (["query", "bad.tgd", "qbf.facts", "qbf.query"], 2),
    (["query", "qbf.tgd", "bad.facts", "qbf.query"], 2),
    (["query", "qbf.tgd", "qbf.facts", "bad.query"], 2),
    (["query", "qbf.tgd", "qbf.facts", "bad.query", "--engine", "tree-guided"], 2),
    (["examples", "qbf", "--out", "qbf.tgd"], 2),
    (["examples", "qbf", "--clauses", "1,x", "--out", "ex"], 2),
    (["analyze", "qbf.tgd", "--budget", "0", "--path-budget", "0"], 0),
    (["analyze", "sets.tgd", "--budget", "0", "--path-budget", "0"], 0),
    (["graph", "sets.tgd"], 0),
    (["chase", "qbf.tgd", "qbf.facts", "--max-steps", "0"], 0),
    (["chase", "sets.tgd", "sets.facts", "--max-steps", "0",
      "--term-tree", "tree.dot"], 3),
    ([*_Q, "--max-steps", "0"], 3),
    ([*_Q, "--engine", "tree-guided", "--max-steps", "0"], 3),
    ([*_SETS, "--engine", "tree-search", "--m-bound", "0", "--search-budget", "0"], 3),
    (["analyze", "qbf.tgd", "--budget", "-1"], 2),
    (["analyze", "qbf.tgd", "--path-budget", "-1"], 2),
    (["chase", "qbf.tgd", "qbf.facts", "--max-steps", "-1"], 2),
    ([*_Q, "--max-steps", "-1"], 2),
    ([*_Q, "--engine", "tree-search", "--search-budget", "-1"], 2),
    ([*_Q, "--engine", "tree-search", "--m-bound", "-1"], 2),
    (["examples", "counter", "--levels", "0", "--out", "ex"], 2),
    # a search path deeper than Python's recursion limit
    ([*_ALT6, "--engine", "tree-search", "--m-bound", "1000", "--search-budget", "3000"], 3),
    (["examples", "qbf", "--quantifiers", "", "--out", "ex"], 2),
    (["examples", "qbf", "--clauses", "", "--out", "ex"], 2),
])
def test_exit_code_contract(contract_dir, monkeypatch, capsys, argv, code):
    monkeypatch.chdir(contract_dir)
    try:
        got = main(argv)
    except SystemExit as stop:      # argparse rejects a flag value
        got = stop.code
    err = capsys.readouterr().err
    assert got in (0, 2, 3, 4)
    assert got == code, err
    assert "Traceback" not in err
    if code:
        assert err.strip()


# the corpus texts that parse as rule files: the union and the quoted rule
_RULE_TEXTS = [t for t in _corpus_texts() if "->" in t]
_BUDGET = st.integers(-2, 6).map(str)


@st.composite
def _analysis_run(draw):
    """A command of the analysis family, its flags with budgets that may be
    0 or negative, and a rule file: random bytes, or a corpus rule text
    under a few seeded edits."""
    command = draw(st.sampled_from(["parse", "analyze", "graph"]))
    flags = []
    if command == "parse" and draw(st.booleans()):
        flags.append("--echo")
    if command == "analyze":
        flags += ["--budget", draw(_BUDGET), "--path-budget", draw(_BUDGET)]
        if draw(st.booleans()):
            flags.append("--json")
    if draw(st.integers(0, 3)) == 0:
        data = draw(st.binary(max_size=120))
    else:
        base = draw(st.sampled_from(_RULE_TEXTS))
        rng = random.Random(draw(st.integers(0, 2 ** 32)))
        data = _mutate(rng, base, draw(st.integers(0, 3))).encode()
    return command, flags, data


@settings(max_examples=60, deadline=None)
@given(_analysis_run())
def test_the_analysis_commands_keep_the_exit_code_contract(run):
    command, flags, data = run
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "rules.tgd"
        path.write_bytes(data)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main([command, str(path), *flags])
            except SystemExit as stop:      # argparse rejects a flag value
                code = stop.code
    assert code in (0, 2, 3, 4), err.getvalue()
    assert "Traceback" not in err.getvalue()
    if code:
        assert err.getvalue().strip()


def _run_files() -> list:
    """The rule, fact and query texts of corpus instances, one triple each."""
    from chasekit import corpus
    qbf = corpus.gen_qbf(corpus.QbfFormula("aea", ((1, -2), (2, 3), (-1, -3))))
    sets = corpus.gen_sets(2)
    union = next(t for t in _RULE_TEXTS if "u0_" in t)
    return [(qbf.program.to_text(), qbf.database.to_text(), str(qbf.queries[0])),
            (sets.program.to_text(), sets.database.to_text(), str(sets.queries[0])),
            (union, qbf.database.to_text(), str(qbf.queries[0]))]


_RUN_FILES = _run_files()


@st.composite
def _chase_run(draw):
    """``chase`` or ``query`` under every engine, with budgets that may be 0
    or negative, over a corpus instance whose rule, fact and query files
    each are random bytes, or the instance's text under a few seeded
    edits."""
    command = draw(st.sampled_from(["chase", "query"]))
    flags = ["--max-steps", draw(_BUDGET)]
    if command == "chase":
        flags += ["--strategy", draw(st.sampled_from(["deterministic", "seeded:3", "seeded:x"]))]
    else:
        engine = draw(st.sampled_from(["full", "tree-guided", "tree-search"]))
        flags += ["--engine", engine]
        if engine == "tree-search":
            flags += ["--m-bound", draw(_BUDGET), "--search-budget", draw(_BUDGET)]
    files = []
    for text in draw(st.sampled_from(_RUN_FILES))[:2 if command == "chase" else 3]:
        if draw(st.integers(0, 5)) == 0:
            files.append(draw(st.binary(max_size=60)))
        else:
            rng = random.Random(draw(st.integers(0, 2 ** 32)))
            files.append(_mutate(rng, text, draw(st.integers(0, 3))).encode())
    return command, flags, files


@settings(max_examples=80, deadline=None)
@given(_chase_run())
def test_the_chase_and_query_commands_keep_the_exit_code_contract(run):
    command, flags, files = run
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        paths = [Path(tmp) / name for name in ("rules.tgd", "db.facts", "q.query")]
        for path, data in zip(paths, files):
            path.write_bytes(data)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main([command, *map(str, paths[:len(files)]), *flags])
            except SystemExit as stop:      # argparse rejects a flag value
                code = stop.code
    assert code in (0, 2, 3, 4), err.getvalue()
    assert "Traceback" not in err.getvalue()
    if code:
        assert err.getvalue().strip()
