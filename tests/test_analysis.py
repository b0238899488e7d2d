import hashlib
import json
import re

import pytest

from chasekit.analysis import analyze
from chasekit.corpus import (QbfFormula, gen_counter, gen_dexp, gen_dexp_nonterm, gen_qbf,
                             gen_sets, gen_sets_nonterm)
from chasekit.model import DatalogIndex, parse_program


def test_dexp_report():
    report = analyze(gen_dexp(2, True).program)
    d = report.to_dict()
    assert d["saturating"] is True
    assert d["rank"]["program"] == 2
    assert d["arboreous"] is False
    assert len(d["ledgraph"]["edges"]) == 3
    e_sets = [c["E"] for c in d["saturation"]["components"]]
    assert e_sets == [[["V@r2", "X", "W@r4"]]]
    json.dumps(d)    # report must be JSON-serializable as is


def test_sets_report():
    report = analyze(gen_sets(1).program)
    d = report.to_dict()
    assert d["saturating"] is True
    assert d["rank"]["program"] == 1
    assert d["arboreous"] is True
    assert d["pathGuarded"] is True
    assert d["offendingRules"] == []


def test_sets_nonterm_report():
    report = analyze(gen_sets_nonterm().program)
    d = report.to_dict()
    assert d["saturating"] is False
    assert "rank" not in d
    comp = d["saturation"]["components"][0]
    assert comp["verdict"] == "not-saturating"
    assert comp["conditions"] is not None


def test_qbf_report():
    report = analyze(gen_qbf(QbfFormula("ea", ((1, -2),))).program)
    d = report.to_dict()
    assert d["saturating"] and d["arboreous"] and d["pathGuarded"]
    assert ["su", 2, "su", 3] in d["positionOrder"]


def test_report_is_stable_across_runs():
    p = gen_dexp(2, True).program
    d1 = analyze(p).to_dict()
    d2 = analyze(p).to_dict()
    d1.pop("timing")
    d2.pop("timing")
    assert d1 == d2


def test_report_json_round_trips():
    for program in (gen_dexp(2, True).program, gen_sets(1).program,
                    gen_sets_nonterm().program):
        d = analyze(program).to_dict()
        assert json.loads(json.dumps(d)) == d


def _ring(n):
    return parse_program("".join(f"n{i}(X) -> n{(i + 1) % n}(V), e(X,V) .\n"
                                 for i in range(n)))


def _union():
    """Two copies each of six corpus programs, every copy under its own
    predicate prefix, as the analyze-union benchmark builds its unions."""
    parts = [gen_dexp(1, True), gen_counter(1), gen_sets(1),
             gen_qbf(QbfFormula("e", ((1,),))), gen_dexp_nonterm(), gen_sets_nonterm()]
    texts = [inst.program.to_text() for inst in parts] * 2
    return parse_program("".join(re.sub(r"\b([a-z][A-Za-z0-9]*)\(", rf"u{i}y\1(", text)
                                 for i, text in enumerate(texts)))


# program -> (candidate budget, sha256 of the sorted-key JSON of to_dict()
# without timing), frozen from the analyzer that checked every candidate in
# full: stopping a candidate at its first failed condition must not change
# a byte of the report
PINNED_REPORTS = {
    "dexp(2)": (lambda: gen_dexp(2, True).program, 4096,
                "eafd5e4cd68906991c7faac734b24a3453b5b43fb299b09e70c64e26e28ebb9f"),
    "dexp(2) no propagation": (lambda: gen_dexp(2, False).program, 4096,
                               "a8bdc572c310cfd97e1c5b25b0ac1625c76e9d8402a87f85a312c4f2d8f61602"),
    "sets(3)": (lambda: gen_sets(3).program, 4096,
                "53ae7c645a5442c9e8e02dcd90fa01b9eb9ec0d2dcb0cee77799ca6ad9616df6"),
    "sets-nonterm": (lambda: gen_sets_nonterm().program, 4096,
                     "05092d489d7d57aab26a6836db5079114af5a0f5a2a424ec92c6684cf33736e9"),
    "counter(2)": (lambda: gen_counter(2).program, 4096,
                   "66b976fb1dc801b741247011b5d013b59cf0741bd007f78edf87d65824b6b8aa"),
    "qbf aea": (lambda: gen_qbf(QbfFormula("aea", ((1, 2), (-1, -2), (3, -3)))).program,
                4096, "5e7ae49958e7b829dc8f99bfa612cad4f67c660c80a93e45b9a8a3aa339b51c5"),
    "ring(8)": (lambda: _ring(8), 4096,
                "5d1c0e085e94bd909681278ff8ea69e1446b5dae88a12fbe6d303fd7c9976000"),
    "ring(10)": (lambda: _ring(10), 4096,
                 "c3e6a94e96ebed975ae480b13dca6016838bfd4f1ba5ab05b8d81aef35a79c16"),
    "ring(50)": (lambda: _ring(50), 120,
                 "1e1533e882b8687b772eb4e71c8f3d3d0d3def9e3bdcba93eccc2578552e9d22"),
    "union of 12": (_union, 4096,
                    "a12410135f270bb3769fb0a1e4440a1746c43d4dac5c15348eccc9dd2f45eac9"),
}


@pytest.mark.parametrize("name", list(PINNED_REPORTS))
def test_report_pinned(name):
    generate, budget, digest = PINNED_REPORTS[name]
    d = analyze(generate(), candidate_budget=budget).to_dict()
    d.pop("timing")
    assert hashlib.sha256(json.dumps(d, sort_keys=True).encode()).hexdigest() == digest


@pytest.mark.parametrize("budgets", [{"candidate_budget": -1}, {"path_budget": -1}])
def test_negative_budgets_rejected(budgets):
    with pytest.raises(ValueError):
        analyze(_ring(10), **budgets)


def test_union_analysis_builds_the_datalog_index_once(monkeypatch):
    text = gen_dexp(1, True).program.to_text()
    union = parse_program("".join(re.sub(r"\b([a-z]\w*)\(", rf"c{i}_\1(", text)
                                  for i in range(2)))
    built = []
    init = DatalogIndex.__init__
    monkeypatch.setattr(DatalogIndex, "__init__",
                        lambda self, rules: built.append(init(self, rules)))
    d = analyze(union).to_dict()
    assert d["saturating"] is True and len(d["saturation"]["components"]) == 2
    assert len(built) == 1
    assert union.datalog_index is union.datalog_index
    assert len(built) == 1
