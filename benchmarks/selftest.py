"""Self-test of the benchmark: every workload at a tiny size, and every
checker shown to reject a corrupted output.

    python3 benchmarks/selftest.py          # or: python -m pytest benchmarks/selftest.py

Runs in about 20 seconds.  It writes only under ``benchmarks/out/``.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import shutil
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import run  # noqa: E402

if run.import_program() is None:
    raise SystemExit("selftest: chasekit not found under src/")

import checks  # noqa: E402
import clock  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from chasekit import corpus, model  # noqa: E402

SEED = 4
BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def tiny_round(name: str, tracer=None):
    workload = workloads.WORKLOADS[name]
    inputs = workload.setup(SEED, workloads.SIZES["tiny"][name])
    rnd, _wall = run.run_round(workload, inputs, tracer)
    return workload, inputs, rnd


def replace(rnd, label: str, output) -> None:
    for op in rnd.ops:
        if op.label == label:
            op.output = output
            return
    raise KeyError(label)


def dropped(result, atom):
    """A copy of a chase result without one fact."""
    keep = [a for a in result.interpretation if a != atom]
    return workloads.chase.ChaseResult(result.terminated, model.Interpretation(keep),
                                       result.trace)


# -- the benchmark end to end at tiny sizes ----------------------------------------

def run_tiny(name: str, trace: int) -> dict:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(["--workload", name, "--seed", str(SEED), "--seconds", "0.01",
                         "--trace", str(trace)], sizes="tiny")
    assert code == 0
    return json.loads(out.getvalue().splitlines()[-1])


def test_every_workload_runs_and_reports_every_metric():
    names = [w["name"] for w in BENCHMARK["workloads"]]
    assert names == list(workloads.WORKLOADS)
    for name in names:
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            result = run_tiny(name, trace)
            assert set(result) == {"correct", "attempted", "failed", "metrics"}
            assert result["correct"] is True, name
            assert result["failed"] == 0 and result["attempted"] > 0, name
            declared = {m["name"]: m["unit"] for m in BENCHMARK[section]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            assert got == declared, (name, trace)
            if trace == 0:
                assert all(v["value"] > 0 for v in result["metrics"].values()), name


def test_traced_counts_repeat_exactly():
    for name in workloads.WORKLOADS:
        counts = []
        for _ in range(2):
            tracer = tracing.Tracer()
            tracer.install()
            try:
                tiny_round(name, tracer)
            finally:
                tracer.uninstall()
            metrics = tracing.round_metrics(tracer.take())
            counts.append({k: v for k, v in metrics.items()
                           if tracing.ROUND_METRICS[k] != "s"})
        assert counts[0] == counts[1], name
    # the wrappers are gone again
    assert workloads.chase.chase.__module__ == "chasekit.chase"


def test_missing_program_exits_nonzero_without_result():
    stripped = HERE / "out" / "stripped"
    shutil.rmtree(stripped, ignore_errors=True)
    (stripped / "benchmarks").mkdir(parents=True)
    for path in HERE.glob("*.py"):
        shutil.copy(path, stripped / "benchmarks" / path.name)
    shutil.copy(HERE.parent / "BENCHMARK.json", stripped / "BENCHMARK.json")
    proc = subprocess.run([sys.executable, "benchmarks/run.py", "--workload", "query-qbf",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=stripped, capture_output=True, text=True, timeout=120)
    shutil.rmtree(stripped)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_probe_imports_nothing_of_the_program():
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, clock; clock.probe(); "
         "print(sorted(m for m in sys.modules if m.split('.')[0] == 'chasekit'))"],
        cwd=HERE, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_sampler_probes_while_entered_only():
    sampler = clock.Sampler()
    with sampler:
        start = perf_counter()
        while perf_counter() - start < 0.3:
            pass
    probes = len(sampler.times)
    assert probes >= 3 and sampler.spent > 0
    assert sampler.scale(start, start + 0.3) > 0
    start = perf_counter()
    while perf_counter() - start < 0.2:
        pass
    assert len(sampler.times) == probes


# -- each checker rejects a corrupted output ------------------------------------------

def test_chase_grow_checks_reject_corruption():
    workload, inputs, rnd = tiny_round("chase-grow")
    assert workload.check(inputs, rnd) == []

    # a dropped fact: the last fact the deterministic sets chase added
    label = "chase sets(2) deterministic"
    result = rnd.output(label)
    replace(rnd, label, dropped(result, result.trace.steps[-1].added[-1]))
    assert any("violated" in p for p in workload.check(inputs, rnd))
    replace(rnd, label, result)

    # a wrong null count: a fresh set added to the sets model
    extra = model.Atom(f"{inputs['tag']}set", (model.Null(10**6, "extra"),))
    grown = model.Interpretation(list(result.interpretation) + [extra])
    replace(rnd, label, workloads.chase.ChaseResult(True, grown, result.trace))
    assert any("nulls" in p for p in workload.check(inputs, rnd))
    replace(rnd, label, result)

    # a flipped verdict: a sentinel called saturating
    report = rnd.output("analyze sets-nonterm")
    report.saturation.verdict = "saturating"
    assert any("sets-nonterm" in p for p in workload.check(inputs, rnd))
    report.saturation.verdict = "not-saturating"

    # a flipped query answer
    full = rnd.output("full sets(2)")
    replace(rnd, "full sets(2)", (full[0], not full[1]))
    assert any("full engine" in p for p in workload.check(inputs, rnd))
    replace(rnd, "full sets(2)", full)
    assert workload.check(inputs, rnd) == []


def test_ring_checks_reject_corruption():
    workload, inputs, rnd = tiny_round("analyze-ring")
    assert workload.check(inputs, rnd) == []
    report = rnd.output("analyze ring(4) budget 4096")
    report.saturation.verdict = "saturating"
    assert any("ring(4)" in p for p in workload.check(inputs, rnd))
    report.saturation.verdict = "not-saturating"

    label = "chase ring(4) cap 10"
    result = rnd.output(label)
    replace(rnd, label, dropped(result, result.trace.steps[-1].added[-1]))
    assert any("ring(4)" in p for p in workload.check(inputs, rnd))
    replace(rnd, label, result)
    assert workload.check(inputs, rnd) == []


def test_union_checks_reject_corruption():
    workload, inputs, rnd = tiny_round("analyze-union")
    assert workload.check(inputs, rnd) == []
    report = rnd.output("analyze union mixed")
    comp = next(c for c in report.saturation.components if c.verdict == "not-saturating")
    comp.verdict = "saturating"
    assert any("component" in p for p in workload.check(inputs, rnd))
    comp.verdict = "not-saturating"
    report = rnd.output("analyze union saturating")
    report.ranks.program_rank -= 1
    assert any("rank" in p for p in workload.check(inputs, rnd))
    report.ranks.program_rank += 1
    assert workload.check(inputs, rnd) == []


def test_qbf_checks_reject_corruption():
    workload, inputs, rnd = tiny_round("query-qbf")
    assert workload.check(inputs, rnd) == []
    label = inputs["kbs"][-1][0]
    guided = rnd.output(f"guided {label}")
    guided.entailed = not guided.entailed
    assert any("guided engine" in p for p in workload.check(inputs, rnd))
    guided.entailed = not guided.entailed
    guided.profile.max_stack += 10
    assert any("stack depth" in p for p in workload.check(inputs, rnd))
    guided.profile.max_stack -= 10
    assert workload.check(inputs, rnd) == []


def test_closed_forms_reject_wrong_counts():
    result = workloads.chase.chase(*_instance(corpus.gen_counter(2)))
    atoms = list(result.interpretation)
    preds = {"succ": "succ", "min": "min", "max": "max"}
    assert checks.counter_problems(2, preds, atoms) == []
    succ = next(a for a in atoms if a.pred == "succ" and a.args[2] == model.Constant("2"))
    assert checks.counter_problems(2, preds, [a for a in atoms if a != succ])

    result = workloads.chase.chase(*_instance(corpus.gen_dexp(2, True)))
    atoms = list(result.interpretation)
    assert checks.dexp_problems(2, "cat", 16, atoms) == []
    assert checks.dexp_problems(2, "cat", 15, atoms)
    assert checks.sets_null_count(4) == 64


def _instance(inst):
    return inst.program, inst.database


def test_brute_force_qbf_agrees_with_the_corpus_oracle():
    rng = random.Random(SEED)
    for _ in range(200):
        n = rng.randint(1, 6)
        formula = corpus.QbfFormula(
            "".join(rng.choice("ea") for _ in range(n)),
            tuple(tuple(rng.choice((1, -1)) * rng.randint(1, n)
                        for _ in range(rng.randint(1, 3)))
                  for _ in range(rng.randint(1, 2 * n))))
        assert checks.qbf_brute_force(formula.quantifiers, formula.clauses) \
            == corpus.qbf_truth(formula)


if __name__ == "__main__":
    failures = 0
    for name, fn in list(globals().items()):
        if name.startswith("test_") and callable(fn):
            try:
                fn()
                print(f"ok    {name}")
            except Exception as exc:       # report every test, then fail
                failures += 1
                print(f"FAIL  {name}: {type(exc).__name__}: {exc}")
    sys.exit(1 if failures else 0)
