"""The four workloads: their inputs, their rounds and their checks.

A workload builds its inputs from the seed as rule, fact and query text and
parses that text with the program's own parser; that is the set-up.  A
round is a fixed list of operations over those inputs, each one a call
into the public ``chasekit`` API, timed on its own.  Checks run on a
round's outputs after it ends, outside every timed region.

Every module is reached through its attribute (``chase.chase``, not a name
imported from it), so that a traced round sees the wrappers of
``tracing.Tracer``.
"""

from __future__ import annotations

import gc
import random
import re
from contextlib import nullcontext
from dataclasses import dataclass, field
from importlib import import_module
from time import perf_counter

from chasekit import analysis, corpus, matching, model, treechase

import checks

# the package exports the function chase() under the module's name
chase = import_module("chasekit.chase")

SIZES = {
    "full": {
        "chase-grow": {"dexp": 3, "counter": 3, "sets": 6, "sentinel_cap": 2000,
                       "query_sets": 4},
        "analyze-ring": {"rings": ((10, 4096), (50, 120)), "chase_cap": 300, "probe": 3},
        "analyze-union": {"saturating_copies": 14, "mixed_copies": 8, "probe": 3},
        "query-qbf": {"random": (5, 6, 7), "per_size": 2, "alternating": (5, 6)},
    },
    "tiny": {
        "chase-grow": {"dexp": 1, "counter": 1, "sets": 2, "sentinel_cap": 30,
                       "query_sets": 2},
        "analyze-ring": {"rings": ((4, 4096), (8, 20)), "chase_cap": 10, "probe": 2},
        "analyze-union": {"saturating_copies": 1, "mixed_copies": 1, "probe": 2},
        "query-qbf": {"random": (3,), "per_size": 1, "alternating": (2,)},
    },
}


# -- operations -------------------------------------------------------------------------

@dataclass
class Op:
    kind: str            # chase | analyze | query-full | query-guided
    label: str
    total: float         # measured seconds, probes excluded, summed over its runs
    output: object
    runs: int = 1
    steps: int = 0       # chase steps of one run of a chase or full-engine query
    max_atoms: int = 0   # live fact set of a guided query
    norm: float = 0.0    # normalised seconds (clock.py) summed over its runs

    @property
    def seconds(self) -> float:
        """Mean normalised seconds per run."""
        return self.norm / self.runs


@dataclass
class Round:
    ops: list = field(default_factory=list)
    attempted: int = 0
    failed: list = field(default_factory=list)    # "label: error" lines

    def op(self, label: str):
        for op in self.ops:
            if op.label == label:
                return op
        return None

    def output(self, label: str):
        op = self.op(label)
        return op.output if op is not None else None


class Recorder:
    """Runs and times the operations of one round.  An operation run more
    than once in a round (see ``interleave``) counts with its mean time.
    With a ``clock.Sampler`` running, the probe time is taken out of each
    execution, and ``normalise`` scales it by the probes around it."""

    def __init__(self, tracer=None, sampler=None):
        self.round = Round()
        self.tracer = tracer
        self.sampler = sampler
        self.executions: list = []    # (op, start, end, seconds)

    def normalise(self) -> None:
        """Add every execution's normalised seconds to its operation; call
        once the round is over, when the probes after the last one exist."""
        for op, start, end, seconds in self.executions:
            op.norm += seconds * self.sampler.scale(start, end)

    def run(self, kind: str, label: str, fn):
        self.round.attempted += 1
        # Outputs kept for the checks must not make the program's own
        # garbage collections slower: move everything alive now out of the
        # collector's sight (run.run_round unfreezes it).
        gc.collect()
        gc.freeze()
        span = self.tracer.op_span(label) if self.tracer else nullcontext()
        probes = self.sampler.spent if self.sampler is not None else 0.0
        start = perf_counter()
        try:
            with span:
                out = fn()
        except Exception as exc:     # a failed operation is counted, not fatal
            self.round.failed.append(f"{label}: {type(exc).__name__}: {exc}")
            return None
        end = perf_counter()
        if self.sampler is not None:
            probes = self.sampler.spent - probes
        seconds = end - start - probes
        op = self.round.op(label)
        if op is None:
            op = Op(kind, label, 0.0, out, runs=0)
            if kind == "chase":
                op.steps = out.steps
            elif kind == "query-full":
                op.steps = out[0].steps
            elif kind == "query-guided":
                op.max_atoms = out.profile.max_atoms
            self.round.ops.append(op)
        op.total += seconds
        op.runs += 1
        op.output = out
        self.executions.append((op, start, end, seconds))
        return out


def interleave(rec: Recorder, longs: list, shorts, repeat: int = 1) -> None:
    """Run each long operation once, and the short ones ``repeat`` times
    before the first, between every two and after the last.  The core of a
    shared machine changes speed for seconds at a time; spreading the short
    operations over the round averages them over those changes, as the
    long ones are."""
    def batch() -> None:
        for _ in range(repeat):
            shorts(rec)

    batch()
    for run_long in longs:
        run_long(rec)
        batch()


def summary(output) -> tuple:
    """What must repeat exactly when a round repeats on the same inputs."""
    if isinstance(output, chase.ChaseResult):
        return (output.terminated, output.steps, len(output.interpretation))
    if isinstance(output, analysis.AnalysisReport):
        return (output.saturation.verdict,
                output.ranks.program_rank if output.ranks else None,
                tuple(c.candidates_tried for c in output.saturation.components))
    if isinstance(output, treechase.GuidedResult):
        return (output.entailed, output.replayed_steps, output.profile.max_atoms,
                output.profile.max_stack)
    if isinstance(output, tuple):
        return tuple(summary(x) for x in output)
    return (output,)


def fingerprint(rnd: Round) -> tuple:
    return (tuple((op.label, summary(op.output)) for op in rnd.ops),
            tuple(rnd.failed))


# -- input text --------------------------------------------------------------------

_PRED = re.compile(r"\b([a-z][A-Za-z0-9]*)\(")


def rename(text: str, prefix: str) -> str:
    """Prefix every predicate name (an identifier followed by '(')."""
    return _PRED.sub(lambda m: f"{prefix}{m.group(1)}(", text)


def tag_of(seed: int) -> str:
    return f"s{seed}x"


@dataclass
class Kb:
    """One parsed program with its database and optional query."""
    program: object
    database: object = None
    query: object = None


def parse_instance(inst, prefix: str, programs: dict) -> Kb:
    """Serialize a corpus instance under renamed predicates and parse it
    back; identical program texts are parsed once."""
    text = rename(inst.program.to_text(), prefix)
    if text not in programs:
        programs[text] = model.parse_program(text)
    program = programs[text]
    db = model.parse_facts(rename(inst.database.to_text(), prefix), program.signature)
    query = None
    if inst.queries:
        query = model.parse_query(rename(str(inst.queries[0]), prefix), program.signature)
    return Kb(program, db, query)


def alternating_formula(n: int):
    """The all-true family: alternating quantifiers, clauses (i | -i)."""
    return corpus.QbfFormula(("ae" * n)[:n], tuple((i, -i) for i in range(1, n + 1)))


def qbf_kb(formula, prefix: str, programs: dict) -> Kb:
    return parse_instance(corpus.gen_qbf(formula), prefix, programs)


# -- shared pieces of rounds and checks ---------------------------------------

def run_query(rec: Recorder, label: str, kb: Kb, report) -> None:
    """Answer ``kb.query`` with the full engine and the guided tree chase."""
    rec.run("query-full", f"full {label}", lambda: _full_engine(kb))
    if report is None or report.arboreous is None:
        rec.round.failed.append(f"guided {label}: no analysis to guide it")
        rec.round.attempted += 1
        return
    rec.run("query-guided", f"guided {label}",
            lambda: treechase.tree_chase_guided(kb.program, kb.database, kb.query,
                                                report.arboreous))


def _full_engine(kb: Kb) -> tuple:
    result = chase.chase(kb.program, kb.database)
    return result, matching.evaluate_bcq(result.interpretation, kb.query)


def query_problems(rnd: Round, label: str, kb: Kb, truth: bool, stack_cap=None) -> list:
    problems = []
    full = rnd.output(f"full {label}")
    if full is not None:
        result, answer = full
        problems += checks.verdict_problems(f"full engine on {label}", answer, truth)
        problems += terminated_model_problems(f"full chase of {label}", kb.program, result)
    guided = rnd.output(f"guided {label}")
    if guided is not None:
        problems += checks.verdict_problems(f"guided engine on {label}",
                                            guided.entailed, truth)
        if stack_cap is not None and guided.profile.max_stack > stack_cap:
            problems.append(f"guided engine on {label}: stack depth "
                            f"{guided.profile.max_stack} > {stack_cap}")
    return problems


def terminated_model_problems(name: str, program, result) -> list:
    if not result.terminated:
        return [f"{name}: did not terminate"]
    return [f"{name}: {p}" for p in checks.model_problems(program, result.interpretation)]


@dataclass
class Probe:
    """A small true QBF instance answered by both engines, in the workloads
    whose own inputs hold no query (see README)."""
    n: int
    kb: Kb

    @property
    def label(self) -> str:
        return f"probe qbf alternating({self.n})"

    def run(self, rec: Recorder) -> None:
        report = rec.run("analyze", f"analyze {self.label}",
                         lambda: analysis.analyze(self.kb.program))
        run_query(rec, self.label, self.kb, report)

    def problems(self, rnd: Round) -> list:
        f = alternating_formula(self.n)
        return query_problems(rnd, self.label, self.kb,
                              checks.qbf_brute_force(f.quantifiers, f.clauses),
                              self.n + 2)


def make_probe(n: int, tag: str) -> Probe:
    return Probe(n, qbf_kb(alternating_formula(n), tag, {}))


# -- chase-grow ---------------------------------------------------------------------------

class ChaseGrow:
    """The restricted chase on the paper's growth families."""

    def setup(self, seed: int, size: dict) -> dict:
        tag = tag_of(seed)
        programs: dict = {}
        kbs = {
            "dexp": parse_instance(corpus.gen_dexp(size["dexp"], True), tag, programs),
            "counter": parse_instance(corpus.gen_counter(size["counter"]), tag, programs),
            "sets": parse_instance(corpus.gen_sets(size["sets"]), tag, programs),
            "dexp-nonterm": parse_instance(corpus.gen_dexp_nonterm(), tag, programs),
            "sets-nonterm": parse_instance(corpus.gen_sets_nonterm(), tag, programs),
        }
        query = parse_instance(corpus.gen_sets(size["query_sets"]), tag, programs)
        return {"tag": tag, "size": size, "kbs": kbs, "query": query,
                "strategies": (("deterministic", chase.Deterministic()),
                               (f"seeded:{seed}", chase.Seeded(seed)))}

    def labels(self, inp: dict) -> list:
        size = inp["size"]
        out = []
        for name in ("dexp", "counter", "sets"):
            for sname, strategy in inp["strategies"]:
                out.append((f"chase {name}({size[name]}) {sname}", name, strategy, 100_000))
        for name in ("dexp-nonterm", "sets-nonterm"):
            out.append((f"chase {name} cap {size['sentinel_cap']}", name,
                        chase.Deterministic(), size["sentinel_cap"]))
        return out

    def round(self, inp: dict, rec: Recorder) -> None:
        def shorts(rec: Recorder) -> None:
            for name, kb in inp["kbs"].items():
                rec.run("analyze", f"analyze {name}", lambda: analysis.analyze(kb.program))
            run_query(rec, f"sets({inp['size']['query_sets']})", inp["query"],
                      rec.round.output("analyze sets"))

        def long(label, kb, strategy, cap):
            return lambda rec: rec.run("chase", label, lambda: chase.chase(
                kb.program, kb.database, strategy, cap))

        # one round fills a run: the short operations run three times per
        # batch to be timed as often as in the other workloads
        interleave(rec, [long(label, inp["kbs"][name], strategy, cap)
                         for label, name, strategy, cap in self.labels(inp)], shorts, 3)

    def check(self, inp: dict, rnd: Round) -> list:
        size, kbs, tag = inp["size"], inp["kbs"], inp["tag"]
        problems = []
        expected = {"dexp": ("saturating", 2), "counter": ("saturating", 2),
                    "sets": ("saturating", 1), "dexp-nonterm": ("not-saturating", None),
                    "sets-nonterm": ("not-saturating", None)}
        for name, (verdict, rank) in expected.items():
            report = rnd.output(f"analyze {name}")
            if report is not None:
                problems += checks.verdict_problems(
                    f"analyze {name}", (report.saturation.verdict,
                                        report.ranks.program_rank if report.ranks else None),
                    (verdict, rank))
        for label, name, _strategy, cap in self.labels(inp):
            result = rnd.output(label)
            if result is None:
                continue
            kb = kbs[name]
            atoms = list(result.interpretation)
            if name.endswith("nonterm"):
                if result.terminated or result.steps != cap:
                    problems.append(f"{label}: stopped after {result.steps} steps, "
                                    f"terminated={result.terminated}; expected the cap {cap}")
                continue
            problems += terminated_model_problems(label, kb.program, result)
            if name == "dexp":
                pairing = next(r for r in kb.program.rules
                               if r.head[0].pred == f"{tag}cat")
                level = pairing.body[0].args[1]
                top = model.Constant(str(size["dexp"]))
                fired = sum(1 for s in result.trace.steps
                            if s.rule_id == pairing.rule_id and s.match[level] == top)
                problems += [f"{label}: {p}" for p in checks.dexp_problems(
                    size["dexp"], f"{tag}cat", fired, atoms)]
            elif name == "sets":
                problems += [f"{label}: {p}" for p in checks.sets_problems(size["sets"], atoms)]
            elif name == "counter":
                preds = {p: f"{tag}{p}" for p in ("succ", "min", "max")}
                problems += [f"{label}: {p}" for p in checks.counter_problems(
                    size["counter"], preds, atoms)]
        # a1 is a member of the set {a1}, so the query holds
        problems += query_problems(rnd, f"sets({size['query_sets']})", inp["query"], True)
        return problems


# -- analyze-ring ----------------------------------------------------------------------

def ring_text(n: int, tag: str, rng: random.Random) -> str:
    """The Datalog-free rule ring n_i(X) -> n_{i+1 mod N}(V), e(X,V), rules
    listed in a seeded order."""
    rules = [f"{tag}n{i}(X) -> {tag}n{(i + 1) % n}(V), {tag}e(X,V) .\n" for i in range(n)]
    rng.shuffle(rules)
    return "".join(rules)


class AnalyzeRing:
    """The certificate search on rule rings with an empty Datalog part."""

    def setup(self, seed: int, size: dict) -> dict:
        tag = tag_of(seed)
        rng = random.Random(seed)
        rings = []
        for n, budget in size["rings"]:
            program = model.parse_program(ring_text(n, tag, rng))
            db = model.parse_facts(f"{tag}n0(a) .\n", program.signature)
            rings.append((n, budget, Kb(program, db)))
        return {"tag": tag, "size": size, "rings": rings,
                "probe": make_probe(size["probe"], tag)}

    def round(self, inp: dict, rec: Recorder) -> None:
        cap = inp["size"]["chase_cap"]

        def shorts(rec: Recorder) -> None:
            for n, _budget, kb in inp["rings"]:
                rec.run("chase", f"chase ring({n}) cap {cap}", lambda: chase.chase(
                    kb.program, kb.database, chase.Deterministic(), cap))
            inp["probe"].run(rec)

        def long(n, budget, kb):
            return lambda rec: rec.run("analyze", f"analyze ring({n}) budget {budget}",
                                       lambda: analysis.analyze(kb.program,
                                                                candidate_budget=budget))

        interleave(rec, [long(*ring) for ring in inp["rings"]], shorts)

    def check(self, inp: dict, rnd: Round) -> list:
        cap, tag = inp["size"]["chase_cap"], inp["tag"]
        problems = []
        for n, budget, kb in inp["rings"]:
            label = f"analyze ring({n}) budget {budget}"
            report = rnd.output(label)
            if report is not None:
                verdict = report.saturation.verdict
                # one cycle: every nonempty edge set breaks it, and with no
                # Datalog rule no propagation condition can hold
                exhaustive = budget >= 2 ** n - 1
                if verdict == "saturating":
                    problems.append(f"{label}: a ring was called saturating")
                if exhaustive:
                    problems += checks.verdict_problems(label, verdict, "not-saturating")
                    tried = sum(c.candidates_tried for c in report.saturation.components)
                    problems += checks.verdict_problems(f"{label} candidates", tried,
                                                        2 ** n - 1)
            result = rnd.output(f"chase ring({n}) cap {cap}")
            if result is not None:
                if result.terminated or result.steps != cap:
                    problems.append(f"chase ring({n}): {result.steps} steps, "
                                    f"terminated={result.terminated}, expected the cap {cap}")
                problems += checks.fresh_null_chain_problems(
                    f"chase ring({n})", model.Constant("a"), f"{tag}e", result.steps,
                    [len(s.created_nulls) for s in result.trace.steps],
                    list(result.interpretation))
        return problems + inp["probe"].problems(rnd)


# -- analyze-union ---------------------------------------------------------------------

# corpus program -> (generator, hand-written verdict, hand-written rank)
UNION_PARTS = {
    "dexp": (lambda: corpus.gen_dexp(1, True), "saturating", 2),
    "counter": (lambda: corpus.gen_counter(1), "saturating", 2),
    "sets": (lambda: corpus.gen_sets(1), "saturating", 1),
    "qbf": (lambda: corpus.gen_qbf(corpus.QbfFormula("e", ((1,),))), "saturating", 1),
    "dexp-nonterm": (corpus.gen_dexp_nonterm, "not-saturating", None),
    "sets-nonterm": (corpus.gen_sets_nonterm, "not-saturating", None),
}
SATURATING_KINDS = ("dexp", "counter", "sets", "qbf")


class AnalyzeUnion:
    """The analyzer on unions of predicate-renamed corpus programs."""

    def setup(self, seed: int, size: dict) -> dict:
        tag = tag_of(seed)
        rng = random.Random(seed)
        texts = {kind: gen().program.to_text() for kind, (gen, _, _) in UNION_PARTS.items()}
        unions = []
        for name, kinds, copies in (
                ("saturating", SATURATING_KINDS, size["saturating_copies"]),
                ("mixed", tuple(UNION_PARTS), size["mixed_copies"])):
            parts = [(kind, j) for j in range(copies) for kind in kinds]
            rng.shuffle(parts)
            prefixes = {}
            chunks = []
            for i, (kind, _j) in enumerate(parts):
                prefix = f"{tag}p{i}y"
                prefixes[prefix] = kind
                chunks.append(rename(texts[kind], prefix))
            unions.append((name, model.parse_program("".join(chunks)), prefixes))
        return {"tag": tag, "unions": unions,
                "probe": make_probe(size["probe"], tag)}

    def round(self, inp: dict, rec: Recorder) -> None:
        def long(name, program):
            return lambda rec: rec.run("analyze", f"analyze union {name}",
                                       lambda: analysis.analyze(program))

        interleave(rec, [long(name, program) for name, program, _ in inp["unions"]],
                   inp["probe"].run)

    def check(self, inp: dict, rnd: Round) -> list:
        problems = []
        for name, program, prefixes in inp["unions"]:
            label = f"analyze union {name}"
            report = rnd.output(label)
            if report is None:
                continue
            kinds = set(prefixes.values())
            for comp in report.saturation.components:
                pred = program.rule_of_var[comp.vertices[0]].head[0].pred
                prefix = pred[:pred.index("y") + 1]
                kind = prefixes[prefix]
                problems += checks.verdict_problems(
                    f"{label}: component {comp.component} from {kind}",
                    comp.verdict, UNION_PARTS[kind][1])
            all_saturating = all(UNION_PARTS[k][1] == "saturating" for k in kinds)
            problems += checks.verdict_problems(
                f"{label} verdict", report.saturation.verdict,
                "saturating" if all_saturating else "not-saturating")
            if all_saturating:
                rank = max(UNION_PARTS[k][2] for k in kinds)
                got = report.ranks.program_rank if report.ranks else None
                problems += checks.verdict_problems(f"{label} rank", got, rank)
        return problems + inp["probe"].problems(rnd)


# -- query-qbf ------------------------------------------------------------------------------

# clauses per variable of the random formulas
CLAUSE_RATIO = 3


def random_false_formula(n: int, rng: random.Random):
    """A random prenex 3-CNF formula over n variables with CLAUSE_RATIO * n
    clauses, drawn until false."""
    width = min(3, n)
    while True:
        quantifiers = "".join(rng.choice("ea") for _ in range(n))
        clauses = tuple(tuple(v if rng.random() < 0.5 else -v
                              for v in rng.sample(range(1, n + 1), width))
                        for _ in range(CLAUSE_RATIO * n))
        if not checks.qbf_brute_force(quantifiers, clauses):
            return corpus.QbfFormula(quantifiers, clauses)


class QueryQbf:
    """Boolean query answering on the QBF encoding with both engines."""

    def setup(self, seed: int, size: dict) -> dict:
        tag = tag_of(seed)
        rng = random.Random(seed)
        formulas = [random_false_formula(n, rng)
                    for n in size["random"] for _ in range(size["per_size"])]
        formulas += [alternating_formula(n) for n in size["alternating"]]
        programs: dict = {}
        kbs = [(f"qbf[{i}] {f.quantifiers}", f, qbf_kb(f, tag, programs))
               for i, f in enumerate(formulas)]
        (program,) = programs.values()
        return {"size": size, "program": program, "kbs": kbs}

    def round(self, inp: dict, rec: Recorder) -> None:
        def shorts(rec: Recorder) -> None:
            rec.run("analyze", "analyze qbf", lambda: analysis.analyze(inp["program"]))

        def long(label, kb):
            return lambda rec: run_query(rec, label, kb, rec.round.output("analyze qbf"))

        interleave(rec, [long(label, kb) for label, _f, kb in inp["kbs"]], shorts)

    def check(self, inp: dict, rnd: Round) -> list:
        problems = []
        for label, f, kb in inp["kbs"]:
            truth = checks.qbf_brute_force(f.quantifiers, f.clauses)
            problems += query_problems(rnd, label, kb, truth, len(f.quantifiers) + 2)
        return problems


WORKLOADS = {
    "chase-grow": ChaseGrow(),
    "analyze-ring": AnalyzeRing(),
    "analyze-union": AnalyzeUnion(),
    "query-qbf": QueryQbf(),
}
