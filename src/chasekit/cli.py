"""Command line entry point.

Subcommands: parse, analyze, chase, query, examples, graph.  Exit codes:
0 ok, 2 input error, 3 applicability refusal, 4 internal invariant
violation.  Budgets and seeds are explicit flags.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .analysis import analyze
from .arboreal import InvariantViolation, build_term_tree
from .chase import Deterministic, Seeded, chase
from .corpus import instance_from_name
from .depgraph import build_ledgraph, scc_analysis
from .matching import evaluate_bcq
from .model import KbError, parse_facts, parse_program, parse_query
from .treechase import (ReferenceCapExceeded, ReplayDivergence, tree_chase_guided,
                        tree_chase_search)

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_REFUSED = 3
EXIT_INVARIANT = 4

DEFAULT_CHASE_CAP = 100_000
DEFAULT_PATH_BUDGET = 10_000
DEFAULT_SEARCH_BUDGET = 100_000


def _count(text: str) -> int:
    """A budget or bound: an integer of at least 0."""
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(f"expected an integer >= 0, got {text!r}")
    return int(text)


def _read(path: str) -> str:
    """A file's text as written: a leading byte-order mark is dropped, and
    line breaks are not translated, so a carriage return inside a quoted
    constant stays part of its name."""
    with open(path, encoding="utf-8-sig", newline="") as f:
        return f.read()


def _load_program(path: str):
    return parse_program(_read(path))


def _load_facts(path: str, signature):
    return parse_facts(_read(path), signature)


def cmd_parse(args) -> int:
    program = _load_program(args.program)
    if args.echo:
        sys.stdout.write(program.to_text())
    else:
        print(f"parsed {len(program)} rules, "
              f"{len(program.signature)} predicates, "
              f"{len(program.datalog_ids)} existential-free")
    return EXIT_OK


def cmd_analyze(args) -> int:
    program = _load_program(args.program)
    report = analyze(program, path_budget=args.path_budget,
                     candidate_budget=args.budget)
    payload = report.to_dict()
    if args.dot:
        out = Path(args.dot)
        out.mkdir(parents=True, exist_ok=True)
        (out / "ledgraph.dot").write_text(report.graph.to_dot(report.scc),
                                          encoding="utf-8")
    if args.json:
        json.dump(payload, sys.stdout, indent=2, sort_keys=False)
        sys.stdout.write("\n")
    else:
        print(f"saturating: {payload['saturating']}"
              + (f" rank: {payload['rank']['program']}" if "rank" in payload else "")
              + (f" arboreous: {payload['arboreous']}" if "arboreous" in payload else "")
              + (f" path-guarded: {payload['pathGuarded']}" if "pathGuarded" in payload else ""))
    return EXIT_OK


def _strategy(text: str):
    if text == "deterministic":
        return Deterministic()
    if text.startswith("seeded:"):
        return Seeded(int(text.split(":", 1)[1]))
    raise ValueError(f"unknown strategy {text!r} (deterministic or seeded:<n>)")


def cmd_chase(args) -> int:
    program = _load_program(args.program)
    database = _load_facts(args.facts, program.signature)
    result = chase(program, database, _strategy(args.strategy), args.max_steps)
    if args.trace:
        Path(args.trace).write_text("\n".join(result.trace.lines()) + "\n",
                                    encoding="utf-8")
    if args.trace_json:
        Path(args.trace_json).write_text(json.dumps(result.trace.to_dict(), indent=2),
                                         encoding="utf-8")
    if args.term_tree:
        report = analyze(program)
        info = report.arboreous
        if info is None or not info.arboreous or not result.terminated:
            print("term tree needs an arboreous program and a terminated run",
                  file=sys.stderr)
            return EXIT_REFUSED
        tree = build_term_tree(result.trace, info)
        Path(args.term_tree).write_text(tree.to_dot(), encoding="utf-8")
    status = "terminated" if result.terminated else "step cap exceeded"
    print(f"{status}: {result.steps} steps, {len(result.interpretation)} atoms, "
          f"{len(result.interpretation.nulls())} nulls")
    return EXIT_OK


def cmd_query(args) -> int:
    program = _load_program(args.program)
    database = _load_facts(args.facts, program.signature)
    signature = dict(program.signature)
    for atom in database:
        signature.setdefault(atom.pred, atom.arity)
    q = parse_query(_read(args.query), signature)
    if args.engine == "full":
        result = chase(program, database, Deterministic(), args.max_steps)
        if not result.terminated:
            print("chase hit the step cap; no verdict", file=sys.stderr)
            return EXIT_REFUSED
        verdict = evaluate_bcq(result.interpretation, q)
    else:
        report = analyze(program)
        info = report.arboreous
        if info is None or not info.arboreous:
            reason = (report.saturation.verdict if info is None
                      else f"{info.verdict}: {info.reason}")
            print(f"tree engines require an arboreous program ({reason})",
                  file=sys.stderr)
            return EXIT_REFUSED
        if report.path_guarded is None or not report.path_guarded.guarded:
            bad = report.path_guarded.offending_rule_ids if report.path_guarded else ()
            print(f"tree engines require path-guarded rules (offending: {list(bad)})",
                  file=sys.stderr)
            return EXIT_REFUSED
        if args.engine == "tree-guided":
            try:
                verdict = tree_chase_guided(program, database, q, info,
                                            args.max_steps).entailed
            except ReferenceCapExceeded as err:
                print(f"{err}; no verdict", file=sys.stderr)
                return EXIT_REFUSED
        else:
            outcome = tree_chase_search(program, database, q, info.v_ehat,
                                        args.m_bound, args.search_budget)
            if outcome == "inconclusive":
                print("search budget exhausted; no verdict", file=sys.stderr)
                return EXIT_REFUSED
            verdict = outcome == "true"
    print("entailed" if verdict else "not entailed")
    return EXIT_OK


def _parse_clauses(text: str) -> tuple:
    clauses = []
    for chunk in text.split(";"):
        chunk = chunk.strip()
        if chunk:
            clauses.append(tuple(int(tok) for tok in chunk.split(",")))
    return tuple(clauses)


def cmd_examples(args) -> int:
    params = {}
    if args.levels is not None:
        params["levels"] = args.levels
    if args.n is not None:
        params["n"] = args.n
    if args.name == "dexp":
        params["props"] = not args.no_props
    if args.quantifiers is not None:
        params["quantifiers"] = args.quantifiers
    if args.clauses is not None:
        params["clauses"] = _parse_clauses(args.clauses)
    inst = instance_from_name(args.name, **params)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    (out / f"{inst.name}.tgd").write_text(inst.program.to_text(), encoding="utf-8")
    (out / f"{inst.name}.facts").write_text(inst.database.to_text(), encoding="utf-8")
    for i, q in enumerate(inst.queries):
        suffix = "" if len(inst.queries) == 1 else str(i + 1)
        (out / f"{inst.name}{suffix}.query").write_text(str(q) + "\n", encoding="utf-8")
    print(f"wrote {inst.name} files to {out}")
    return EXIT_OK


def cmd_graph(args) -> int:
    graph = build_ledgraph(_load_program(args.program))
    dot = graph.to_dot(scc_analysis(graph))
    if args.out:
        Path(args.out).write_text(dot, encoding="utf-8")
    else:
        sys.stdout.write(dot)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="chasekit")
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("parse", help="parse and validate a rule file")
    p.add_argument("program")
    p.add_argument("--echo", action="store_true", help="print the normalized rules")
    p.set_defaults(func=cmd_parse)

    p = sub.add_parser("analyze", help="run the full static analysis")
    p.add_argument("program")
    p.add_argument("--json", action="store_true")
    p.add_argument("--dot", metavar="DIR", help="write graph exports to DIR")
    p.add_argument("--budget", type=_count, default=4096,
                   help="certificate candidates per component")
    p.add_argument("--path-budget", type=_count, default=DEFAULT_PATH_BUDGET)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("chase", help="run the restricted chase")
    p.add_argument("program")
    p.add_argument("facts")
    p.add_argument("--max-steps", type=_count, default=DEFAULT_CHASE_CAP)
    p.add_argument("--strategy", default="deterministic",
                   help="deterministic or seeded:<n>")
    p.add_argument("--trace", metavar="OUT", help="write the line-format trace")
    p.add_argument("--trace-json", metavar="OUT", help="write the structured trace")
    p.add_argument("--term-tree", metavar="OUT",
                   help="write the run's term tree as DOT (arboreous programs)")
    p.set_defaults(func=cmd_chase)

    p = sub.add_parser("query", help="decide Boolean query entailment")
    p.add_argument("program")
    p.add_argument("facts")
    p.add_argument("query")
    p.add_argument("--engine", choices=("full", "tree-guided", "tree-search"),
                   default="full")
    p.add_argument("--max-steps", type=_count, default=DEFAULT_CHASE_CAP)
    p.add_argument("--m-bound", type=_count, default=32,
                   help="inner bound for the search engine")
    p.add_argument("--search-budget", type=_count, default=DEFAULT_SEARCH_BUDGET)
    p.set_defaults(func=cmd_query)

    p = sub.add_parser("examples", help="write a built-in instance to files")
    p.add_argument("name", choices=("dexp", "dexp-nonterm", "sets", "sets-nonterm",
                                    "qbf", "counter"))
    p.add_argument("--out", default=".")
    p.add_argument("--levels", type=int)
    p.add_argument("--n", type=int)
    p.add_argument("--no-props", action="store_true",
                   help="dexp only: omit the propagation rules")
    p.add_argument("--quantifiers", help="qbf only: string over e/a")
    p.add_argument("--clauses", help="qbf only: e.g. '1,-2;-1,2'")
    p.set_defaults(func=cmd_examples)

    p = sub.add_parser("graph", help="emit the dependency graph as DOT")
    p.add_argument("program")
    p.add_argument("-o", "--out")
    p.set_defaults(func=cmd_graph)
    return top


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (KbError, OSError, ValueError) as err:
        print(f"input error: {err}", file=sys.stderr)
        return EXIT_INPUT
    except (InvariantViolation, ReplayDivergence) as err:
        print(f"internal invariant violated: {err}", file=sys.stderr)
        return EXIT_INVARIANT


if __name__ == "__main__":
    sys.exit(main())
