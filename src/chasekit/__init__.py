"""Toolkit for existential rules: restricted chase, termination analysis,
and space-bounded query answering."""

import sys
import types

from .model import (Atom, BCQ, Constant, Database, Interpretation, KbError,
                    Null, ParseError, Program, Term, Tgd, ValidationError,
                    Variable, parse_facts, parse_program, parse_query)
from .matching import bcq_match, evaluate_bcq, find_matches, head_satisfied
from .datalog import entails, saturate
from .chase import (ChaseResult, ChaseStep, ChaseTrace, Deterministic, Seeded,
                    chase, validate_trace)
from .depgraph import (DepEdge, LabelledDepGraph, Position, RankReport,
                       SccAnalysis, build_ledgraph, compute_omegas,
                       compute_rank, positions_of, scc_analysis)
from .saturation import (CheckReport, PathQuery, SaturationResult,
                         check_e_saturating, enumerate_ebar_paths,
                         find_saturating_certificate, is_base_propagating,
                         is_step_propagating, path_query)
from .arboreal import (ArboreousInfo, InvariantViolation, NullForest,
                       PathGuardReport, PositionOrder, TermTree,
                       build_null_forest, build_term_tree, check_arboreous,
                       compute_position_order, is_path_guarded)
from .treechase import (Apply, Break, GuidedResult, InvalidChoice,
                        ReferenceCapExceeded, ReplayDivergence, SpaceProfile,
                        TaskNode, TreeChaseRun,
                        build_task_tree, schedule_sequence, tree_chase_guided,
                        tree_chase_run, tree_chase_search)
from .corpus import (CorpusInstance, QbfFormula, gen_counter, gen_dexp,
                     gen_dexp_nonterm, gen_qbf, gen_sets, gen_sets_nonterm,
                     instance_from_name, qbf_truth)
from .analysis import AnalysisReport, analyze


class _ChaseModule(types.ModuleType):
    """The ``chasekit.chase`` submodule, callable as its function ``chase``,
    so that the package attribute is the module and ``from chasekit import
    chase; chase(program, database)`` still runs the chase."""

    def __call__(self, *args, **kwargs):
        return self.chase(*args, **kwargs)


chase = sys.modules[__name__ + ".chase"]
chase.__class__ = _ChaseModule

__all__ = [
    "Atom", "BCQ", "Constant", "Database", "Interpretation", "KbError", "Null",
    "ParseError", "Program", "Term", "Tgd", "ValidationError", "Variable",
    "parse_facts", "parse_program", "parse_query",
    "bcq_match", "evaluate_bcq", "find_matches", "head_satisfied",
    "entails", "saturate",
    "ChaseResult", "ChaseStep", "ChaseTrace", "Deterministic", "Seeded",
    "chase", "validate_trace",
    "DepEdge", "LabelledDepGraph", "Position", "RankReport", "SccAnalysis",
    "build_ledgraph", "compute_omegas", "compute_rank", "positions_of",
    "scc_analysis",
    "CheckReport", "PathQuery", "SaturationResult", "check_e_saturating",
    "enumerate_ebar_paths", "find_saturating_certificate",
    "is_base_propagating", "is_step_propagating", "path_query",
    "ArboreousInfo", "InvariantViolation", "NullForest", "PathGuardReport",
    "PositionOrder", "TermTree", "build_null_forest", "build_term_tree",
    "check_arboreous", "compute_position_order", "is_path_guarded",
    "Apply", "Break", "GuidedResult", "InvalidChoice", "ReferenceCapExceeded",
    "ReplayDivergence", "SpaceProfile", "TaskNode", "TreeChaseRun",
    "build_task_tree", "schedule_sequence", "tree_chase_guided",
    "tree_chase_run", "tree_chase_search",
    "CorpusInstance", "QbfFormula", "gen_counter", "gen_dexp",
    "gen_dexp_nonterm", "gen_qbf", "gen_sets", "gen_sets_nonterm",
    "instance_from_name", "qbf_truth",
    "AnalysisReport", "analyze",
]
