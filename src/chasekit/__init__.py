"""Toolkit for existential rules: restricted chase, termination analysis,
and space-bounded query answering.

``__all__`` is the public API, listed by module under "Library" in the
README; every other name is internal to its module.
"""

import sys
import types

from .model import (Atom, BCQ, Constant, Database, Interpretation, KbError,
                    Null, ParseError, Position, Program, Term, Tgd,
                    ValidationError, Variable, parse_facts, parse_program,
                    parse_query)
from .matching import bcq_match, evaluate_bcq, head_satisfied
from .datalog import entails
from .chase import ChaseResult, ChaseStep, ChaseTrace, Deterministic, Seeded, chase
from .depgraph import (DepEdge, LabelledDepGraph, RankReport, SccAnalysis,
                       build_ledgraph, compute_rank, scc_analysis)
from .saturation import CheckReport, SaturationResult, find_saturating_certificate
from .arboreal import (ArboreousInfo, InvariantViolation, PathGuardReport,
                       PositionOrder, TermTree, build_term_tree, check_arboreous,
                       compute_position_order, is_path_guarded)
from .treechase import (GuidedResult, ReferenceCapExceeded, ReplayDivergence,
                        SpaceProfile, TreeChaseRun, tree_chase_guided,
                        tree_chase_search)
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
    "ParseError", "Position", "Program", "Term", "Tgd", "ValidationError",
    "Variable", "parse_facts", "parse_program", "parse_query",
    "bcq_match", "evaluate_bcq", "head_satisfied",
    "entails",
    "ChaseResult", "ChaseStep", "ChaseTrace", "Deterministic", "Seeded", "chase",
    "DepEdge", "LabelledDepGraph", "RankReport", "SccAnalysis",
    "build_ledgraph", "compute_rank", "scc_analysis",
    "CheckReport", "SaturationResult", "find_saturating_certificate",
    "ArboreousInfo", "InvariantViolation", "PathGuardReport", "PositionOrder",
    "TermTree", "build_term_tree", "check_arboreous", "compute_position_order",
    "is_path_guarded",
    "GuidedResult", "ReferenceCapExceeded", "ReplayDivergence", "SpaceProfile",
    "TreeChaseRun", "tree_chase_guided", "tree_chase_search",
    "CorpusInstance", "QbfFormula", "gen_counter", "gen_dexp",
    "gen_dexp_nonterm", "gen_qbf", "gen_sets", "gen_sets_nonterm",
    "instance_from_name", "qbf_truth",
    "AnalysisReport", "analyze",
]
