"""The full static pipeline and its machine-readable report.

Order: dependency graph, components, certificate search, ranks, tree-chase
applicability, position order, path guardedness.  Later stages run only as
far as their inputs allow (a non-saturating program gets no rank, a
non-arboreous one no position order).
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass
from typing import Optional

from .arboreal import (ArboreousInfo, PathGuardReport, PositionOrder,
                       check_arboreous, compute_position_order, is_path_guarded)
from .depgraph import (LabelledDepGraph, RankReport, SccAnalysis,
                       build_ledgraph, compute_rank, scc_analysis)
from .model import Program
from .saturation import SaturationResult, find_saturating_certificate


@dataclass
class AnalysisReport:
    program: Program
    graph: LabelledDepGraph
    scc: SccAnalysis
    saturation: SaturationResult
    ranks: Optional[RankReport]
    arboreous: Optional[ArboreousInfo]
    order: Optional[PositionOrder]
    path_guarded: Optional[PathGuardReport]
    elapsed: float

    def _vname(self, v) -> str:
        return self.graph.vertex_label(v)

    def to_dict(self) -> dict:
        g = self.graph
        out: dict = {
            "programHash": hashlib.sha256(self.program.to_text().encode()).hexdigest(),
            "ledgraph": {
                "vertices": [self._vname(v) for v in g.vertices],
                "edges": [[self._vname(e.src), e.label.name, self._vname(e.dst)]
                          for e in g.edges],
                "omega": {self._vname(v): sorted([p.pred, p.index] for p in omega)
                          for v, omega in g.omega.items()},
            },
            "sccs": [{
                "vertices": [self._vname(v) for v in sorted(comp, key=lambda u: u.id)],
                "beta": self.scc.beta[i],
                "labels": {self._vname(v): sorted(l.name for l in self.scc.lambda_of[v])
                           for v in sorted(comp, key=lambda u: u.id)},
            } for i, comp in enumerate(self.scc.components)],
            "saturation": {
                "verdict": self.saturation.verdict,
                "components": [{
                    "component": c.component,
                    "vertices": [self._vname(v) for v in c.vertices],
                    "edges": [[self._vname(e.src), e.label.name, self._vname(e.dst)]
                              for e in self.scc.intra_edges[c.component]],
                    "E": [[self._vname(e.src), e.label.name, self._vname(e.dst)]
                          for e in c.e_set],
                    "conditions": list(c.report.conditions) if c.report else None,
                    "basePathsChecked": c.report.base_paths_checked if c.report else 0,
                    "stepPairsChecked": c.report.step_pairs_checked if c.report else 0,
                    "verdict": c.verdict,
                    "reason": c.reason,
                } for c in self.saturation.components],
            },
        }
        out["saturating"] = self.saturation.verdict == "saturating"
        if self.ranks is not None:
            out["rank"] = {
                "components": [{
                    "component": c.component,
                    "rIn": c.r_in,
                    "rCxt": c.r_cxt,
                    "contextComponents": list(c.context_components),
                    "rank": c.rank,
                } for c in self.ranks.components],
                "program": self.ranks.program_rank,
            }
        if self.arboreous is not None:
            out["arboreous"] = self.arboreous.verdict == "arboreous"
            out["arboreousVerdict"] = self.arboreous.verdict
            out["arboreousReason"] = self.arboreous.reason
            out["Chat"] = [self._vname(v) for v in self.arboreous.chat]
            out["Ehat"] = [[self._vname(e.src), e.label.name, self._vname(e.dst)]
                           for e in self.arboreous.ehat]
            out["VEhat"] = [self._vname(v) for v in self.arboreous.v_ehat]
        if self.order is not None:
            out["positionOrder"] = sorted(
                [a.pred, a.index, b.pred, b.index] for a, b in self.order.pairs)
        if self.path_guarded is not None:
            out["pathGuarded"] = self.path_guarded.guarded
            out["offendingRules"] = list(self.path_guarded.offending_rule_ids)
        out["timing"] = {"seconds": round(self.elapsed, 6)}
        return out


def analyze(program: Program, path_budget: int = 10_000,
            candidate_budget: int = 4096) -> AnalysisReport:
    start = time.perf_counter()
    graph = build_ledgraph(program)
    scc = scc_analysis(graph)
    saturation = find_saturating_certificate(program, scc, path_budget,
                                             candidate_budget)
    ranks = arboreous = order = guard = None
    if saturation.verdict == "saturating":
        ranks = compute_rank(scc, saturation.certificates)
        arboreous = check_arboreous(program, scc, ranks, saturation.certificates)
        if arboreous.arboreous:
            order = compute_position_order(program, graph, scc, arboreous)
            guard = is_path_guarded(program, order)
    return AnalysisReport(program, graph, scc, saturation, ranks, arboreous,
                          order, guard, time.perf_counter() - start)
