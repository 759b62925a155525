"""Perturbation plans: budgets, validation and application to a graph.

A plan maps target nodes to one edge deletion, one edge insertion and an
optional text rewrite. Budgets bound the planners that make a plan: `attack`
spends at most one deletion and one insertion per target and keeps each
rewrite within its text budget of token edits (token set symmetric
difference); the RND/FLIP baselines spend the edge `Budgets`. `apply_plan`
checks a plan against the clean graph and counts its edits, without caps.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from itertools import chain
from pathlib import Path
from typing import NamedTuple

from .errors import BudgetError, ConfigurationError, PlanInconsistencyError, ShapeError
from .graph import TextAttributedGraph, canonical_edge
from .records import integer, read_jsonl, typed, write_jsonl


@dataclass(frozen=True)
class Budgets:
    """Edge edit allowances that the RND/FLIP baselines spend."""

    per_node_edge_budget: int = 2
    global_edge_budget: int = 0

    def __post_init__(self):
        for name in ("per_node_edge_budget", "global_edge_budget"):
            if getattr(self, name) < 0:
                raise BudgetError(f"{name} must be >= 0")

    @classmethod
    def for_targets(cls, target_count: int) -> "Budgets":
        """The default per-node edge budget, with a global one sized so every
        target can spend it in full."""
        return cls(global_edge_budget=cls.per_node_edge_budget * target_count)


def ordered_targets(graph: TextAttributedGraph, targets: list[int]) -> list[int]:
    """Distinct targets in ascending order; each must be a node of the graph."""
    for target in targets:
        if not 0 <= target < graph.node_count:
            raise ConfigurationError(f"target {target} is not a node")
    return sorted(set(targets))


@dataclass(frozen=True)
class PlanEntry:
    target: int
    delete_neighbor: int | None
    add_influencer: int
    keyword: str | None = None
    new_text: str | None = None
    rationale: str = ""
    intended_label: int | None = None


@dataclass
class PerturbationPlan:
    """Entries of completed targets and skip reasons of the rest; each target once."""

    entries: dict[int, PlanEntry] = field(default_factory=dict)
    skipped: dict[int, str] = field(default_factory=dict)

    def _record(self, into: dict, target: int, value) -> None:
        if target in self.entries or target in self.skipped:
            raise PlanInconsistencyError(f"target {target} is already in the plan")
        into[target] = value

    def add(self, entry: PlanEntry) -> None:
        self._record(self.entries, entry.target, entry)

    def skip(self, target: int, reason: str) -> None:
        self._record(self.skipped, target, reason)

    @property
    def query_count(self) -> int:
        """One topology and one text query per completed target."""
        return 2 * len(self.entries)

    def targets(self) -> list[int]:
        return sorted(self.entries)

    def __len__(self) -> int:
        return len(self.entries)


class PlanAudit(NamedTuple):
    """Edits between a clean graph and a perturbed one (see `edit_counts`)."""

    edge_edits: int
    text_edits: int
    edge_ratio: float


@dataclass(frozen=True)
class AppliedPlan:
    graph: TextAttributedGraph
    audit: PlanAudit


def _validate_entry(graph: TextAttributedGraph, entry: PlanEntry) -> None:
    t = entry.target
    if not 0 <= t < graph.node_count:
        raise PlanInconsistencyError(f"target {t} is not a node")
    if entry.delete_neighbor is not None:
        d = entry.delete_neighbor
        if not graph.has_edge(t, d):
            raise PlanInconsistencyError(
                f"target {t}: cannot delete edge to {d}; no such edge"
            )
    a = entry.add_influencer
    if not 0 <= a < graph.node_count:
        raise PlanInconsistencyError(f"target {t}: insertion endpoint {a} is not a node")
    if a == t:
        raise PlanInconsistencyError(f"target {t}: insertion would be a self-loop")
    if graph.has_edge(t, a) and entry.delete_neighbor != a:
        raise PlanInconsistencyError(
            f"target {t}: edge to {a} already present; insertion is a no-op"
        )
    if entry.new_text is not None and not entry.new_text.strip():
        raise PlanInconsistencyError(f"target {t}: rewritten text is empty")


def apply_plan(graph: TextAttributedGraph, plan: PerturbationPlan) -> AppliedPlan:
    """Validate a plan against the clean graph, apply it and count its edits.

    All checks happen against the clean graph, and entries apply in target
    order. Budgets are not checked here: the planner that made the plan
    spent them. Every target is edited at most once, but entries can still
    share an edge: two targets that add (or delete) the edge between them, or
    a deletion undone by a re-insertion. The audit is therefore read off the
    two graphs, `edit_counts(graph, perturbed)`, not off the entries. An empty
    plan returns the graph unchanged.
    """
    edges = set(graph.edges)
    texts = list(graph.texts)
    for target in sorted(plan.entries):
        entry = plan.entries[target]
        _validate_entry(graph, entry)
        if entry.delete_neighbor is not None:
            edges.discard(canonical_edge(target, entry.delete_neighbor))
        edges.add(canonical_edge(target, entry.add_influencer))
        if entry.new_text is not None:
            texts[target] = entry.new_text

    perturbed = graph.with_changes(edges=edges, texts=texts)
    return AppliedPlan(graph=perturbed, audit=edit_counts(graph, perturbed))


def edit_counts(clean: TextAttributedGraph, perturbed: TextAttributedGraph) -> PlanAudit:
    """Edge edits, text token edits and the edge edit ratio between two graphs.

    Edge edits are the symmetric difference of the edge sets; the ratio is
    relative to the clean edge count. Text edits sum token set symmetric
    differences over changed nodes (`text_features` loads numpy, so only here).
    """
    from .text_features import token_edit_distance

    if clean.node_count != perturbed.node_count:
        raise ShapeError(
            f"node counts differ: {clean.node_count} vs {perturbed.node_count}"
        )
    edge_edits = len(clean.edges.symmetric_difference(perturbed.edges))
    text_edits = sum(
        token_edit_distance(a, b)
        for a, b in zip(clean.texts, perturbed.texts)
        if a != b
    )
    ratio = edge_edits / clean.edge_count if clean.edge_count else 0.0
    return PlanAudit(edge_edits, text_edits, ratio)


def save_plan(plan: PerturbationPlan, path: str | Path) -> Path:
    """One JSON object per line: entries sorted by target, then skips."""
    entries = (asdict(plan.entries[t]) for t in sorted(plan.entries))
    skips = ({"target": t, "skipped": plan.skipped[t]} for t in sorted(plan.skipped))
    return write_jsonl(path, chain(entries, skips))


def _optional(rec: dict, key: str, convert):
    value = rec.get(key)
    return None if value is None else convert(value)


def _plan_record(rec: dict) -> PlanEntry | tuple[int, str]:
    """A PlanEntry, or (target, reason) for a skip record."""
    if "skipped" in rec:
        return integer(rec["target"]), typed(rec["skipped"], str)
    return PlanEntry(
        target=integer(rec["target"]),
        delete_neighbor=_optional(rec, "delete_neighbor", integer),
        add_influencer=integer(rec["add_influencer"]),
        keyword=_optional(rec, "keyword", lambda v: typed(v, str)),
        new_text=_optional(rec, "new_text", lambda v: typed(v, str)),
        rationale=typed(rec.get("rationale", ""), str),
        intended_label=_optional(rec, "intended_label", integer),
    )


def load_plan(path: str | Path) -> PerturbationPlan:
    """PlanInconsistencyError, naming the line, for a target recorded twice."""
    plan = PerturbationPlan()
    for lineno, rec in read_jsonl(path, _plan_record):
        try:
            if isinstance(rec, PlanEntry):
                plan.add(rec)
            else:
                plan.skip(*rec)
        except PlanInconsistencyError as exc:
            raise PlanInconsistencyError(f"{path}:{lineno}: {exc}") from None
    return plan
