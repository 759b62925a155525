"""Perturbation plans: budgets, validation and application to a graph.

A plan maps target nodes to one edge deletion, one edge insertion and an
optional text rewrite. Budgets bound the planners that make a plan: `attack`
spends at most one deletion and one insertion per target and keeps each
rewrite within `text_token_budget` token edits (token set symmetric
difference); the RND/FLIP baselines spend the edge budgets. `apply_plan`
checks a plan against the clean graph and charges its edits, without caps.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from itertools import chain
from pathlib import Path

from .errors import BudgetError, ConfigurationError, PlanInconsistencyError, ShapeError
from .graph import TextAttributedGraph, canonical_edge
from .records import integer, read_jsonl, typed, write_jsonl
from .text_features import token_edit_distance

# influencer candidates retrieved per target, offered to each topology query
DEFAULT_K = 5


@dataclass(frozen=True)
class Budgets:
    """Edit allowances that a planner (`attack` or a baseline) spends."""

    per_node_edge_budget: int = 2
    global_edge_budget: int = 0
    text_token_budget: int = 0

    def __post_init__(self):
        for name in ("per_node_edge_budget", "global_edge_budget", "text_token_budget"):
            if getattr(self, name) < 0:
                raise BudgetError(f"{name} must be >= 0")

    @classmethod
    def for_targets(cls, target_count: int, text_token_budget: int = 12) -> "Budgets":
        """The default per-node edge budget, with a global one sized so every
        target can spend it in full."""
        return cls(
            global_edge_budget=cls.per_node_edge_budget * target_count,
            text_token_budget=text_token_budget,
        )


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

    @property
    def edge_edit_count(self) -> int:
        return (0 if self.delete_neighbor is None else 1) + 1


@dataclass
class PerturbationPlan:
    entries: dict[int, PlanEntry] = field(default_factory=dict)
    skipped: dict[int, str] = field(default_factory=dict)

    def add(self, entry: PlanEntry) -> None:
        if entry.target in self.entries:
            raise PlanInconsistencyError(f"duplicate plan entry for target {entry.target}")
        self.entries[entry.target] = entry

    def skip(self, target: int, reason: str) -> None:
        self.skipped[target] = reason

    def targets(self) -> list[int]:
        return sorted(self.entries)

    def __len__(self) -> int:
        return len(self.entries)


@dataclass(frozen=True)
class PlanAudit:
    edge_edits: int
    text_edits_total: int
    per_node_edge_edits: dict[int, int]
    per_node_text_edits: dict[int, int]


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
    """Validate a plan against the clean graph, apply it and charge its edits.

    All checks happen against the clean graph, and entries apply in target
    order. Budgets are not checked here: the planner that made the plan
    spent them. Every target is edited at most once, but entries can still
    share an edge: two targets that add (or delete) the edge between them, or
    a deletion undone by a re-insertion. The audit therefore charges the
    edges that differ between the clean and the perturbed graph, each to the
    first entry that names it; an entry's charge can fall below its
    `edge_edit_count`. Text edits are charged as token set symmetric
    differences. An empty plan returns the graph unchanged.
    """
    edges = set(graph.edges)
    texts = list(graph.texts)
    first_named: dict[tuple[int, int], int] = {}
    per_node_text: dict[int, int] = {}

    for target in sorted(plan.entries):
        entry = plan.entries[target]
        _validate_entry(graph, entry)

        if entry.delete_neighbor is not None:
            edge = canonical_edge(target, entry.delete_neighbor)
            first_named.setdefault(edge, target)
            edges.discard(edge)
        edge = canonical_edge(target, entry.add_influencer)
        first_named.setdefault(edge, target)
        edges.add(edge)

        if entry.new_text is not None:
            texts[target] = entry.new_text
            per_node_text[target] = token_edit_distance(graph.texts[target], entry.new_text)

    per_node_edge = dict.fromkeys(sorted(plan.entries), 0)
    for edge, target in first_named.items():
        if (edge in graph.edges) != (edge in edges):
            per_node_edge[target] += 1

    perturbed = graph.with_changes(edges=edges, texts=texts)
    audit = PlanAudit(
        edge_edits=sum(per_node_edge.values()),
        text_edits_total=sum(per_node_text.values()),
        per_node_edge_edits=per_node_edge,
        per_node_text_edits=per_node_text,
    )
    return AppliedPlan(graph=perturbed, audit=audit)


def edit_counts(
    clean: TextAttributedGraph, perturbed: TextAttributedGraph
) -> tuple[int, int, float]:
    """(edge edits, text token edits, edge edit ratio) between two graphs.

    Edge edits are the symmetric difference of the edge sets; the ratio is
    relative to the clean edge count. Text edits sum token set symmetric
    differences over changed nodes.
    """
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
    return edge_edits, text_edits, ratio


def save_plan(plan: PerturbationPlan, path: str | Path) -> None:
    """One JSON object per line: entries sorted by target, then skips."""
    entries = (asdict(plan.entries[t]) for t in sorted(plan.entries))
    skips = ({"target": t, "skipped": plan.skipped[t]} for t in sorted(plan.skipped))
    write_jsonl(path, chain(entries, skips))


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
    plan = PerturbationPlan()
    for _, rec in read_jsonl(path, _plan_record):
        if isinstance(rec, PlanEntry):
            plan.add(rec)
        else:
            plan.skip(*rec)
    return plan
