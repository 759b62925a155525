"""Per-target attack orchestration.

For each target: retrieve dissimilar candidates, issue ONE topology query
(covering both the deletion and the insertion choice) and ONE text query
anchored on the chosen insertion node, then assemble a budget-respecting
plan entry. `attack` has one way out: it returns its plan. A target that
fails is a skip, so a plan in which every target failed has no entries. A
bad configuration (a text budget or k below one) raises ConfigurationError
before retrieval and before any query.

Every query is built against the clean graph, so no target depends on
another's answers: up to `backend.max_in_flight` targets run at once (one for
the oracle, 24 for an LLM). Their outcomes enter the plan in sorted target
order, so the plan does not depend on the order replies arrive in.
"""

from __future__ import annotations

import logging
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from .backends import AttackerBackend, validate_text_decision, validate_topology_decision
from .config import DEFAULT_K
from .errors import BackendError, ConfigurationError, TagSiegeError
from .graph import TextAttributedGraph
from .nnops import pair_cosines, unit_rows
from .plan import PerturbationPlan, PlanEntry, ordered_targets
from .prompts import (
    PromptTemplate,
    TopologyPrompt,
    build_text_prompt,
    build_topology_prompt,
)
from .retrieval import retrieve_all
from .seeding import substream

log = logging.getLogger("tagsiege.attack")


def _next_best_candidate(prompt: TopologyPrompt, chosen: int, unit: np.ndarray) -> int | None:
    """Runner-up candidate by dissimilarity, for the anchor-mismatch ablation.

    `unit` holds the `unit_rows` of the embeddings.
    """
    others = [c for c in prompt.candidate_ids if c != chosen]
    if not others:
        return None
    return min(zip(pair_cosines(unit, prompt.target, others).tolist(), others))[1]


def check_attack_config(text_budget: int, k: int) -> None:
    """ConfigurationError for a text budget below one token edit or fewer
    than one influencer per target."""
    if text_budget < 1:
        raise ConfigurationError("text budget must allow at least one token edit")
    if k < 1:
        raise ConfigurationError("k must be >= 1")


def attack(
    graph: TextAttributedGraph,
    targets: list[int],
    embeddings: np.ndarray,
    backend: AttackerBackend,
    text_budget: int,
    templates: dict[str, PromptTemplate] | None = None,
    *,
    k: int = DEFAULT_K,
    seed: int = 0,
    anchor_mismatch: bool = False,
) -> PerturbationPlan:
    """Run the full pipeline over `targets` and return the perturbation plan.

    anchor_mismatch deliberately anchors the text rewrite on the runner-up
    candidate instead of the inserted one — the ablation that demonstrates
    why cross-modal alignment matters. Leave it off for the real attack.

    Each rewrite stays within `text_budget` token edits. A budget below one
    edit or a k below one is a ConfigurationError, and retrieval's own errors
    propagate; both are raised before any query. The returned plan holds an
    entry or a skip reason for every target, and no entries when every
    target failed.
    """
    check_attack_config(text_budget, k)
    templates = templates or {}
    topo_template = templates.get("topology")
    text_template = templates.get("text")
    plan = PerturbationPlan()
    embeddings = np.asarray(embeddings, dtype=float)

    ordered = ordered_targets(graph, targets)
    influencer_sets = retrieve_all(embeddings, ordered, k=k)
    unit = unit_rows(embeddings) if anchor_mismatch else None

    def attack_target(target: int) -> PlanEntry | TagSiegeError:
        try:
            influencers = influencer_sets[target]
            rng = substream(seed, f"candidates-{target}")
            prompt = build_topology_prompt(
                graph, target, influencers, template=topo_template, rng=rng
            )
            decision = backend.topology_decision(prompt)
            reason = validate_topology_decision(
                prompt, decision.delete_choice, decision.add_choice
            )
            if reason:
                raise BackendError(f"target {target}: {reason}")

            anchor = decision.add_choice
            if anchor_mismatch:
                runner_up = _next_best_candidate(prompt, anchor, unit)
                if runner_up is not None:
                    anchor = runner_up

            text_prompt = build_text_prompt(graph, target, anchor, template=text_template)
            edit = backend.text_decision(text_prompt, text_budget)
            reason = validate_text_decision(
                graph.texts[target], edit.keyword, edit.rewritten_text, text_budget
            )
            if reason:
                raise BackendError(f"target {target}: invalid rewrite: {reason}")
            return PlanEntry(
                target=target,
                delete_neighbor=decision.delete_choice,
                add_influencer=decision.add_choice,
                keyword=edit.keyword,
                new_text=edit.rewritten_text,
                rationale=decision.reasoning_summary,
                intended_label=graph.labels[decision.add_choice],
            )
        except TagSiegeError as exc:
            return exc

    pool = ThreadPoolExecutor(backend.max_in_flight)
    try:
        outcomes = list(pool.map(attack_target, ordered))
    finally:
        # on an unexpected error, targets not yet started never start
        pool.shutdown(cancel_futures=True)
        backend.close()

    for target, outcome in zip(ordered, outcomes):
        if isinstance(outcome, TagSiegeError):
            log.warning("target %d skipped: %s", target, outcome)
            plan.skip(target, str(outcome))
            continue
        if outcome.intended_label == graph.labels[target]:
            log.warning(
                "target %d: influencer %d shares its label; anchor is a no-op",
                target,
                outcome.add_influencer,
            )
        plan.add(outcome)
    return plan
