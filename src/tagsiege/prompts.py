"""Prompt templates for the two attack queries.

Each target node costs exactly two prompts: one topology prompt walking
Steps 1-3 (summarize the neighborhood, pick the most relevant neighbor to
disconnect, pick the least related candidate to wire in) and one text prompt
walking Steps 1-2 (extract a category keyword from the influencer, rewrite
the target's text around it). Responses are requested as a single JSON
object so they parse deterministically.
"""

from __future__ import annotations

import string
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import RetrievalExhaustedError, TemplateError
from .graph import TextAttributedGraph
from .retrieval import InfluencerSet

REQUIRED_PLACEHOLDERS = {
    "topology": ("target_text", "neighbor_list", "candidate_list"),
    "text": ("target_text", "influencer_text"),
}

DEFAULT_TOPOLOGY_TEMPLATE = """\
Target node: {target_text}

Neighboring set:
{neighbor_list}

Candidate List:
{candidate_list}

Step 1: Analyze the target node and its neighboring set.
Summarize why the nodes in the neighboring set are adjacent to the target node. Be sure to highlight the most prominent factors that guide their strong correlation.

Step 2: From the neighboring set, choose the node that is most relevant to the target node. Let's break it down step by step to ensure we accurately evaluate the correlation.

Step 3: Based on the inferred prominent factors from Step 1, exclude the node from the following Candidate List that is least related to the target node and analyze why.
"""

DEFAULT_TEXT_TEMPLATE = """\
Step 1: Given the target node titled {influencer_text}, identify one keyword that reflects its category.

Step 2: Given the paper P1 titled {target_text}, your task is to generate a new paper by modifying P1 title so that it meets the following requirements:
1. It must retain some of the original words from the P1 title.
2. It should include the keyword identified in Step 1 and be aligned with the target node category determined in Step 1.
"""

TOPOLOGY_SCHEMA_INSTRUCTION = (
    'Respond with a single JSON object and nothing else, with keys '
    '"delete_id" (integer id of the neighbor chosen in Step 2), '
    '"add_id" (integer id of the candidate excluded in Step 3) and '
    '"rationale" (short string).'
)

TEXT_SCHEMA_INSTRUCTION = (
    'Respond with a single JSON object and nothing else, with keys '
    '"keyword" (single word), "new_text" (the modified title) and '
    '"rationale" (short string).'
)


@dataclass(frozen=True)
class PromptTemplate:
    name: str
    text: str

    def __post_init__(self):
        if self.name not in REQUIRED_PLACEHOLDERS:
            raise TemplateError(f"unknown template name {self.name!r}")
        found = {
            field
            for _, field, _, _ in string.Formatter().parse(self.text)
            if field is not None
        }
        required = set(REQUIRED_PLACEHOLDERS[self.name])
        missing = required - found
        if missing:
            raise TemplateError(
                f"{self.name} template missing placeholders: {sorted(missing)}"
            )
        unknown = found - required
        if unknown:
            raise TemplateError(
                f"{self.name} template has unknown placeholders: {sorted(unknown)}"
            )

    def render(self, **values: str) -> str:
        try:
            return self.text.format(**values)
        except (KeyError, IndexError) as exc:
            raise TemplateError(f"unresolved placeholder: {exc}") from exc


def default_topology_template() -> PromptTemplate:
    return PromptTemplate("topology", DEFAULT_TOPOLOGY_TEMPLATE)


def default_text_template() -> PromptTemplate:
    return PromptTemplate("text", DEFAULT_TEXT_TEMPLATE)


def load_template(path: str | Path, name: str) -> PromptTemplate:
    """Read template text from a file."""
    return PromptTemplate(name, Path(path).read_text())


def _node_lines(graph: TextAttributedGraph, ids: tuple[int, ...]) -> str:
    return "\n".join(f"- node {i}: {graph.texts[i]}" for i in ids)


@dataclass(frozen=True)
class TopologyPrompt:
    text: str
    target: int
    neighbor_ids: tuple[int, ...]
    candidate_ids: tuple[int, ...]


@dataclass(frozen=True)
class TextPrompt:
    text: str
    target: int
    influencer: int


def build_topology_prompt(
    graph: TextAttributedGraph,
    target: int,
    influencers: InfluencerSet,
    template: PromptTemplate | None = None,
    rng: np.random.Generator | None = None,
) -> TopologyPrompt:
    """One combined Steps 1-3 prompt; candidate order shuffled by `rng`.

    Candidates already adjacent to the target (or the target itself) are
    filtered out before presentation; an isolated target's neighbor list
    reads "(none)".
    """
    template = template or default_topology_template()
    neighbors = graph.neighbors(target)
    current = set(neighbors) | {target}
    pool = [c for c in influencers.candidates if c not in current]
    if not pool:
        raise RetrievalExhaustedError(
            f"target {target}: every retrieved candidate is already adjacent"
        )
    if rng is not None:
        pool = [pool[i] for i in rng.permutation(len(pool))]
    candidate_ids = tuple(pool)
    neighbor_list = _node_lines(graph, neighbors) if neighbors else "(none)"
    text = template.render(
        target_text=graph.texts[target],
        neighbor_list=neighbor_list,
        candidate_list=_node_lines(graph, candidate_ids),
    )
    text = text.rstrip("\n") + "\n\n" + TOPOLOGY_SCHEMA_INSTRUCTION + "\n"
    return TopologyPrompt(
        text=text, target=target, neighbor_ids=neighbors, candidate_ids=candidate_ids
    )


def build_text_prompt(
    graph: TextAttributedGraph,
    target: int,
    influencer: int,
    template: PromptTemplate | None = None,
) -> TextPrompt:
    """One combined Steps 1-2 text prompt anchored on the chosen influencer."""
    template = template or default_text_template()
    text = template.render(
        target_text=graph.texts[target],
        influencer_text=graph.texts[influencer],
    )
    text = text.rstrip("\n") + "\n\n" + TEXT_SCHEMA_INSTRUCTION + "\n"
    return TextPrompt(text=text, target=target, influencer=influencer)
