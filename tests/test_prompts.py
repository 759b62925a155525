import numpy as np
import pytest

from tagsiege.errors import RetrievalExhaustedError, TemplateError
from tagsiege.graph import TextAttributedGraph
from tagsiege.prompts import (
    PromptTemplate,
    build_text_prompt,
    build_topology_prompt,
    default_text_template,
    default_topology_template,
    load_template,
)
from tagsiege.retrieval import InfluencerSet
from tagsiege.seeding import substream


def star_graph():
    # node 0 is the hub; 5 is isolated
    return TextAttributedGraph.build(
        texts=[f"title {i} topic{i % 2}" for i in range(6)],
        labels=[i % 2 for i in range(6)],
        splits=["train"] * 6,
        edges=[(0, 1), (0, 2)],
    )


def test_default_templates_validate():
    topo = default_topology_template()
    text = default_text_template()
    assert topo.name == "topology"
    assert "Step 3" in topo.text
    assert text.name == "text"
    assert "Step 2" in text.text


def test_template_rejects_missing_and_unknown_placeholders():
    with pytest.raises(TemplateError):
        PromptTemplate("topology", "no placeholders at all")
    with pytest.raises(TemplateError):
        PromptTemplate("text", "{target_text} {influencer_text} {bogus}")
    with pytest.raises(TemplateError):
        PromptTemplate("other", "{target_text}")


def test_topology_prompt_lists_neighbors_and_candidates():
    g = star_graph()
    infl = InfluencerSet(target=0, candidates=(3, 4, 5, 2))
    prompt = build_topology_prompt(g, 0, infl)
    assert prompt.neighbor_ids == (1, 2)
    # candidate 2 is already a neighbor, so it is filtered out
    assert set(prompt.candidate_ids) == {3, 4, 5}
    assert prompt.text.count("- node") == 2 + 3
    assert g.texts[0] in prompt.text
    for n in (1, 2):
        assert g.texts[n] in prompt.text
    assert '"delete_id"' in prompt.text  # schema instruction appended


def test_topology_prompt_golden_bytes_under_fixed_seed():
    g = star_graph()
    infl = InfluencerSet(target=0, candidates=(3, 4, 5))
    first = build_topology_prompt(g, 0, infl, rng=substream(9, "candidates-0"))
    second = build_topology_prompt(g, 0, infl, rng=substream(9, "candidates-0"))
    assert first.text.encode() == second.text.encode()
    assert first.candidate_ids == second.candidate_ids


def test_topology_prompt_isolated_target():
    g = star_graph()
    infl = InfluencerSet(target=5, candidates=(1, 2))
    prompt = build_topology_prompt(g, 5, infl)
    assert prompt.neighbor_ids == ()
    assert "(none)" in prompt.text


def test_topology_prompt_exhausted_candidates():
    g = star_graph()
    infl = InfluencerSet(target=0, candidates=(1, 2))  # both already neighbors
    with pytest.raises(RetrievalExhaustedError):
        build_topology_prompt(g, 0, infl)


def test_text_prompt_contains_both_texts():
    g = star_graph()
    prompt = build_text_prompt(g, 0, 3)
    assert g.texts[0] in prompt.text
    assert g.texts[3] in prompt.text
    assert prompt.influencer == 3
    assert '"keyword"' in prompt.text


def test_load_template_from_file(tmp_path):
    path = tmp_path / "topo.txt"
    path.write_text(
        "T: {target_text}\nN:\n{neighbor_list}\nC:\n{candidate_list}\npick."
    )
    tpl = load_template(path, "topology")
    g = star_graph()
    prompt = build_topology_prompt(g, 0, InfluencerSet(0, (3, 4)), template=tpl)
    assert prompt.text.startswith("T: ")
    bad = tmp_path / "bad.txt"
    bad.write_text("missing everything")
    with pytest.raises(TemplateError):
        load_template(bad, "text")
