import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tagsiege.errors import BudgetError, PlanInconsistencyError, ShapeError
from tagsiege.graph import TextAttributedGraph
from tagsiege.plan import (
    AppliedPlan,
    Budgets,
    PerturbationPlan,
    PlanAudit,
    PlanEntry,
    apply_plan,
    edit_counts,
    load_plan,
    save_plan,
)
from tagsiege.records import write_jsonl


def path_graph(n=6):
    return TextAttributedGraph.build(
        texts=[f"word{i} common" for i in range(n)],
        labels=[i % 2 for i in range(n)],
        splits=["train"] * n,
        edges=[(i, i + 1) for i in range(n - 1)],
    )


def test_budgets_reject_negative():
    with pytest.raises(BudgetError):
        Budgets(per_node_edge_budget=-1)


def test_for_targets_scales_globals():
    b = Budgets.for_targets(7)
    assert b.global_edge_budget == 14


def test_empty_plan_is_identity():
    g = path_graph()
    applied = apply_plan(g, PerturbationPlan())
    assert applied.graph == g
    assert applied.audit == PlanAudit(0, 0, 0.0)


def test_apply_swaps_edge_and_text():
    g = path_graph()
    plan = PerturbationPlan()
    plan.add(PlanEntry(target=2, delete_neighbor=1, add_influencer=5,
                       new_text="word2 common extra"))
    applied = apply_plan(g, plan)
    assert not applied.graph.has_edge(1, 2)
    assert applied.graph.has_edge(2, 5)
    assert applied.graph.texts[2] == "word2 common extra"
    assert applied.audit.edge_edits == 2
    assert applied.audit.text_edits == 1  # one token added, none removed
    # clean graph untouched
    assert g.has_edge(1, 2)


def test_insertion_only_entry_costs_one():
    g = path_graph()
    plan = PerturbationPlan()
    plan.add(PlanEntry(target=0, delete_neighbor=None, add_influencer=3))
    applied = apply_plan(g, plan)
    assert applied.audit.edge_edits == 1
    assert applied.graph.has_edge(0, 3)


def test_delete_requires_existing_edge():
    plan = PerturbationPlan()
    plan.add(PlanEntry(target=0, delete_neighbor=4, add_influencer=3))
    with pytest.raises(PlanInconsistencyError):
        apply_plan(path_graph(), plan)


def test_delete_of_the_target_itself_names_the_missing_edge():
    g = path_graph()
    assert not g.has_edge(2, 2)
    plan = PerturbationPlan()
    plan.add(PlanEntry(target=2, delete_neighbor=2, add_influencer=5))
    with pytest.raises(PlanInconsistencyError, match="cannot delete edge to 2; no such edge"):
        apply_plan(g, plan)


def test_insert_rejects_existing_edge_and_self_loop():
    plan = PerturbationPlan()
    plan.add(PlanEntry(target=0, delete_neighbor=1, add_influencer=1))
    # deleting (0,1) then re-adding it is allowed by the rule delete != add only
    # when endpoints differ; here delete == add, which is a pointless round trip
    # the validator tolerates structurally but the edge ends up present again.
    applied = apply_plan(path_graph(), plan)
    assert applied.graph.has_edge(0, 1)

    plan2 = PerturbationPlan()
    plan2.add(PlanEntry(target=2, delete_neighbor=None, add_influencer=2))
    with pytest.raises(PlanInconsistencyError):
        apply_plan(path_graph(), plan2)

    plan3 = PerturbationPlan()
    plan3.add(PlanEntry(target=2, delete_neighbor=None, add_influencer=3))
    with pytest.raises(PlanInconsistencyError):
        apply_plan(path_graph(), plan3)


def test_text_edit_charged_as_set_difference():
    g = path_graph()
    plan = PerturbationPlan()
    # removes "word2" and adds three new tokens -> distance 4
    plan.add(PlanEntry(target=2, delete_neighbor=1, add_influencer=5,
                       new_text="common aa bb cc"))
    applied = apply_plan(g, plan)
    assert applied.audit.text_edits == 4


def test_duplicate_target_rejected():
    plan = PerturbationPlan()
    plan.add(PlanEntry(target=2, delete_neighbor=1, add_influencer=5))
    plan.skip(3, "isolated")
    for target in (2, 3):
        with pytest.raises(PlanInconsistencyError, match=f"target {target} is already"):
            plan.add(PlanEntry(target=target, delete_neighbor=None, add_influencer=0))
        with pytest.raises(PlanInconsistencyError, match=f"target {target} is already"):
            plan.skip(target, "again")
    assert plan.entries.keys() == {2} and plan.skipped == {3: "isolated"}


ENTRY_3 = {"target": 3, "delete_neighbor": 2, "add_influencer": 5}
SKIP_3 = {"target": 3, "skipped": "isolated"}


@pytest.mark.parametrize("records", [
    [ENTRY_3, SKIP_3],
    [SKIP_3, ENTRY_3],
    [SKIP_3, {"target": 3, "skipped": "again"}],
    [ENTRY_3, ENTRY_3],
], ids=["entry-then-skip", "skip-then-entry", "two-skips", "two-entries"])
def test_load_plan_rejects_a_target_recorded_twice(tmp_path, records):
    path = tmp_path / "plan.jsonl"
    write_jsonl(path, [{"target": 1, "delete_neighbor": 0, "add_influencer": 4}, *records])
    with pytest.raises(PlanInconsistencyError, match=rf"plan\.jsonl:3: target 3 is already"):
        load_plan(path)


def test_edit_counts_match_applied_audit():
    g = path_graph()
    plan = PerturbationPlan()
    plan.add(PlanEntry(target=2, delete_neighbor=1, add_influencer=5,
                       new_text="word2 common extra"))
    plan.add(PlanEntry(target=4, delete_neighbor=None, add_influencer=0))
    applied = apply_plan(g, plan)
    edge_edits, text_edits, ratio = edit_counts(g, applied.graph)
    assert (edge_edits, text_edits) == (3, 1)
    assert ratio == pytest.approx(3 / g.edge_count)
    assert applied.audit == (edge_edits, text_edits, ratio)


def test_edit_counts_rejects_mismatched_graphs():
    with pytest.raises(ShapeError):
        edit_counts(path_graph(4), path_graph(5))


def test_plan_roundtrip(tmp_path):
    plan = PerturbationPlan()
    plan.add(PlanEntry(target=2, delete_neighbor=1, add_influencer=5,
                       keyword="extra", new_text="word2 common extra",
                       rationale="closest influencer", intended_label=1))
    plan.add(PlanEntry(target=4, delete_neighbor=None, add_influencer=0))
    plan.skip(3, "isolated")
    path = tmp_path / "plan.jsonl"
    save_plan(plan, path)
    loaded = load_plan(path)
    assert loaded.entries == plan.entries
    assert loaded.skipped == plan.skipped
    # deterministic bytes
    save_plan(loaded, tmp_path / "plan2.jsonl")
    assert path.read_bytes() == (tmp_path / "plan2.jsonl").read_bytes()


def test_edge_shared_by_two_entries_is_charged_once():
    g = path_graph()
    plan = PerturbationPlan()
    # both entries add (0, 3) and both delete (1, 2)
    plan.add(PlanEntry(target=0, delete_neighbor=None, add_influencer=3))
    plan.add(PlanEntry(target=1, delete_neighbor=2, add_influencer=4))
    plan.add(PlanEntry(target=2, delete_neighbor=1, add_influencer=5))
    plan.add(PlanEntry(target=3, delete_neighbor=None, add_influencer=0))
    applied = apply_plan(g, plan)
    assert applied.audit.edge_edits == 4


def test_round_trip_entry_is_charged_nothing():
    plan = PerturbationPlan()
    plan.add(PlanEntry(target=0, delete_neighbor=1, add_influencer=1))
    applied = apply_plan(path_graph(), plan)
    assert applied.graph == path_graph()
    assert applied.audit.edge_edits == 0


@st.composite
def graphs_and_plans(draw):
    """A small graph and a valid plan on it, dense enough that entries often
    share an edge; some entries rewrite their text, sometimes to the same
    text."""
    n = draw(st.integers(3, 7))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True))
    g = TextAttributedGraph.build(
        texts=[f"word{i}" for i in range(n)],
        labels=[0] * n,
        splits=["train"] * n,
        edges=edges,
    )
    plan = PerturbationPlan()
    for t in draw(st.lists(st.integers(0, n - 1), unique=True)):
        delete = draw(st.sampled_from([None, *g.neighbors(t)]))
        addable = [a for a in range(n) if a != t and (a == delete or not g.has_edge(t, a))]
        if addable:
            words = st.sampled_from([f"word{t}", "alpha", "beta", "gamma"])
            new_text = draw(st.none() | st.lists(words, min_size=1).map(" ".join))
            plan.add(PlanEntry(target=t, delete_neighbor=delete,
                               add_influencer=draw(st.sampled_from(addable)),
                               new_text=new_text))
    return g, plan


@settings(max_examples=300, deadline=None)
@given(graphs_and_plans())
def test_audit_counts_the_edge_diff_and_the_token_diffs(case):
    g, plan = case
    applied = apply_plan(g, plan)
    # the plan applied by hand, in target order
    edges = {frozenset(e) for e in g.edges}
    texts = list(g.texts)
    for t in plan.targets():
        entry = plan.entries[t]
        edges.discard(frozenset((t, entry.delete_neighbor)))
        edges.add(frozenset((t, entry.add_influencer)))
        if entry.new_text is not None:
            texts[t] = entry.new_text
    assert {frozenset(e) for e in applied.graph.edges} == edges
    assert list(applied.graph.texts) == texts
    edge_edits = len(edges ^ {frozenset(e) for e in g.edges})
    text_edits = sum(len(set(old.split()) ^ set(new.split())) for old, new in zip(g.texts, texts))
    assert applied.audit.edge_edits == edge_edits <= 2 * len(plan)
    assert applied.audit.text_edits == text_edits
    assert applied.audit.edge_ratio == (edge_edits / g.edge_count if g.edge_count else 0.0)
