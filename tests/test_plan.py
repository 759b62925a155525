import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tagsiege.errors import BudgetError, PlanInconsistencyError, ShapeError
from tagsiege.graph import TextAttributedGraph
from tagsiege.plan import (
    AppliedPlan,
    Budgets,
    PerturbationPlan,
    PlanEntry,
    apply_plan,
    edit_counts,
    load_plan,
    save_plan,
)


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
    b = Budgets.for_targets(7, text_token_budget=8)
    assert b.global_edge_budget == 14


def test_empty_plan_is_identity():
    g = path_graph()
    applied = apply_plan(g, PerturbationPlan())
    assert applied.graph == g
    assert applied.audit.edge_edits == 0
    assert applied.audit.text_edits_total == 0


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
    assert applied.audit.text_edits_total == 1  # one token added, none removed
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
    assert applied.audit.per_node_text_edits[2] == 4


def test_duplicate_target_rejected():
    plan = PerturbationPlan()
    plan.add(PlanEntry(target=2, delete_neighbor=1, add_influencer=5))
    with pytest.raises(PlanInconsistencyError):
        plan.add(PlanEntry(target=2, delete_neighbor=3, add_influencer=0))


def test_edit_counts_match_applied_audit():
    g = path_graph()
    plan = PerturbationPlan()
    plan.add(PlanEntry(target=2, delete_neighbor=1, add_influencer=5,
                       new_text="word2 common extra"))
    plan.add(PlanEntry(target=4, delete_neighbor=None, add_influencer=0))
    applied = apply_plan(g, plan)
    edge_edits, text_edits, ratio = edit_counts(g, applied.graph)
    assert edge_edits == applied.audit.edge_edits == 3
    assert text_edits == applied.audit.text_edits_total == 1
    assert ratio == pytest.approx(3 / g.edge_count)


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
    assert edit_counts(g, applied.graph)[0] == 4
    assert applied.audit.edge_edits == 4
    assert applied.audit.per_node_edge_edits == {0: 1, 1: 2, 2: 1, 3: 0}


def test_round_trip_entry_is_charged_nothing():
    plan = PerturbationPlan()
    plan.add(PlanEntry(target=0, delete_neighbor=1, add_influencer=1))
    applied = apply_plan(path_graph(), plan)
    assert applied.graph == path_graph()
    assert applied.audit.edge_edits == 0
    assert applied.audit.per_node_edge_edits == {0: 0}


@st.composite
def graphs_and_plans(draw):
    """A small graph and a valid plan on it, dense enough that entries often
    share an edge."""
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
            plan.add(PlanEntry(target=t, delete_neighbor=delete,
                               add_influencer=draw(st.sampled_from(addable))))
    return g, plan


@settings(max_examples=300, deadline=None)
@given(graphs_and_plans())
def test_audit_charges_equal_the_edge_diff(case):
    g, plan = case
    applied = apply_plan(g, plan)
    assert applied.audit.edge_edits == edit_counts(g, applied.graph)[0]
    assert sum(applied.audit.per_node_edge_edits.values()) == applied.audit.edge_edits
    assert sorted(applied.audit.per_node_edge_edits) == plan.targets()
    for t, cost in applied.audit.per_node_edge_edits.items():
        assert 0 <= cost <= plan.entries[t].edge_edit_count
