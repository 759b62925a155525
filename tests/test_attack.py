import hashlib
import itertools
import json
import random
import re
import sys
import threading
import time
import warnings
from dataclasses import replace

import numpy as np
import pytest

from tagsiege.attack import _next_best_candidate, attack
from tagsiege.backends import LLMBackend, LLMConfig, OracleBackend, validate_text_decision
from tagsiege.errors import BackendError, ConfigurationError, DegenerateVectorWarning
from tagsiege.graph import TextAttributedGraph
from tagsiege.metrics import bound_audit
from tagsiege.nnops import unit_rows
from tagsiege.plan import PerturbationPlan, apply_plan, load_plan, save_plan
from tagsiege.prompts import TopologyPrompt
from tagsiege.retrieval import retrieve_all
from tagsiege.seeding import substream
from tagsiege.text_features import Vocabulary, featurize, tokenize

from cosine_reference import cosine

TEXT_BUDGET = 12  # the CLI's default --text-budget


def demo_graph(n=16, classes=2, seed=5):
    """Ring plus chords; class-segregated token pools."""
    rng = substream(seed, "attack-demo")
    class_tokens = [
        ["alpha", "beta", "gamma", "delta"],
        ["omega", "psi", "chi", "phi"],
    ]
    texts, labels = [], []
    for i in range(n):
        label = i % classes
        toks = [class_tokens[label][int(x)] for x in rng.integers(0, 4, size=3)]
        texts.append(" ".join(toks + [f"id{i}"]))
        labels.append(label)
    edges = [(i, (i + 1) % n) for i in range(n)]
    return TextAttributedGraph.build(
        texts=texts, labels=labels, splits=["train"] * n, edges=edges
    )


def embeddings_by_class(graph, seed=2):
    """Class-clustered embeddings: same-class nodes nearby, other class far."""
    rng = substream(seed, "attack-emb")
    base = np.array([[1.0, 0.1], [-1.0, 0.2]])
    Z = np.vstack([
        base[graph.labels[i]] + 0.05 * rng.normal(size=2)
        for i in range(graph.node_count)
    ])
    return Z


def setup(n=16):
    g = demo_graph(n)
    Z = embeddings_by_class(g)
    vocab = Vocabulary.from_texts(g.texts)
    oracle = OracleBackend(g, Z, vocab)
    return g, Z, oracle


def test_empty_target_list_is_empty_plan():
    g, Z, oracle = setup()
    plan = attack(g, [], Z, oracle, TEXT_BUDGET)
    assert len(plan) == 0
    assert oracle.query_count == 0


def test_two_queries_per_completed_target():
    g, Z, oracle = setup()
    targets = [0, 3, 7, 10]
    plan = attack(g, targets, Z, oracle, TEXT_BUDGET, seed=11)
    assert sorted(plan.entries) == targets
    assert not plan.skipped
    assert oracle.query_count == 2 * len(targets)


def test_plan_matches_step_by_step_rederivation():
    g, Z, oracle = setup()
    targets = [0, 5, 8]
    plan = attack(g, targets, Z, oracle, TEXT_BUDGET, seed=4, k=5)

    def sim(i, j):
        return cosine(Z[i], Z[j])

    for t in targets:
        entry = plan.entries[t]
        # influencer pool: top-5 most dissimilar, minus self/neighbors
        ranked = sorted(
            (i for i in range(g.node_count) if i != t),
            key=lambda i: (-(1.0 - sim(t, i)), i),
        )[:5]
        pool = [c for c in ranked if not g.has_edge(t, c)]
        expected_delete = max(g.neighbors(t), key=lambda v: (sim(t, v), -v))
        expected_add = min(pool, key=lambda v: (sim(t, v), v))
        assert entry.delete_neighbor == expected_delete
        assert entry.add_influencer == expected_add
        assert entry.intended_label == g.labels[expected_add]
        # cross-modal anchor: keyword comes from the inserted node's text
        assert entry.keyword in set(tokenize(g.texts[expected_add]))
        assert validate_text_decision(
            g.texts[t], entry.keyword, entry.new_text, TEXT_BUDGET
        ) is None


def test_attack_is_deterministic():
    g, Z, _ = setup()
    targets = [1, 4, 9]
    vocab = Vocabulary.from_texts(g.texts)
    plan_a = attack(g, targets, Z, OracleBackend(g, Z, vocab), TEXT_BUDGET, seed=7)
    plan_b = attack(g, targets, Z, OracleBackend(g, Z, vocab), TEXT_BUDGET, seed=7)
    assert plan_a.entries == plan_b.entries


def test_attack_plan_applies_within_budgets():
    g, Z, oracle = setup()
    targets = [2, 6, 12]
    plan = attack(g, targets, Z, oracle, TEXT_BUDGET, seed=1)
    applied = apply_plan(g, plan)
    assert applied.audit.edge_edits == 2 * len(targets)
    for t in targets:
        assert applied.graph.texts[t] != g.texts[t]
    # the planner keeps each target within one deletion plus one insertion
    # and within the token budget: each entry applied on its own edits at
    # most that much
    for entry in plan.entries.values():
        alone = PerturbationPlan()
        alone.add(entry)
        audit = apply_plan(g, alone).audit
        assert audit.edge_edits <= 2
        assert 1 <= audit.text_edits <= TEXT_BUDGET


def test_intended_label_differs_for_cross_class_influencer():
    g, Z, oracle = setup()
    plan = attack(g, [0], Z, oracle, TEXT_BUDGET, seed=0)
    entry = plan.entries[0]
    # class-clustered embeddings make the influencer land in the other class
    assert g.labels[entry.add_influencer] != g.labels[0]
    assert entry.intended_label != g.labels[0]


def test_isolated_target_gets_insertion_only_entry():
    g0 = demo_graph(8)
    edges = [e for e in g0.edges if 3 not in e]
    g = g0.with_changes(edges=edges)
    assert g.degree(3) == 0
    Z = embeddings_by_class(g)
    oracle = OracleBackend(g, Z, Vocabulary.from_texts(g.texts))
    plan = attack(g, [3], Z, oracle, TEXT_BUDGET, seed=2)
    entry = plan.entries[3]
    assert entry.delete_neighbor is None
    assert entry.add_influencer != 3
    applied = apply_plan(g, plan)
    assert applied.audit.edge_edits == 1


class TransportDown(OracleBackend):
    def topology_decision(self, prompt):
        if prompt.target == 5:
            raise BackendError("transport down")
        return super().topology_decision(prompt)


class DeletesStranger(OracleBackend):
    """Names a deletion outside the presented neighbours for target 5."""

    def topology_decision(self, prompt):
        decision = super().topology_decision(prompt)
        if prompt.target == 5:
            return replace(decision, delete_choice=99)
        return decision


class DropsKeyword(OracleBackend):
    """Rewrites target 5's text without the keyword it names."""

    def text_decision(self, prompt, budget):
        decision = super().text_decision(prompt, budget)
        if prompt.target == 5:
            kept = [t for t in tokenize(decision.rewritten_text) if t != decision.keyword]
            return replace(decision, rewritten_text=" ".join(kept))
        return decision


def test_failing_target_is_skipped_not_fatal():
    g, Z, _ = setup()
    vocab = Vocabulary.from_texts(g.texts)
    # the backend counts every query it answers, target 5's too; the plan
    # records two per completed target
    for backend_cls, answered, reason in [
        (TransportDown, 4, "transport down"),
        (DeletesStranger, 5, "target 5: delete_id 99 not in the presented neighbor list"),
        (DropsKeyword, 6,
         "target 5: invalid rewrite: rewritten text does not contain the keyword"),
    ]:
        backend = backend_cls(g, Z, vocab)
        plan = attack(g, [0, 5, 9], Z, backend, TEXT_BUDGET, seed=3)
        assert sorted(plan.entries) == [0, 9], backend_cls.__name__
        assert plan.skipped == {5: reason}
        assert plan.query_count == 4
        assert backend.query_count == answered


def test_zero_text_budget_is_a_config_error_before_any_query():
    g, Z, oracle = setup()
    sent = []
    llm = LLMBackend(
        LLMConfig(), fallback=oracle,
        transport=lambda *request: sent.append(request), sleep=lambda s: None,
    )
    for backend in (oracle, llm):
        with pytest.raises(ConfigurationError, match="at least one token edit"):
            attack(g, [0, 3], Z, backend, 0, seed=0)
        assert backend.query_count == 0
    assert sent == []


def test_all_targets_failing_returns_a_plan_of_skips():
    g, Z, oracle = setup()

    class Dead(OracleBackend):
        def topology_decision(self, prompt):
            raise BackendError(f"no answer for {prompt.target}")

    dead = Dead(g, Z, Vocabulary.from_texts(g.texts))
    plan = attack(g, [1, 0], Z, dead, TEXT_BUDGET, seed=0)
    assert plan.entries == {}
    assert plan.skipped == {0: "no answer for 0", 1: "no answer for 1"}
    assert list(plan.skipped) == [0, 1]  # target order, whatever order they came in


def test_invalid_k_is_a_config_error_before_any_query():
    g, Z, oracle = setup()
    with pytest.raises(ConfigurationError, match="k must be >= 1"):
        attack(g, [0, 3], Z, oracle, TEXT_BUDGET, k=0)
    assert oracle.query_count == 0


def test_out_of_range_target_rejected():
    g, Z, oracle = setup()
    with pytest.raises(ConfigurationError):
        attack(g, [999], Z, oracle, TEXT_BUDGET)


def test_anchor_mismatch_breaks_keyword_alignment():
    g, Z, _ = setup()
    vocab = Vocabulary.from_texts(g.texts)
    targets = [0, 3, 7]
    aligned = attack(g, targets, Z, OracleBackend(g, Z, vocab), TEXT_BUDGET, seed=6)
    mismatched = attack(
        g, targets, Z, OracleBackend(g, Z, vocab), TEXT_BUDGET, seed=6,
        anchor_mismatch=True,
    )
    for t in targets:
        # topology identical either way; only the text anchor moves
        assert aligned.entries[t].add_influencer == mismatched.entries[t].add_influencer
        assert aligned.entries[t].delete_neighbor == mismatched.entries[t].delete_neighbor
    moved = sum(
        aligned.entries[t].new_text != mismatched.entries[t].new_text for t in targets
    )
    assert moved > 0


def test_zero_rows_score_cosine_zero_in_every_caller():
    """A zero embedding or feature row has cosine 0.0 (dissimilarity 1.0) in
    retrieval, the oracle, the anchor-mismatch runner-up and bound_audit;
    nothing turns NaN, and only retrieval warns."""
    # cosines to target 0: node 1 +0.71, nodes 2 and 4 zero rows, node 3 -0.71
    Z = np.array([[1.0, 0.0], [1.0, 1.0], [0.0, 0.0], [-1.0, 1.0], [0.0, 0.0]])
    g = TextAttributedGraph.build(
        texts=["red apple", "red plum", "blue sky", "blue apple", "grey cloud"],
        labels=[0, 0, 1, 1, 0], splits=["train"] * 5,
        edges=[(0, 2), (0, 3), (1, 4)],
    )
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        sets = retrieve_all(Z, [0, 2], k=4)
    assert [w.category for w in caught] == [DegenerateVectorWarning]
    assert sets[0].candidates == (3, 2, 4, 1)  # 1.71, 1.0, 1.0, 0.29
    assert sets[2].candidates == (0, 1, 3, 4)  # a zero target: all 1.0

    with warnings.catch_warnings():
        warnings.simplefilter("error")  # any warning, NaN ones included, fails
        oracle = OracleBackend(g, Z, Vocabulary.from_texts(g.texts))
        prompt = TopologyPrompt(text="", target=0, neighbor_ids=(2, 3), candidate_ids=(1, 4))
        decision = oracle.topology_decision(prompt)
        assert decision.delete_choice == 2  # 0.0 beats -0.71
        assert decision.add_choice == 4  # 0.0 is less similar than +0.71
        assert _next_best_candidate(prompt, 1, unit_rows(Z)) == 4
        assert _next_best_candidate(prompt, 4, unit_rows(Z)) == 1

        # "zzz qqq" is out of vocabulary: node 3 gets a zero feature row
        vocab = Vocabulary.from_texts(g.texts)
        oov = g.with_changes(texts=["red apple", "red plum", "blue sky", "zzz qqq", "grey cloud"])
        audit = bound_audit(g, oov, featurize(g.texts, vocab), featurize(oov.texts, vocab))
    assert all(np.isfinite(v) for v in audit.values())
    # only edge (0, 3) shares a token ("apple"), and node 3 lost it
    assert audit["homophily_edge_clean"] > 0.0
    assert audit["homophily_edge_perturbed"] == 0.0
    assert audit["homophily_node_perturbed"] == 0.0
    assert audit["tau_max"] > 0.0


NODE_LINE = re.compile(r"^- node (\d+): ", re.M)


def _ids_after(prompt, header):
    """Node ids listed under `header` in a topology prompt."""
    section = prompt.split(header, 1)[1].split("\n\n", 1)[0]
    return [int(i) for i in NODE_LINE.findall(section)]


class ScriptedLLM:
    """Chat-completions transport answering from the prompt text alone.

    Each call sleeps a random 0-5 ms, so replies arrive out of order when
    queries overlap. With `malform`, a hash-selected quarter of first asks and
    eighth of re-prompts get a reply with no JSON. A topology (text) call
    whose target text holds a token in `dead_topology` (`dead_text`) raises.
    With `flaky`, the first send of a hash-selected fifth of prompts raises
    ConnectionResetError, so its retry gets the reply.
    `peak` is the most calls seen in flight at once.
    """

    def __init__(self, dead_topology=(), dead_text=(), malform=True, flaky=False,
                 delay=lambda prompt: random.uniform(0.0, 0.005)):
        self.dead_topology = set(dead_topology)
        self.dead_text = set(dead_text)
        self.malform = malform
        self.flaky = flaky
        self.delay = delay
        self.calls = 0
        self.peak = 0
        self._in_flight = 0
        self._sent = set()
        self._lock = threading.Lock()

    def __call__(self, url, headers, payload, timeout):
        prompt = payload["messages"][0]["content"]
        with self._lock:
            self.calls += 1
            self._in_flight += 1
            self.peak = max(self.peak, self._in_flight)
            first_send = prompt not in self._sent
            self._sent.add(prompt)
        try:
            if self.flaky and first_send and hashlib.sha256(prompt.encode()).digest()[1] % 5 == 0:
                raise ConnectionResetError("connection reset by peer")
            time.sleep(self.delay(prompt))
            return {"choices": [{"message": {"content": self.reply(prompt)}}]}
        finally:
            with self._lock:
                self._in_flight -= 1

    def reply(self, prompt):
        digest = hashlib.sha256(prompt.encode()).digest()[0]
        if self.malform and digest % (8 if "could not be used" in prompt else 4) == 0:
            return "no JSON today"
        if "Candidate List:" in prompt:
            target_text = prompt.split("Target node: ", 1)[1].split("\n", 1)[0]
            if self.dead_topology & set(tokenize(target_text)):
                raise RuntimeError("connection reset")
            neighbors = _ids_after(prompt, "Neighboring set:")
            return json.dumps({
                "delete_id": max(neighbors) if neighbors else None,
                "add_id": min(_ids_after(prompt, "Candidate List:")),
                "rationale": "scripted",
            })
        target_text = prompt.split("P1 titled ", 1)[1].split(", your task", 1)[0]
        if self.dead_text & set(tokenize(target_text)):
            raise RuntimeError("connection reset")
        influencer = prompt.split("node titled ", 1)[1].split(", identify", 1)[0]
        keyword = tokenize(influencer)[0]
        return json.dumps({"keyword": keyword, "new_text": f"{target_text} {keyword}"})


def scripted_attack(transport, n=40, targets=None):
    g = demo_graph(n)
    Z = embeddings_by_class(g)
    backend = LLMBackend(
        LLMConfig(), fallback=OracleBackend(g, Z, Vocabulary.from_texts(g.texts)),
        transport=transport, sleep=lambda s: None,
    )
    targets = list(range(n)) if targets is None else targets
    plan = attack(g, targets, Z, backend, TEXT_BUDGET, seed=8)
    return plan, backend


@pytest.mark.parametrize("flaky", [False, True], ids=["steady", "flaky"])
def test_concurrent_llm_attack_matches_one_in_flight(monkeypatch, flaky):
    # target 7 loses its text query after its topology query, 12 its topology
    # query; with `flaky`, more first sends fail and are retried
    concurrent_llm = ScriptedLLM(dead_topology={"id12"}, dead_text={"id7"}, flaky=flaky)
    concurrent, backend = scripted_attack(concurrent_llm)
    assert concurrent_llm.peak > 1

    monkeypatch.setattr(LLMBackend, "max_in_flight", 1)
    serial_llm = ScriptedLLM(dead_topology={"id12"}, dead_text={"id7"}, flaky=flaky)
    serial, serial_backend = scripted_attack(serial_llm)
    assert serial_llm.peak == 1

    assert concurrent.entries == serial.entries
    assert list(concurrent.entries) == sorted(concurrent.entries)
    assert concurrent.skipped == serial.skipped
    assert sorted(concurrent.skipped) == [7, 12]
    counts = (backend.query_count, backend.retry_count, backend.fallback_count)
    assert counts == (
        serial_backend.query_count, serial_backend.retry_count, serial_backend.fallback_count
    )
    assert backend.transport_errors == serial_backend.transport_errors > 0
    # the backend also counts the queries of the skipped targets it answered:
    # one for target 12 (topology), two for target 7 (topology, then text)
    assert backend.query_count == concurrent.query_count + 1 + 2
    assert backend.retry_count > 0 and backend.fallback_count > 0
    assert concurrent_llm.calls == serial_llm.calls
    # every request sent is a logical query or a re-sent one (transport retry
    # or corrective re-prompt)
    assert concurrent_llm.calls == backend.query_count + backend.retry_count


def test_replies_without_string_content_skip_the_target():
    # hosted APIs send a null content with refusals and tool calls
    plan, backend = scripted_attack(
        lambda *request: {"choices": [{"message": {"content": None}}]}, n=16, targets=[3]
    )
    assert plan.entries == {}
    assert plan.skipped == {3: "backend failed after 3 attempts: expected str, got NoneType"}
    assert (backend.query_count, backend.retry_count, backend.transport_errors) == (1, 2, 0)


def test_llm_attack_has_max_in_flight_queries_out_at_once():
    # the first 24 calls wait until all 24 are in flight: with fewer workers
    # the barrier would break, and its calls would fail
    barrier = threading.Barrier(LLMBackend.max_in_flight, timeout=10)
    waiting = itertools.count()
    lock = threading.Lock()

    def delay(prompt):
        with lock:
            first = next(waiting) < LLMBackend.max_in_flight
        if first:
            barrier.wait()
        return 0.0

    llm = ScriptedLLM(malform=False, delay=delay)
    plan, backend = scripted_attack(llm, n=60)
    assert len(plan.entries) == 60 and backend.transport_errors == 0
    assert llm.peak == LLMBackend.max_in_flight


def test_counters_lose_no_update_under_fast_thread_switching():
    # 24 workers on fewer cores, switching every microsecond: an unlocked
    # read-modify-write of a counter would drop some of the 2 x 120 queries
    llm = ScriptedLLM(malform=False, delay=lambda prompt: 0.0)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        plan, backend = scripted_attack(llm, n=120)
    finally:
        sys.setswitchinterval(interval)
    assert len(plan.entries) == 120
    assert backend.query_count == llm.calls == 240
    assert backend.retry_count == backend.fallback_count == 0


def test_requests_sent_are_the_queries_and_retries_counted(tmp_path):
    # target 5 loses its text query and target 9 its topology query, each
    # after three transport attempts; malformed replies add re-prompts and
    # fallbacks
    llm = ScriptedLLM(dead_text={"id5"}, dead_topology={"id9"})
    plan, backend = scripted_attack(llm, n=16)
    assert sorted(plan.skipped) == [5, 9]
    assert all("failed after 3 attempts" in r for r in plan.skipped.values())
    assert backend.retry_count > 4 and backend.fallback_count > 0
    # every request sent is a logical query or a re-sent one
    assert llm.calls == backend.query_count + backend.retry_count
    # the backend also counts the skipped targets' queries: two for target 5
    # (topology, then text), one for target 9; the manifest records the
    # plan's two queries per completed target
    assert backend.query_count == 2 * 14 + 2 + 1
    save_plan(plan, tmp_path / "plan.jsonl")
    assert load_plan(tmp_path / "plan.jsonl").query_count == 2 * len(plan.entries) == 28


def test_unexpected_error_cancels_targets_not_started():
    g, Z, _ = setup(n=16)
    started = []

    class Broken(OracleBackend):
        max_in_flight = 2

        def topology_decision(self, prompt):
            started.append(prompt.target)
            if prompt.target == 0:
                raise RuntimeError("bug")
            time.sleep(0.05)
            return super().topology_decision(prompt)

    backend = Broken(g, Z, Vocabulary.from_texts(g.texts))
    targets = list(range(16))
    with pytest.raises(RuntimeError, match="bug"):
        attack(g, targets, Z, backend, TEXT_BUDGET, seed=1)
    ran = len(started)
    assert ran <= 2 * backend.max_in_flight < len(targets)
    time.sleep(0.1)
    assert len(started) == ran  # no worker is left running
