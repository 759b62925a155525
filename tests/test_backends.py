import json

import numpy as np
import pytest

from tagsiege.backends import (
    LLMBackend,
    LLMConfig,
    OracleBackend,
    extract_json_object,
    validate_text_decision,
    validate_topology_decision,
)
from tagsiege.errors import (
    BackendError,
    ConfigurationError,
    RetrievalExhaustedError,
)
from tagsiege.graph import TextAttributedGraph
from tagsiege.prompts import TextPrompt, TopologyPrompt, build_text_prompt, build_topology_prompt
from tagsiege.retrieval import InfluencerSet
from tagsiege.seeding import substream
from tagsiege.text_features import Vocabulary, token_edit_distance, tokenize

from cosine_reference import cosine


def two_class_graph():
    # class 0 talks in greek letters a*, class 1 in omega/psi/chi
    return TextAttributedGraph.build(
        texts=["alpha beta", "alpha gamma", "omega psi", "omega chi"],
        labels=[0, 0, 1, 1],
        splits=["train"] * 4,
        edges=[(0, 1), (2, 3), (0, 2)],
    )


def make_oracle(graph=None, embeddings=None):
    graph = graph or two_class_graph()
    if embeddings is None:
        embeddings = np.eye(graph.node_count)
    vocab = Vocabulary.from_texts(graph.texts)
    return OracleBackend(graph, embeddings, vocab)


def topo_prompt(target, neighbors, candidates):
    return TopologyPrompt(
        text="", target=target, neighbor_ids=tuple(neighbors),
        candidate_ids=tuple(candidates),
    )


def test_oracle_delete_prefers_identical_embedding():
    # target and n1 share a direction; n2 is orthogonal
    Z = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.5, 0.5]])
    oracle = make_oracle(embeddings=Z)
    decision = oracle.topology_decision(topo_prompt(0, (1, 2), (3,)))
    assert decision.delete_choice == 1


def test_oracle_single_neighbor_and_candidate_forced():
    g = two_class_graph()
    oracle = make_oracle(g)
    decision = oracle.topology_decision(topo_prompt(1, (0,), (3,)))
    assert decision.delete_choice == 0
    assert decision.add_choice == 3


def test_oracle_add_picks_largest_dissimilarity():
    # candidate 2 opposite direction (dissim 2.0), candidate 3 nearby (0.0+)
    Z = np.array([[1.0, 0.0], [0.9, 0.1], [-1.0, 0.0], [1.0, 0.1]])
    g = TextAttributedGraph.build(
        texts=["a b", "a c", "d e", "d f"], labels=[0, 0, 1, 1],
        splits=["train"] * 4, edges=[(0, 1)],
    )
    oracle = OracleBackend(g, Z, Vocabulary.from_texts(g.texts))
    decision = oracle.topology_decision(topo_prompt(0, (1,), (2, 3)))
    assert decision.add_choice == 2


def test_oracle_matches_bruteforce_on_random_instance():
    rng = substream(3, "backend-brute")
    n = 12
    Z = rng.normal(size=(n, 6))
    g = TextAttributedGraph.build(
        texts=[f"t{i} w{i}" for i in range(n)],
        labels=[i % 3 for i in range(n)],
        splits=["train"] * n,
        edges=[(i, (i + 1) % n) for i in range(n)] + [(0, 5)],
    )
    oracle = OracleBackend(g, Z, Vocabulary.from_texts(g.texts))
    target = 0
    neighbors = g.neighbors(target)
    candidates = tuple(c for c in range(n) if c != target and not g.has_edge(target, c))
    decision = oracle.topology_decision(topo_prompt(target, neighbors, candidates))

    def sim(i, j):
        return cosine(Z[i], Z[j])

    best_del = max(neighbors, key=lambda v: (sim(target, v), -v))
    best_add = min(candidates, key=lambda v: (sim(target, v), v))
    assert decision.delete_choice == best_del
    assert decision.add_choice == best_add


def test_oracle_add_skips_adjacent_and_exhausts():
    g = two_class_graph()
    Z = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]])
    oracle = OracleBackend(g, Z, Vocabulary.from_texts(g.texts))
    # candidate 2 is most dissimilar but already adjacent to 0 -> falls to 3
    decision = oracle.topology_decision(topo_prompt(0, (1,), (2, 3)))
    assert decision.add_choice == 3
    with pytest.raises(RetrievalExhaustedError):
        oracle.topology_decision(topo_prompt(0, (1,), (1, 2)))


def test_oracle_isolated_target_gets_no_delete():
    g = TextAttributedGraph.build(
        texts=["a", "b", "c"], labels=[0, 0, 1], splits=["train"] * 3,
        edges=[(0, 1)],
    )
    oracle = OracleBackend(g, np.eye(3), Vocabulary.from_texts(g.texts))
    decision = oracle.topology_decision(topo_prompt(2, (), (0, 1)))
    assert decision.delete_choice is None


def test_oracle_keyword_outside_target_class_vocab():
    g = two_class_graph()
    oracle = make_oracle(g)
    vocab = oracle.vocab
    # influencer node 2 text "omega psi": psi has higher idf than omega
    assert vocab.idf("psi") > vocab.idf("omega")
    assert oracle.choose_keyword("omega psi", target_label=0) == "psi"
    # for a class-1 target, both terms are inside its own class vocab -> top term
    assert oracle.choose_keyword("omega psi", target_label=1) == "psi"


def test_oracle_rewrite_passes_constraint_checker():
    g = two_class_graph()
    oracle = make_oracle(g)
    for budget in (3, 4, 8):
        prompt = TextPrompt(text="", target=0, influencer=2)
        decision = oracle.text_decision(prompt, budget)
        assert validate_text_decision(
            g.texts[0], decision.keyword, decision.rewritten_text, budget
        ) is None


def test_oracle_rewrite_truncates_into_tight_budget():
    g = two_class_graph()
    oracle = make_oracle(g)
    decision = oracle.text_decision(TextPrompt(text="", target=0, influencer=2), 1)
    # with budget 1 the only room is the keyword itself; originals all kept
    assert token_edit_distance(g.texts[0], decision.rewritten_text) <= 1
    assert "psi" in tokenize(decision.rewritten_text)
    assert validate_text_decision(g.texts[0], decision.keyword,
                                  decision.rewritten_text, 1) is None


def test_oracle_rewrite_impossible_budget():
    g = two_class_graph()
    oracle = make_oracle(g)
    with pytest.raises(ConfigurationError):
        oracle.text_decision(TextPrompt(text="", target=0, influencer=2), 0)


def test_oracle_query_counter():
    g = two_class_graph()
    oracle = make_oracle(g)
    oracle.topology_decision(topo_prompt(0, (1,), (3,)))
    oracle.text_decision(TextPrompt(text="", target=0, influencer=2), 5)
    assert oracle.query_count == 2


def test_validate_topology_decision():
    p = topo_prompt(0, (1, 2), (3, 4))
    assert validate_topology_decision(p, 1, 3) is None
    assert "delete_id" in validate_topology_decision(p, 5, 3)
    assert "add_id" in validate_topology_decision(p, 1, 9)
    assert "no delete_id" in validate_topology_decision(p, None, 3)
    iso = topo_prompt(0, (), (3,))
    assert validate_topology_decision(iso, None, 3) is None
    assert "isolated" in validate_topology_decision(iso, 1, 3)


def test_validate_text_decision():
    ok = validate_text_decision("alpha beta gamma", "omega", "alpha beta omega", 4)
    assert ok is None
    assert "single token" in validate_text_decision("a b", "two words", "a two words", 9)
    assert "contain" in validate_text_decision("a b", "z", "a b", 9)
    assert "shares no token" in validate_text_decision("a b", "z", "z q", 9)
    assert "retention" in validate_text_decision(
        "a b c d e f g h i j", "z", "a z", 20
    )
    assert "budget" in validate_text_decision("a b", "z", "a b z", 0)


def test_extract_json_object_tolerates_prose():
    obj = extract_json_object('Sure! Here you go: {"delete_id": 3, "add_id": 7} Hope it helps.')
    assert obj == {"delete_id": 3, "add_id": 7}
    with pytest.raises(ValueError):
        extract_json_object("no json here")
    with pytest.raises(ValueError):
        extract_json_object("[1, 2, 3]")


def canned_transport(replies):
    """Transport stub yielding queued replies; raises when a reply is an Exception."""
    queue = list(replies)
    calls = []

    def transport(url, headers, payload, timeout):
        calls.append({"url": url, "headers": headers, "payload": payload})
        reply = queue.pop(0)
        if isinstance(reply, Exception):
            raise reply
        return {"choices": [{"message": {"content": reply}}]}

    transport.calls = calls
    return transport


def llm_pair(replies, **cfg):
    g = two_class_graph()
    oracle = make_oracle(g)
    transport = canned_transport(replies)
    backend = LLMBackend(
        LLMConfig(**cfg), fallback=oracle, transport=transport, sleep=lambda s: None
    )
    return g, backend, transport


def test_llm_happy_path_counts_one_query():
    g, backend, transport = llm_pair([json.dumps({"delete_id": 2, "add_id": 3, "rationale": "r"})])
    prompt = build_topology_prompt(g, 0, InfluencerSet(0, (3,)))
    decision = backend.topology_decision(prompt)
    assert decision.delete_choice == 2
    assert decision.add_choice == 3
    assert not decision.fallback
    assert backend.query_count == 1
    assert backend.retry_count == 0
    assert transport.calls[0]["payload"]["temperature"] == 0.0
    assert transport.calls[0]["url"].endswith("/chat/completions")


def test_llm_reprompts_then_falls_back_to_oracle():
    bad = json.dumps({"delete_id": 99, "add_id": 3})
    g, backend, transport = llm_pair([bad, bad])
    prompt = build_topology_prompt(g, 0, InfluencerSet(0, (3,)))
    decision = backend.topology_decision(prompt)
    assert decision.fallback
    assert decision.delete_choice in prompt.neighbor_ids
    assert decision.add_choice in prompt.candidate_ids
    assert backend.query_count == 1       # still one logical query
    assert backend.retry_count == 1       # one re-sent request before the fallback
    assert backend.fallback_count == 1
    assert "could not be used" in transport.calls[1]["payload"]["messages"][0]["content"]


@pytest.mark.parametrize("ids", [
    {"delete_id": 2.9, "add_id": 3.7},
    {"delete_id": True, "add_id": 3},  # int() would read neighbor 1
    {"delete_id": "2", "add_id": 3},
], ids=["floats", "bool", "string"])
def test_llm_reprompts_on_ids_that_are_not_integers(ids):
    good = json.dumps({"delete_id": 2, "add_id": 3})
    g, backend, transport = llm_pair([json.dumps(ids), good])
    prompt = build_topology_prompt(g, 0, InfluencerSet(0, (3,)))
    decision = backend.topology_decision(prompt)
    assert (decision.delete_choice, decision.add_choice, decision.fallback) == (2, 3, False)
    assert (backend.query_count, backend.retry_count, backend.fallback_count) == (1, 1, 0)
    reprompt = transport.calls[1]["payload"]["messages"][0]["content"]
    assert "unparseable reply: expected an integer" in reprompt


@pytest.mark.parametrize("reply", [
    {"keyword": None, "new_text": "alpha beta none"},
    {"keyword": "psi", "new_text": ["alpha", "beta", "psi"]},
], ids=["null-keyword", "list-rewrite"])
def test_llm_reprompts_on_text_fields_that_are_not_strings(reply):
    good = json.dumps({"keyword": "psi", "new_text": "alpha beta psi"})
    g, backend, transport = llm_pair([json.dumps(reply), good])
    decision = backend.text_decision(build_text_prompt(g, 0, 2), 4)
    assert (decision.keyword, decision.rewritten_text, decision.fallback) == (
        "psi", "alpha beta psi", False)
    assert (backend.query_count, backend.retry_count, backend.fallback_count) == (1, 1, 0)
    reprompt = transport.calls[1]["payload"]["messages"][0]["content"]
    assert "unparseable reply: expected str" in reprompt


def test_llm_takes_a_null_delete_id_for_an_isolated_target():
    g = TextAttributedGraph.build(
        texts=["alpha beta", "alpha gamma", "omega psi"], labels=[0, 0, 1],
        splits=["train"] * 3, edges=[(1, 2)],
    )
    backend = LLMBackend(
        LLMConfig(), fallback=make_oracle(g),
        transport=canned_transport([json.dumps({"delete_id": None, "add_id": 2})]),
    )
    decision = backend.topology_decision(build_topology_prompt(g, 0, InfluencerSet(0, (2,))))
    assert (decision.delete_choice, decision.add_choice, decision.fallback) == (None, 2, False)


def test_llm_recovers_on_reprompt():
    good = json.dumps({"keyword": "psi", "new_text": "alpha beta psi", "rationale": ""})
    g, backend, _ = llm_pair(["not json at all", good])
    prompt = build_text_prompt(g, 0, 2)
    decision = backend.text_decision(prompt, 4)
    assert not decision.fallback
    assert decision.rewritten_text == "alpha beta psi"
    assert backend.retry_count == 1


def test_llm_transport_failures_exhaust_then_raise():
    g, backend, transport = llm_pair(
        [RuntimeError("boom"), RuntimeError("boom"), RuntimeError("boom")],
        max_attempts=3,
    )
    prompt = build_topology_prompt(g, 0, InfluencerSet(0, (3,)))
    with pytest.raises(BackendError):
        backend.topology_decision(prompt)
    assert len(transport.calls) == 3
    assert backend.retry_count == 2


def test_llm_backoff_sleeps_exponentially():
    slept = []
    g = two_class_graph()
    oracle = make_oracle(g)
    transport = canned_transport(
        [RuntimeError("x"), RuntimeError("x"),
         json.dumps({"delete_id": 2, "add_id": 3})]
    )
    backend = LLMBackend(LLMConfig(), fallback=oracle,
                         transport=transport, sleep=slept.append)
    prompt = build_topology_prompt(g, 0, InfluencerSet(0, (3,)))
    backend.topology_decision(prompt)
    assert slept == [0.5, 1.0]


def test_llm_requires_api_key_without_transport(monkeypatch):
    monkeypatch.delenv("TAGSIEGE_API_KEY", raising=False)
    with pytest.raises(ConfigurationError):
        LLMBackend(LLMConfig(), fallback=make_oracle())


@pytest.mark.parametrize("setting, message", [
    ({"max_attempts": 0}, "max_attempts must be >= 1"),
    ({"max_attempts": -2}, "max_attempts must be >= 1"),
    ({"timeout": 0.0}, "timeout must be > 0 seconds"),
    ({"timeout": -1.0}, "timeout must be > 0 seconds"),
])
def test_llm_config_rejects_settings_that_cannot_send_a_request(setting, message):
    with pytest.raises(ConfigurationError, match=message):
        LLMConfig(**setting)


def test_llm_base_url_from_env(monkeypatch):
    monkeypatch.setenv("TAGSIEGE_BASE_URL", "https://example.test/v1/")
    g, backend, transport = llm_pair([json.dumps({"delete_id": 2, "add_id": 3})])
    prompt = build_topology_prompt(g, 0, InfluencerSet(0, (3,)))
    backend.topology_decision(prompt)
    assert transport.calls[0]["url"] == "https://example.test/v1/chat/completions"


def test_llm_endpoint_and_key_are_read_once_when_the_backend_is_built(monkeypatch):
    monkeypatch.setenv("TAGSIEGE_API_KEY", "first")
    monkeypatch.setenv("TAGSIEGE_BASE_URL", "https://first.test/v1")
    g, backend, transport = llm_pair([json.dumps({"delete_id": 2, "add_id": 3})])
    monkeypatch.setenv("TAGSIEGE_API_KEY", "second")
    monkeypatch.setenv("TAGSIEGE_BASE_URL", "https://second.test/v1")
    backend.topology_decision(build_topology_prompt(g, 0, InfluencerSet(0, (3,))))
    assert transport.calls[0]["url"] == "https://first.test/v1/chat/completions"
    assert transport.calls[0]["headers"] == {
        "Content-Type": "application/json", "Authorization": "Bearer first",
    }


def test_default_transport_reuses_one_session(monkeypatch):
    import threading

    import requests

    import tagsiege.backends as backends

    sessions = []

    class FakeResponse:
        def raise_for_status(self):
            pass

        def json(self):
            return {"choices": [{"message": {"content": "reply"}}]}

    class FakeSession:
        def __init__(self):
            self.posts = []
            sessions.append(self)

        def post(self, url, headers, json, timeout):
            self.posts.append(url)
            return FakeResponse()

    monkeypatch.setattr(requests, "Session", FakeSession)
    monkeypatch.setattr(backends, "_sessions", threading.local())
    monkeypatch.setenv("TAGSIEGE_API_KEY", "test-key")
    backend = LLMBackend(LLMConfig(base_url="http://localhost:1/v1"), fallback=make_oracle())
    # two calls on one thread share its session
    assert backend._complete("first") == "reply"
    assert backend._complete("second") == "reply"
    assert len(sessions) == 1
    assert sessions[0].posts == ["http://localhost:1/v1/chat/completions"] * 2

    # a second thread gets a session of its own
    worker = threading.Thread(target=backend._complete, args=("third",))
    worker.start()
    worker.join(timeout=10)
    assert not worker.is_alive()
    assert len(sessions) == 2
    assert [len(s.posts) for s in sessions] == [2, 1]
