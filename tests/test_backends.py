import json
import os
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import numpy as np
import pytest

import tagsiege.backends as backends
from tagsiege.attack import attack
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


def test_llm_retries_a_reply_whose_content_is_not_a_string():
    # hosted APIs send a null content with refusals and tool calls
    g, backend, transport = llm_pair([None, json.dumps({"delete_id": 2, "add_id": 3})])
    decision = backend.topology_decision(build_topology_prompt(g, 0, InfluencerSet(0, (3,))))
    assert (decision.delete_choice, decision.add_choice, decision.fallback) == (2, 3, False)
    assert (backend.query_count, backend.retry_count, backend.transport_errors) == (1, 1, 0)
    assert len(transport.calls) == 2


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


@pytest.mark.parametrize("failure", [
    ConnectionResetError("connection reset by peer"),
    BackendError("HTTP 429 Too Many Requests from https://llm.test/v1/chat/completions"),
], ids=["connection-reset", "http-429"])
def test_llm_counts_a_failed_exchange_and_retries_it(failure):
    good = json.dumps({"delete_id": 2, "add_id": 3})
    # a malformed reply is a reply: its re-prompt is a retry, not a transport error
    g, backend, transport = llm_pair([failure, "I would rather not say.", good])
    prompt = build_topology_prompt(g, 0, InfluencerSet(0, (3,)))
    assert not backend.topology_decision(prompt).fallback
    assert len(transport.calls) == 3
    assert (backend.retry_count, backend.transport_errors) == (2, 1)


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


class Recorder(BaseHTTPRequestHandler):
    """A chat-completions endpoint (and, as a server of its own, a proxy) that
    records (client port, request path, prompt) per POST and each CONNECT.
    A prompt in `failing` gets one 500 reply first; the reply to "close" is
    followed by closing the kept-alive connection without announcing it; the
    reply to "hold" waits, once the server has set `holding`, for `release`."""

    protocol_version = "HTTP/1.1"

    def do_POST(self):
        body = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
        prompt = body["messages"][0]["content"]
        self.server.seen.append((self.client_address[1], self.path, prompt))
        self.server.auth.add(self.headers["Authorization"])
        self.server.proxy_auth.add(self.headers["Proxy-Authorization"])
        if prompt == "hold":
            self.server.holding.set()
            self.server.release.wait(timeout=10)
        if prompt in self.server.failing:
            self.server.failing.discard(prompt)
            self.reply(500, b"{}")
            return
        content = {"choices": [{"message": {"content": f"reply to {prompt}"}}]}
        self.reply(200, json.dumps(content).encode())
        self.close_connection = prompt == "close"

    def do_CONNECT(self):
        self.server.connects.append(self.path)
        self.reply(405, b"")

    def reply(self, status, body):
        self.send_response(status)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, *args):
        pass


class Server(ThreadingHTTPServer):
    def finish_request(self, request, client_address):
        super().finish_request(request, client_address)  # returns when the connection ends
        self.ended.append(client_address[1])

    def shutdown_request(self, request):
        super().shutdown_request(request)
        self.closed.set()


def serve():
    server = Server(("127.0.0.1", 0), Recorder)
    server.seen, server.connects, server.failing = [], [], set()
    server.auth, server.proxy_auth, server.closed = set(), set(), threading.Event()
    server.holding, server.release, server.ended = threading.Event(), threading.Event(), []
    threading.Thread(target=server.serve_forever, args=(0.05,), daemon=True).start()
    return server


@pytest.fixture
def servers():
    """An endpoint and a proxy on the loopback interface, and an environment
    that names no proxy and holds an API key."""
    endpoint, proxy = serve(), serve()
    with pytest.MonkeyPatch.context() as mp:
        for name in ("HTTP_PROXY", "HTTPS_PROXY", "NO_PROXY", "ALL_PROXY"):
            mp.delenv(name, raising=False)
            mp.delenv(name.lower(), raising=False)
        mp.setenv("TAGSIEGE_API_KEY", "test-key")
        yield endpoint, proxy
    for server in (endpoint, proxy):
        server.shutdown()
        server.server_close()


@pytest.fixture
def llm_client():
    """Builds LLM backends on their own connections and closes them after the test."""
    built = []

    def build(base_url, max_attempts=3, fallback=None):
        built.append(LLMBackend(
            LLMConfig(base_url=base_url, max_attempts=max_attempts, timeout=5),
            fallback=fallback or make_oracle(), sleep=lambda seconds: None,
        ))
        return built[-1]

    yield build
    for backend in built:
        backend.close()


def url_of(server, host="127.0.0.1"):
    return f"http://{host}:{server.server_address[1]}/v1"


def run_in_thread(call, *args):
    worker = threading.Thread(target=call, args=args)
    worker.start()
    return worker


def test_an_idle_connection_serves_any_thread_and_a_busy_one_none(servers, llm_client):
    endpoint, _ = servers
    backend = llm_client(url_of(endpoint))
    assert backend._complete("first") == "reply to first"
    run_in_thread(backend._complete, "second").join(timeout=10)  # takes the idle connection
    holder = run_in_thread(backend._complete, "hold")
    assert endpoint.holding.wait(timeout=10)
    # the one connection has a request out, so this exchange opens a second one
    assert backend._complete("during") == "reply to during"
    endpoint.release.set()
    holder.join(timeout=10)
    assert not holder.is_alive()
    port = {prompt: port for port, _, prompt in endpoint.seen}
    assert port["first"] == port["second"] == port["hold"] != port["during"]
    assert len(backend._idle) == 2
    assert {path for _, path, _ in endpoint.seen} == {"/v1/chat/completions"}
    assert endpoint.auth == {"Bearer test-key"}
    assert backend.retry_count == 0


def every_connection_ended(server, timeout=10):
    """Whether each connection that sent `server` a request has ended within `timeout` s."""
    deadline = time.monotonic() + timeout
    while {port for port, _, _ in server.seen} - set(server.ended):
        if time.monotonic() > deadline:
            return False
        time.sleep(0.01)
    return True


def test_attack_closes_the_connections_of_an_llm_backend(servers, llm_client):
    endpoint, _ = servers
    g = TextAttributedGraph.build(
        texts=["alpha beta", "alpha gamma", "beta gamma"] * 2 + ["omega psi", "omega chi"] * 3,
        labels=[0] * 6 + [1] * 6, splits=["train"] * 12, edges=[(i, i + 1) for i in range(11)],
    )
    backend = llm_client(url_of(endpoint), max_attempts=1, fallback=make_oracle(g))
    # every reply is prose, so each query is re-prompted and then falls back
    plan = attack(g, list(range(2, 12)), np.eye(12), backend, 4, k=1)
    assert len(plan.entries) == 10 and backend.fallback_count == 20
    assert len(endpoint.seen) == 40
    assert backend._idle == []
    assert every_connection_ended(endpoint)


def test_an_idle_connection_on_a_descriptor_above_1023_is_reused(servers, llm_client):
    # select.select() takes no descriptor of 1024 (FD_SETSIZE) or above
    resource = pytest.importorskip("resource")
    limits = resource.getrlimit(resource.RLIMIT_NOFILE)
    soft, hard = (float("inf") if n == resource.RLIM_INFINITY else n for n in limits)
    if hard < 1100:
        pytest.skip(f"the hard limit of {hard} open files is too low")
    endpoint, _ = servers
    held = [os.open(os.devnull, os.O_RDONLY)]
    try:
        if soft < 1100:
            resource.setrlimit(resource.RLIMIT_NOFILE, (1100, limits[1]))
        while held[-1] < 1024:  # fill every descriptor below 1024
            held.append(os.dup(held[0]))
        backend = llm_client(url_of(endpoint))
        assert backend._complete("first") == "reply to first"
        assert backend._idle[0][0].sock.fileno() > 1024
        assert backend._complete("second") == "reply to second"
    finally:
        for fd in held:
            os.close(fd)
        resource.setrlimit(resource.RLIMIT_NOFILE, limits)
    assert endpoint.seen[0][0] == endpoint.seen[1][0]
    assert (backend.retry_count, backend.transport_errors) == (0, 0)


def test_an_error_status_is_retried_on_a_fresh_connection(servers, llm_client):
    endpoint, _ = servers
    backend = llm_client(url_of(endpoint))
    backend._complete("warm")
    endpoint.failing.add("flaky")
    assert backend._complete("flaky") == "reply to flaky"
    assert (backend.retry_count, backend.transport_errors) == (1, 1)
    ports = [port for port, _, _ in endpoint.seen]
    assert ports[0] == ports[1] != ports[2]  # the failed exchange closed the connection
    endpoint.failing.add("dead")
    with pytest.raises(BackendError, match="HTTP 500"):
        llm_client(url_of(endpoint), max_attempts=1)._complete("dead")


def test_a_connection_the_server_closed_is_survived_by_the_next_attempt(servers, llm_client):
    endpoint, _ = servers
    backend = llm_client(url_of(endpoint))
    assert backend._complete("close") == "reply to close"
    assert endpoint.closed.wait(timeout=10)
    # the idle connection reads as closed, so the request goes out on a new one
    assert backend._complete("after") == "reply to after"
    assert backend.retry_count == 0
    assert endpoint.seen[0][0] != endpoint.seen[1][0]


class Opening(BaseHTTPRequestHandler):
    """Holds the first request on each connection for 50 ms and records the
    most such requests in the handler at once (`first_peak`); every later
    request waits at `barrier` until as many are in the handler together."""

    protocol_version = "HTTP/1.1"

    def do_POST(self):
        self.rfile.read(int(self.headers["Content-Length"]))
        server = self.server
        with server.lock:
            first = self.client_address[1] not in server.ports
            if first:
                server.ports.add(self.client_address[1])
                server.opening += 1
                server.first_peak = max(server.first_peak, server.opening)
        if first:
            time.sleep(0.05)
            with server.lock:
                server.opening -= 1
        else:
            server.barrier.wait()
        body = json.dumps({"choices": [{"message": {"content": "ok"}}]}).encode()
        self.send_response(200)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, *args):
        pass


def test_new_connections_open_at_most_max_opening_at_once(servers, llm_client):
    threads = 3 * backends.MAX_OPENING
    server = ThreadingHTTPServer(("127.0.0.1", 0), Opening)
    server.lock, server.ports, server.opening, server.first_peak = threading.Lock(), set(), 0, 0
    server.barrier = threading.Barrier(threads, timeout=10)
    threading.Thread(target=server.serve_forever, args=(0.05,), daemon=True).start()
    backend = llm_client(url_of(server), max_attempts=1)
    start, replies = threading.Barrier(threads), []

    def worker():
        start.wait()
        for _ in range(2):  # the second request takes an idle connection
            replies.append(backend._complete("ask"))

    pool = [run_in_thread(worker) for _ in range(threads)]
    for thread in pool:
        thread.join(timeout=30)
    backend.close()
    server.shutdown()
    server.server_close()
    assert len(replies) == 2 * threads and len(server.ports) == threads
    # the threads started together, but their connections opened at most
    # MAX_OPENING at a time; the kept-alive ones then all had a request out
    # at once, or the barrier would have broken
    assert 1 <= server.first_peak <= backends.MAX_OPENING
    assert not server.barrier.broken


def test_requests_go_through_the_proxy_the_environment_names(servers, llm_client, monkeypatch):
    endpoint, proxy = servers
    monkeypatch.setenv("HTTP_PROXY", url_of(proxy, "user:pw@127.0.0.1").removesuffix("/v1"))
    # an http URL is requested whole from the proxy; the .invalid host is never resolved
    backend = llm_client("http://llm.invalid/v1")
    assert backend._complete("proxied") == "reply to proxied"
    assert [path for _, path, _ in proxy.seen] == ["http://llm.invalid/v1/chat/completions"]
    assert proxy.proxy_auth == {"Basic dXNlcjpwdw=="}  # user:pw
    # NO_PROXY sends a request for its host straight to the endpoint
    monkeypatch.setenv("NO_PROXY", "127.0.0.1")
    assert llm_client(url_of(endpoint))._complete("direct") == "reply to direct"
    assert [prompt for _, _, prompt in endpoint.seen] == ["direct"]
    # an https URL is tunnelled with CONNECT; this proxy refuses the tunnel
    monkeypatch.setenv("HTTPS_PROXY", url_of(proxy).removesuffix("/v1"))
    with pytest.raises(BackendError, match="Tunnel connection failed"):
        llm_client("https://llm.invalid/v1", max_attempts=1)._complete("tunnelled")
    assert proxy.connects == ["llm.invalid:443"]
