"""Attacker backends: the deterministic embedding oracle and the LLM client.

Both answer the same two prompt kinds. The oracle resolves every choice by
cosine geometry over the surrogate embeddings and by TF-IDF weight for the
keyword, so it is pure, reproducible and usable offline. The LLM backend
speaks the common chat-completions JSON protocol; malformed or
constraint-violating replies (an id that is not a JSON integer, or a keyword
or rewrite that is not a string, among them) get one corrective re-prompt and
then fall back to the oracle; `fallback_count` counts those fallbacks. It
posts through the standard library's `http.client` on kept-alive connections
that the backend owns: any worker reuses an idle one, at most MAX_OPENING new
ones open at once, and `close()`, which `attack` calls when it ends, closes
them. A backend error is the failure of one target, which `attack` records
as a skip.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import selectors
import threading
import time
from abc import ABC, abstractmethod
from dataclasses import dataclass, replace
from typing import Callable, TypeVar

import numpy as np

from .config import LLMConfig
from .errors import BackendError, ConfigurationError, RetrievalExhaustedError
from .graph import TextAttributedGraph
from .nnops import pair_cosines, unit_rows
from .prompts import TextPrompt, TopologyPrompt
from .records import integer, typed
from .text_features import Vocabulary, token_edit_distance, tokenize

API_KEY_ENV = "TAGSIEGE_API_KEY"
BASE_URL_ENV = "TAGSIEGE_BASE_URL"
DEFAULT_BASE_URL = "https://api.openai.com/v1"
BACKOFF_BASE_S = 0.5  # the n-th retry of a query waits BACKOFF_BASE_S * 2^(n-1) s
MAX_OPENING = 4  # new LLM connections awaiting their first reply at once

RETENTION_FLOOR = 0.3


@dataclass(frozen=True)
class TopologyDecision:
    delete_choice: int | None
    add_choice: int
    reasoning_summary: str
    fallback: bool = False


@dataclass(frozen=True)
class TextDecision:
    keyword: str
    rewritten_text: str
    rationale: str = ""
    fallback: bool = False


Decision = TypeVar("Decision", TopologyDecision, TextDecision)


def validate_topology_decision(
    prompt: TopologyPrompt, delete_id: int | None, add_id: int
) -> str | None:
    """Reason the decision is invalid, or None if it is fine."""
    if prompt.neighbor_ids:
        if delete_id is None:
            return "no delete_id for a target with neighbors"
        if delete_id not in prompt.neighbor_ids:
            return f"delete_id {delete_id} not in the presented neighbor list"
    elif delete_id is not None:
        return "delete_id given for an isolated target"
    if add_id not in prompt.candidate_ids:
        return f"add_id {add_id} not in the presented candidate list"
    return None


def validate_text_decision(
    original_text: str, keyword: str, new_text: str, budget: int
) -> str | None:
    """Reason the rewrite violates its contract, or None if it is fine."""
    if len(tokenize(keyword)) != 1:
        return f"keyword {keyword!r} is not a single token"
    if not new_text.strip():
        return "rewritten text is empty"
    new_tokens = set(tokenize(new_text))
    if tokenize(keyword)[0] not in new_tokens:
        return "rewritten text does not contain the keyword"
    old_tokens = set(tokenize(original_text))
    if old_tokens and not (old_tokens & new_tokens):
        return "rewritten text shares no token with the original"
    if old_tokens:
        retention = len(old_tokens & new_tokens) / len(old_tokens)
        if retention < RETENTION_FLOOR:
            return f"retention {retention:.2f} below {RETENTION_FLOOR}"
    dist = token_edit_distance(original_text, new_text)
    if dist > budget:
        return f"token edit distance {dist} exceeds budget {budget}"
    return None


class AttackerBackend(ABC):
    """Answers topology and text prompts; counts every logical query it answers.

    The counters may be updated from several threads at once: `attack` runs
    up to `max_in_flight` targets concurrently.
    """

    max_in_flight = 1

    def __init__(self):
        self.query_count = 0
        self.retry_count = 0
        self.fallback_count = 0
        self._lock = threading.Lock()

    def _count(self, queries: int = 0, retries: int = 0, fallbacks: int = 0) -> None:
        with self._lock:
            self.query_count += queries
            self.retry_count += retries
            self.fallback_count += fallbacks

    def close(self) -> None:
        """Release what the backend holds open; it stays usable afterwards."""

    @abstractmethod
    def topology_decision(self, prompt: TopologyPrompt) -> TopologyDecision: ...

    @abstractmethod
    def text_decision(self, prompt: TextPrompt, budget: int) -> TextDecision: ...


class OracleBackend(AttackerBackend):
    """Resolves both prompt kinds from embeddings and TF-IDF weights alone."""

    def __init__(
        self,
        graph: TextAttributedGraph,
        embeddings: np.ndarray,
        vocab: Vocabulary,
    ):
        super().__init__()
        self.graph = graph
        self.embeddings = np.asarray(embeddings, dtype=float)
        self.vocab = vocab
        self._unit = unit_rows(self.embeddings)
        self._class_tokens = self._collect_class_tokens(graph)

    @staticmethod
    def _collect_class_tokens(graph: TextAttributedGraph) -> dict[int, set[str]]:
        out: dict[int, set[str]] = {c: set() for c in range(graph.class_count)}
        for text, label in zip(graph.texts, graph.labels):
            out[label].update(tokenize(text))
        return out

    def topology_decision(self, prompt: TopologyPrompt) -> TopologyDecision:
        self._count(queries=1)
        t = prompt.target
        neighbors, candidates = list(prompt.neighbor_ids), list(prompt.candidate_ids)
        similarity = pair_cosines(self._unit, t, neighbors + candidates).tolist()
        delete_choice = None
        if neighbors:
            # most relevant neighbor: highest similarity, ties to the lower id
            delete_choice = max(zip(similarity, neighbors), key=lambda sn: (sn[0], -sn[1]))[1]
        # least similar candidate first, ties to the lower id; skip any that
        # are already wired to the target (possible when the prompt was built
        # by hand rather than through build_topology_prompt)
        add_choice = None
        for _, cand in sorted(zip(similarity[len(neighbors):], candidates)):
            if cand != t and not self.graph.has_edge(t, cand):
                add_choice = cand
                break
        if add_choice is None:
            raise RetrievalExhaustedError(
                f"target {t}: every candidate is already adjacent"
            )
        summary = (
            f"neighbors of node {t} scored by embedding similarity; "
            f"candidates scored by embedding dissimilarity"
        )
        return TopologyDecision(
            delete_choice=delete_choice, add_choice=add_choice, reasoning_summary=summary
        )

    def _ranked_terms(self, text: str) -> list[str]:
        """Terms of one text ranked by its own TF-IDF weight, then alphabetically."""
        counts: dict[str, int] = {}
        for tok in tokenize(text):
            if tok in self.vocab.index:
                counts[tok] = counts.get(tok, 0) + 1
        return sorted(counts, key=lambda term: (-counts[term] * self.vocab.idf(term), term))

    def choose_keyword(self, influencer_text: str, target_label: int) -> str:
        """Highest-TF-IDF influencer term outside the target class's vocabulary."""
        ranked = self._ranked_terms(influencer_text)
        if not ranked:
            raise BackendError("influencer text has no in-vocabulary tokens")
        outside = [t for t in ranked if t not in self._class_tokens[target_label]]
        return outside[0] if outside else ranked[0]

    def text_decision(self, prompt: TextPrompt, budget: int) -> TextDecision:
        self._count(queries=1)
        original = self.graph.texts[prompt.target]
        influencer_text = self.graph.texts[prompt.influencer]
        label = self.graph.labels[prompt.target]
        keyword = self.choose_keyword(influencer_text, label)
        extras = [t for t in self._ranked_terms(influencer_text) if t != keyword][:2]
        new_text = self._compose_rewrite(original, keyword, extras, budget)
        rationale = (
            f"keyword {keyword!r} carries the influencer's category; "
            f"kept a prefix of the original tokens"
        )
        return TextDecision(keyword=keyword, rewritten_text=new_text, rationale=rationale)

    @staticmethod
    def _compose_rewrite(
        original: str, keyword: str, extras: list[str], budget: int
    ) -> str:
        """Prefix of the original + keyword + extras, trimmed into budget.

        Extras are dropped first, then the kept prefix grows (fewer removals)
        until the token-set edit distance fits. Raises when even keeping the
        whole original cannot absorb the keyword insertion.
        """
        old_tokens = tokenize(original)
        old_set = set(old_tokens)
        n = len(old_tokens)
        kept_count = math.ceil(n / 2)
        extras = list(extras)

        while True:
            kept = old_tokens[:kept_count]
            # set-level retention floor; duplicates early in the text can
            # make a length-based prefix cover too few distinct tokens
            while (
                old_set
                and len(set(kept) & old_set) / len(old_set) < RETENTION_FLOOR
                and kept_count < n
            ):
                kept_count += 1
                kept = old_tokens[:kept_count]
            # each token once, in order of first appearance
            candidate = " ".join(dict.fromkeys(kept + [keyword] + extras))
            if token_edit_distance(original, candidate) <= budget:
                return candidate
            if extras:
                extras.pop()
            elif kept_count < n:
                kept_count += 1
            else:
                raise ConfigurationError(
                    f"text budget {budget} cannot absorb keyword {keyword!r}"
                )


def api_key() -> str:
    """The LLM backend's bearer token; ConfigurationError when it is not set."""
    key = os.environ.get(API_KEY_ENV)
    if not key:
        raise ConfigurationError(f"{API_KEY_ENV} is not set")
    return key


def endpoint(base_url: str | None) -> str:
    """The chat-completions URL under `base_url`, or under $TAGSIEGE_BASE_URL
    or the default when it is None; ConfigurationError unless it is an http
    or https URL that names a host and, if any, a valid port."""
    from urllib.parse import urlsplit

    base_url = base_url or os.environ.get(BASE_URL_ENV, DEFAULT_BASE_URL)
    try:
        parts = urlsplit(base_url)
        parts.port  # ValueError for a port that is not a number from 0 to 65535
    except ValueError:  # that, or an unclosed IPv6 bracket
        parts = None
    if not parts or parts.scheme not in ("http", "https") or not parts.hostname:
        raise ConfigurationError(
            f"base URL {base_url!r} is not an http or https URL with a host and a valid port"
        )
    return base_url.rstrip("/") + "/chat/completions"


def _open(url: str, timeout: float):
    """(connection, request target, extra headers) for POSTs to `url`: a
    direct connection, or one through the proxy that the environment names
    for the URL's scheme (`HTTP_PROXY`, `HTTPS_PROXY`) unless `NO_PROXY`
    exempts its host. Through a proxy, an http URL is requested whole and an
    https URL goes through a CONNECT tunnel. HTTPS verifies the server
    against `ssl.create_default_context()`'s trust store. The standard
    library's HTTP and TLS modules are imported here, so only LLM runs load
    them."""
    import base64
    import http.client
    import ssl
    from urllib.parse import unquote, urlsplit
    from urllib.request import getproxies, proxy_bypass

    parts = urlsplit(url)
    https = parts.scheme == "https"
    host, port = parts.hostname, parts.port or (443 if https else 80)
    target, extra, tunnel = parts._replace(scheme="", netloc="").geturl(), {}, None
    proxy = getproxies().get(parts.scheme)
    if proxy and not proxy_bypass(parts.netloc.rpartition("@")[2]):
        proxy = urlsplit(proxy if "://" in proxy else "http://" + proxy)
        if proxy.username:
            login = f"{unquote(proxy.username)}:{unquote(proxy.password or '')}"
            extra["Proxy-Authorization"] = "Basic " + base64.b64encode(login.encode()).decode()
        if https:
            tunnel = host, port
        else:
            target = url
        host, port = proxy.hostname, proxy.port or 80
    if not https:
        return http.client.HTTPConnection(host, port, timeout=timeout), target, extra
    conn = http.client.HTTPSConnection(
        host, port, timeout=timeout, context=ssl.create_default_context()
    )
    if tunnel:
        conn.set_tunnel(*tunnel, headers=extra)
    return conn, target, {} if tunnel else extra


def extract_json_object(content: str) -> dict:
    """Pull the first JSON object out of a completion, tolerating prose around it."""
    start = content.find("{")
    end = content.rfind("}")
    if start == -1 or end <= start:
        raise ValueError("no JSON object in response")
    obj = json.loads(content[start : end + 1])
    if not isinstance(obj, dict):
        raise ValueError("response JSON is not an object")
    return obj


REPROMPT_SUFFIX = (
    "\n\nYour previous reply could not be used ({reason}). "
    "Answer again with only the JSON object described above."
)


class LLMBackend(AttackerBackend):
    """Chat-completions client with retries and oracle fallback.

    `transport` may be injected for tests; it receives (url, headers, payload,
    timeout) and returns the decoded response body. `attack` calls it from up
    to `max_in_flight` threads at once. `transport_errors` counts the
    exchanges whose transport raised (a connection error, a timeout or an
    HTTP status of 400 or above); each was retried or ended its query.
    """

    max_in_flight = 24

    def __init__(
        self,
        config: LLMConfig,
        fallback: OracleBackend,
        transport: Callable[..., dict] | None = None,
        sleep: Callable[[float], None] = time.sleep,
    ):
        super().__init__()
        self.config = config
        self.fallback = fallback
        self.transport = transport or self._post
        self._idle: list[tuple] = []  # kept-alive (connection, target, extra headers)
        self._opening = threading.BoundedSemaphore(MAX_OPENING)
        self.sleep = sleep
        key = api_key() if transport is None else os.environ.get(API_KEY_ENV)
        self.headers = {"Content-Type": "application/json"}
        if key:
            self.headers["Authorization"] = f"Bearer {key}"
        self.url = endpoint(config.base_url)
        self.transport_errors = 0

    def _post(self, url: str, headers: dict, payload: dict, timeout: float) -> dict:
        """POST `payload` as JSON to `url` on an idle connection, or a new one,
        decode the JSON reply and put the connection back on the idle stack. A
        reply with status 400 or above raises BackendError. A failed exchange
        closes its connection, so the next attempt opens a fresh one; so does a
        server that closed it while idle.

        An exchange on a new connection holds one of MAX_OPENING places until its
        reply arrives. A connection waits in the server's accept queue until the
        server accepts it, but `connect` returns as soon as it is queued; the
        reply shows it was accepted. So this backend never has more than
        MAX_OPENING connections in that queue, however many workers start at
        once: a full queue drops the SYN, and TCP resends it only after 1 s."""
        with self._lock:
            held = self._idle.pop() if self._idle else None
        conn, target, extra = held or _open(url, timeout)
        if conn.sock is not None:
            with selectors.DefaultSelector() as idle:
                idle.register(conn.sock, selectors.EVENT_READ)
                if idle.select(0):
                    conn.close()  # the server closed it while idle; http.client reopens
        with self._opening if conn.sock is None else contextlib.nullcontext():
            try:
                conn.request("POST", target, json.dumps(payload).encode(), headers | extra)
                reply = conn.getresponse()
                body = reply.read()
                if reply.status >= 400:
                    raise BackendError(f"HTTP {reply.status} {reply.reason} from {url}")
                decoded = json.loads(body)
            except BaseException:
                conn.close()
                raise
        with self._lock:
            self._idle.append((conn, target, extra))
        return decoded

    def close(self) -> None:
        """Close every idle connection; later exchanges open new ones."""
        with self._lock:
            idle, self._idle = self._idle, []
        for conn, _, _ in idle:
            conn.close()

    def _complete(self, prompt_text: str) -> str:
        payload = {
            "model": self.config.model,
            "temperature": self.config.temperature,
            "messages": [{"role": "user", "content": prompt_text}],
        }
        last_error: Exception | None = None
        for attempt in range(self.config.max_attempts):
            if attempt:
                self._count(retries=1)
                self.sleep(BACKOFF_BASE_S * (2 ** (attempt - 1)))
            try:
                body = self.transport(self.url, self.headers, payload, self.config.timeout)
            except Exception as exc:  # transport failure; retry
                with self._lock:
                    self.transport_errors += 1
                last_error = exc
                continue
            try:
                return typed(body["choices"][0]["message"]["content"], str)
            except Exception as exc:  # shape failure; retry
                last_error = exc
        raise BackendError(
            f"backend failed after {self.config.max_attempts} attempts: {last_error}"
        )

    def _ask(
        self,
        prompt_text: str,
        parse: Callable[[dict], tuple[str | None, Decision]],
        fallback: Callable[[str], Decision],
    ) -> Decision:
        """One logical query: the ask plus at most one corrective re-prompt.

        `parse` turns the reply's JSON object into (reason it is invalid or
        None, decision), and may raise KeyError/TypeError/ValueError on a
        malformed reply. After a second rejection `fallback(reason)` gives
        the oracle's answer, which this backend counts as one fallback.
        """
        self._count(queries=1)
        reason = ""
        text = prompt_text
        for attempt in range(2):  # initial ask plus one corrective re-prompt
            if attempt:
                self._count(retries=1)
                text = prompt_text + REPROMPT_SUFFIX.format(reason=reason)
            content = self._complete(text)
            try:
                invalid, decision = parse(extract_json_object(content))
            except (KeyError, TypeError, ValueError) as exc:
                reason = f"unparseable reply: {exc}"
            else:
                reason = invalid or ""
                if not reason:
                    return decision
        self._count(fallbacks=1)
        return fallback(reason)

    def topology_decision(self, prompt: TopologyPrompt) -> TopologyDecision:
        def parse(obj: dict) -> tuple[str | None, TopologyDecision]:
            delete_id = obj.get("delete_id")
            delete_id = None if delete_id is None else integer(delete_id)
            add_id = integer(obj["add_id"])
            rationale = str(obj.get("rationale", ""))
            return (
                validate_topology_decision(prompt, delete_id, add_id),
                TopologyDecision(delete_id, add_id, rationale),
            )

        return self._ask(
            prompt.text,
            parse,
            lambda reason: replace(self.fallback.topology_decision(prompt), fallback=True),
        )

    def text_decision(self, prompt: TextPrompt, budget: int) -> TextDecision:
        original = self.fallback.graph.texts[prompt.target]

        def parse(obj: dict) -> tuple[str | None, TextDecision]:
            keyword, new_text = typed(obj["keyword"], str), typed(obj["new_text"], str)
            rationale = str(obj.get("rationale", ""))
            return (
                validate_text_decision(original, keyword, new_text, budget),
                TextDecision(keyword, new_text, rationale),
            )

        return self._ask(
            prompt.text,
            parse,
            lambda reason: replace(
                self.fallback.text_decision(prompt, budget),
                rationale=f"oracle fallback after: {reason}",
                fallback=True,
            ),
        )
