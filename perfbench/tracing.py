"""Spans around the public functions of every ``tagsiege`` module.

The program has no telemetry of its own, so the traced run measures each
module from outside: ``Tracer.install`` wraps the functions and methods listed
in ``WRAPPED`` and patches every name under which a ``tagsiege`` module looks
them up (modules import functions by name, e.g. ``tagsiege.cli.attack`` and
``tagsiege.victims.normalize_adjacency``). Each call records a span (name,
start, end, parent) plus counters read at that boundary. Spans stay in memory;
``layer_metrics`` turns one round's spans into the per-layer metrics.
"""

from __future__ import annotations

import importlib
import sys
import time
from dataclasses import dataclass, field


def _bytes(args, kwargs, result) -> dict:
    return {"bytes": len(result.text.encode())}


def _attack_counts(args, kwargs, result) -> dict:
    backend = args[3] if len(args) > 3 else kwargs["backend"]
    return {
        "completed": len(result.entries),
        "skipped": len(result.skipped),
        "queries": backend.query_count,
        "retries": backend.retry_count,
        "fallbacks": backend.fallback_count,
    }


def _apply_counts(args, kwargs, result) -> dict:
    graph = args[0]
    return {
        "charged": result.audit.edge_edits,
        "changed": len(graph.edges ^ result.graph.edges),
    }


# (module, attribute or Class.method, span name, counters read on return)
WRAPPED = [
    ("cli", "main", "cli.main", lambda a, k, r: {"command": a[0][0]}),
    ("synth", "generate", "synth.generate", lambda a, k, r: {"edges": r.edge_count}),
    ("graph", "load_graph", "graph.load", None),
    ("graph", "save_graph", "graph.save", None),
    ("text_features", "build_vocabulary", "text_features.vocab", None),
    ("text_features", "featurize", "text_features.featurize",
     lambda a, k, r: {"rows": len(a[0])}),
    ("encoder", "train_encoder", "encoder.train",
     lambda a, k, r: {"epochs": r.config.epochs}),
    ("encoder", "encode", "encoder.encode", None),
    ("encoder", "normalize_adjacency", "encoder.adjacency", None),
    ("retrieval", "retrieve_influencers", "retrieval.retrieve", None),
    ("prompts", "build_topology_prompt", "prompts.build", _bytes),
    ("prompts", "build_text_prompt", "prompts.build", _bytes),
    ("backends", "OracleBackend.topology_decision", "backends.decide", None),
    ("backends", "OracleBackend.text_decision", "backends.decide", None),
    ("backends", "LLMBackend.topology_decision", "backends.decide", None),
    ("backends", "LLMBackend.text_decision", "backends.decide", None),
    ("attack", "attack", "attack.attack", _attack_counts),
    ("plan", "apply_plan", "plan.apply", _apply_counts),
    ("baselines", "rnd_attack", "baselines.rnd", None),
    ("baselines", "flip_attack", "baselines.flip", None),
    ("victims", "train_victim", "victims.train", lambda a, k, r: {"kind": a[0]}),
    ("victims", "predict", "victims.predict", None),
    ("victims", "mean_aggregation", "victims.aggregation", None),
    ("metrics", "homophily_edge", "metrics.homophily", None),
    ("metrics", "homophily_node", "metrics.homophily", None),
    ("metrics", "bound_audit", "metrics.bound_audit", None),
    ("metrics", "synergy_test", "metrics.synergy", None),
]


def _unit(name: str) -> str:
    for suffix, unit in (("_s", "s"), ("_ms", "ms")):
        if name.endswith(suffix):
            return unit
    if name.startswith("drop_") or name.endswith("_share"):
        return "share"
    return "bytes" if name.endswith("bytes") else "count"


LAYER_METRICS = [
    "step.synth_s", "step.attack_s", "step.baselines_s", "step.evaluate_s", "step.audit_s",
    "cli.import_s", "cli.self_s",
    "synth.generate_s", "synth.edges",
    "graph.load_s", "graph.save_s", "graph.loads",
    "text_features.vocab_s", "text_features.featurize_s", "text_features.featurize_rows",
    "encoder.train_s", "encoder.epoch_ms", "encoder.encode_s", "encoder.adjacency_s",
    "encoder.adjacency_builds",
    "retrieval.retrieve_s", "retrieval.per_target_ms", "retrieval.calls",
    "prompts.build_s", "prompts.bytes",
    "backends.decide_s", "backends.queries", "backends.retries", "backends.fallbacks",
    "backends.http_requests", "backends.http_wait_share", "backends.client_overhead_ms",
    "attack.loop_s", "attack.self_s", "attack.completed", "attack.skipped",
    "plan.apply_s", "plan.apply_calls", "plan.edges_charged", "plan.edges_changed",
    "baselines.rnd_s", "baselines.flip_s",
    "victims.train_gcn_s", "victims.train_sgc_s", "victims.train_sage_mean_s",
    "victims.predict_s", "victims.predict_calls", "victims.aggregation_builds",
    "metrics.homophily_s", "metrics.bound_audit_s", "metrics.synergy_s",
    "drop_gcn", "drop_sgc", "drop_sage_mean",
]
LAYER_UNITS = {name: _unit(name) for name in LAYER_METRICS}


@dataclass
class Span:
    name: str
    start: float
    parent: int
    end: float = 0.0
    counters: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn, counters):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            index = len(spans)
            span = Span(name, time.perf_counter(), stack[-1] if stack else -1)
            spans.append(span)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
            if counters is not None:
                span.counters = counters(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _patch(self, owner, attr, value) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Wrap every entry of WRAPPED wherever a tagsiege module binds it."""
        for module_name, attr, name, counters in WRAPPED:
            module = importlib.import_module(f"tagsiege.{module_name}")
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(module, cls_name)
                self._patch(cls, method, self._wrap(name, cls.__dict__[method], counters))
                continue
            original = getattr(module, attr)
            traced = self._wrap(name, original, counters)
            for mod_name, mod in list(sys.modules.items()):
                if mod_name.split(".")[0] != "tagsiege" or mod is None:
                    continue
                for binding, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, binding, traced)

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._patches):
            setattr(owner, attr, value)
        self._patches.clear()

    def reset(self) -> None:
        """Start a new round; the wrappers keep appending to ``self.spans``."""
        self.spans.clear()


def _outermost(spans: list[Span], name: str) -> list[Span]:
    """Spans called `name` with no ancestor of the same name."""
    out = []
    for span in spans:
        if span.name != name:
            continue
        parent = span.parent
        while parent >= 0 and spans[parent].name != name:
            parent = spans[parent].parent
        if parent < 0:
            out.append(span)
    return out


def _total(spans, name) -> float:
    return sum(s.seconds for s in _outermost(spans, name))


def _self_time(spans: list[Span], name: str) -> float:
    child_time = [0.0] * len(spans)
    for span in spans:
        if span.parent >= 0:
            child_time[span.parent] += span.seconds
    return sum(
        spans[i].seconds - child_time[i]
        for i in range(len(spans))
        if spans[i].name == name
    )


def _count(spans, name) -> int:
    return sum(1 for s in spans if s.name == name)


def _counter(spans, name, key) -> float:
    return sum(s.counters.get(key, 0) for s in spans if s.name == name)


def layer_metrics(spans: list[Span], http_requests: int, http_wait_s: float) -> dict:
    """Per-layer metrics of one traced round; `http_*` are read at the stub."""
    train = _outermost(spans, "encoder.train")
    train_ids = {id(s) for s in train}
    train_adjacency = sum(
        s.seconds for s in spans
        if s.name == "encoder.adjacency" and s.parent >= 0
        and id(spans[s.parent]) in train_ids
    )
    epochs = sum(s.counters["epochs"] for s in train)
    retrieve_calls = _count(spans, "retrieval.retrieve")
    attack_spans = _outermost(spans, "attack.attack")
    # the attack command applies its plan directly under its cli.main span
    attack_apply = next(
        (s for s in spans if s.name == "plan.apply" and s.parent >= 0
         and spans[s.parent].counters.get("command") == "attack"),
        None,
    )
    decide_s = _total(spans, "backends.decide")
    queries = _counter(attack_spans, "attack.attack", "queries")
    calls = http_requests or queries
    train_by_kind = {
        kind: sum(
            s.seconds for s in _outermost(spans, "victims.train")
            if s.counters["kind"] == kind
        )
        for kind in ("gcn", "sgc", "sage_mean")
    }
    return {
        "cli.self_s": _self_time(spans, "cli.main"),
        "synth.generate_s": _total(spans, "synth.generate"),
        "synth.edges": _counter(spans, "synth.generate", "edges"),
        "graph.load_s": _total(spans, "graph.load"),
        "graph.save_s": _total(spans, "graph.save"),
        "graph.loads": _count(spans, "graph.load"),
        "text_features.vocab_s": _total(spans, "text_features.vocab"),
        "text_features.featurize_s": _total(spans, "text_features.featurize"),
        "text_features.featurize_rows": _counter(spans, "text_features.featurize", "rows"),
        "encoder.train_s": sum(s.seconds for s in train),
        "encoder.epoch_ms": (
            1000.0 * (sum(s.seconds for s in train) - train_adjacency) / epochs
            if epochs else 0.0
        ),
        "encoder.encode_s": _total(spans, "encoder.encode"),
        "encoder.adjacency_s": _total(spans, "encoder.adjacency"),
        "encoder.adjacency_builds": _count(spans, "encoder.adjacency"),
        "retrieval.retrieve_s": _total(spans, "retrieval.retrieve"),
        "retrieval.per_target_ms": (
            1000.0 * _total(spans, "retrieval.retrieve") / retrieve_calls
            if retrieve_calls else 0.0
        ),
        "retrieval.calls": retrieve_calls,
        "prompts.build_s": _total(spans, "prompts.build"),
        "prompts.bytes": _counter(spans, "prompts.build", "bytes"),
        "backends.decide_s": decide_s,
        "backends.queries": queries,
        "backends.retries": _counter(attack_spans, "attack.attack", "retries"),
        "backends.fallbacks": _counter(attack_spans, "attack.attack", "fallbacks"),
        "backends.http_requests": http_requests,
        "backends.http_wait_share": http_wait_s / decide_s if decide_s else 0.0,
        "backends.client_overhead_ms": (
            1000.0 * (decide_s - http_wait_s) / calls if calls else 0.0
        ),
        "attack.loop_s": _total(spans, "attack.attack"),
        "attack.self_s": _self_time(spans, "attack.attack"),
        "attack.completed": _counter(attack_spans, "attack.attack", "completed"),
        "attack.skipped": _counter(attack_spans, "attack.attack", "skipped"),
        "plan.apply_s": _total(spans, "plan.apply"),
        "plan.apply_calls": _count(spans, "plan.apply"),
        "plan.edges_charged": attack_apply.counters["charged"] if attack_apply else 0,
        "plan.edges_changed": attack_apply.counters["changed"] if attack_apply else 0,
        "baselines.rnd_s": _total(spans, "baselines.rnd"),
        "baselines.flip_s": _total(spans, "baselines.flip"),
        "victims.train_gcn_s": train_by_kind["gcn"],
        "victims.train_sgc_s": train_by_kind["sgc"],
        "victims.train_sage_mean_s": train_by_kind["sage_mean"],
        "victims.predict_s": _total(spans, "victims.predict"),
        "victims.predict_calls": _count(spans, "victims.predict"),
        "victims.aggregation_builds": _count(spans, "victims.aggregation"),
        "metrics.homophily_s": _total(spans, "metrics.homophily"),
        "metrics.bound_audit_s": _total(spans, "metrics.bound_audit"),
        "metrics.synergy_s": _total(spans, "metrics.synergy"),
    }
