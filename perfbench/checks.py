"""Output checks for one pipeline round, computed apart from the program.

Everything here re-reads the files the CLI wrote and recomputes what it needs
with the benchmark's own code: its own tokenizer, TF-IDF and cosine, its own
edge-set difference. Nothing compares against output kept in the repository;
byte-identity is checked between re-runs and runs of the same source tree.
"""

from __future__ import annotations

import hashlib
import json
import math
import re
from collections import Counter
from pathlib import Path

TOKEN_RE = re.compile(r"[0-9a-z]+")
PER_NODE_EDGE_BUDGET = 2
TEXT_TOKEN_BUDGET = 12
HOMOPHILY_TOL = 1e-9


def tokens(text: str) -> list[str]:
    return TOKEN_RE.findall(text.lower())


def read_dataset(root: Path) -> tuple[list[str], set[tuple[int, int]]]:
    """(texts, canonical edge set) of a dataset directory."""
    texts = []
    for line in (root / "nodes.jsonl").read_text().splitlines():
        rec = json.loads(line)
        if rec["id"] != len(texts):
            raise ValueError(f"{root}: node ids are not dense")
        texts.append(rec["text"])
    edges = set()
    for line in (root / "edges.csv").read_text().splitlines()[1:]:
        u, v = (int(x) for x in line.split(","))
        edges.add((min(u, v), max(u, v)))
    return texts, edges


def read_plan(path: Path) -> list[dict]:
    return [
        rec
        for rec in map(json.loads, path.read_text().splitlines())
        if "skipped" not in rec
    ]


def planned_edges(entry: dict) -> set[tuple[int, int]]:
    t = entry["target"]
    out = {(min(t, entry["add_influencer"]), max(t, entry["add_influencer"]))}
    if entry["delete_neighbor"] is not None:
        d = entry["delete_neighbor"]
        out.add((min(t, d), max(t, d)))
    return out


def charged_edges(entry: dict) -> int:
    return 1 + (entry["delete_neighbor"] is not None)


def edge_homophily(texts: list[str], edges, vocab_texts: list[str], max_vocab: int) -> float:
    """Mean TF-IDF cosine over edges; the vocabulary is frozen on `vocab_texts`."""
    df = Counter(term for text in vocab_texts for term in set(tokens(text)))
    kept = sorted(df, key=lambda t: (-df[t], t))[:max_vocab]
    n_docs = len(vocab_texts)
    idf = {t: math.log((1 + n_docs) / (1 + df[t])) + 1.0 for t in kept}
    rows, norms = [], []
    for text in texts:
        counts = Counter(t for t in tokens(text) if t in idf)
        row = {t: c * idf[t] for t, c in counts.items()}
        rows.append(row)
        norms.append(math.sqrt(sum(w * w for w in row.values())))
    total = 0.0
    for u, v in sorted(edges):
        if norms[u] == 0.0 or norms[v] == 0.0:
            continue
        ru, rv = rows[u], rows[v]
        if len(rv) < len(ru):
            ru, rv = rv, ru
        dot = sum(w * rv[t] for t, w in ru.items() if t in rv)
        total += dot / (norms[u] * norms[v])
    return total / len(edges)


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def check_round(
    paths: dict[str, Path],
    *,
    max_vocab: int,
    class_count: int,
    oracle: bool,
    stub_requests: int | None,
) -> list[tuple[str, bool, str]]:
    """Every output check of one round, as (name, passed, detail)."""
    clean_texts, clean_edges = read_dataset(paths["data"])
    pert_texts, pert_edges = read_dataset(paths["perturbed"])
    entries = read_plan(paths["plan"])
    manifest = json.loads(paths["attack_manifest"].read_text())
    audit = json.loads(paths["audit"].read_text())
    report = json.loads(paths["report"].read_text())
    by_target = {e["target"]: e for e in entries}
    out = []

    diff = clean_edges ^ pert_edges
    planned = set().union(*(planned_edges(e) for e in entries))
    charged = sum(charged_edges(e) for e in entries)
    stray = diff - planned
    out.append((
        "edge_diff_planned",
        not stray and len(diff) <= charged,
        f"|diff|={len(diff)} charged={charged} unplanned={len(stray)}",
    ))

    changed = {i for i, (a, b) in enumerate(zip(clean_texts, pert_texts)) if a != b}
    rewritten = {t for t, e in by_target.items() if e["new_text"] is not None}
    texts_ok = changed == rewritten and all(
        pert_texts[t] == by_target[t]["new_text"] for t in rewritten
    )
    out.append((
        "texts_match_plan",
        texts_ok,
        f"changed={len(changed)} rewritten={len(rewritten)}",
    ))

    over = [
        t
        for t, e in by_target.items()
        if charged_edges(e) > PER_NODE_EDGE_BUDGET
        or (
            e["new_text"] is not None
            and len(set(tokens(clean_texts[t])) ^ set(tokens(e["new_text"])))
            > TEXT_TOKEN_BUDGET
        )
    ]
    out.append(("entries_within_budget", not over, f"over budget: {over[:5]}"))

    out.append((
        "audit_edge_edits",
        audit["edge_edits"] == len(diff),
        f"audit={audit['edge_edits']} recomputed={len(diff)}",
    ))

    h_clean = edge_homophily(clean_texts, clean_edges, clean_texts, max_vocab)
    h_pert = edge_homophily(pert_texts, pert_edges, clean_texts, max_vocab)
    err = max(
        abs(h_clean - audit["homophily_edge_clean"]),
        abs(h_pert - audit["homophily_edge_perturbed"]),
    )
    out.append(("homophily_recomputed", err <= HOMOPHILY_TOL, f"max abs error {err:.3g}"))

    queries = manifest["query_count"]
    out.append((
        "two_queries_per_entry",
        queries == 2 * len(entries) == report["query_count"],
        f"manifest={queries} report={report['query_count']} entries={len(entries)}",
    ))

    if stub_requests is not None:
        expected = queries + manifest["retry_count"]
        out.append((
            "stub_requests_reconcile",
            stub_requests == expected and manifest["fallback_count"] == 0,
            f"stub={stub_requests} queries+retries={expected} "
            f"fallbacks={manifest['fallback_count']}",
        ))

    victims = report["victims"]
    weak = [
        k
        for k, v in victims.items()
        if v["val_accuracy"] <= 1.0 / class_count
        or v["attackers"]["tagsiege"]["drop"] <= 0.0
    ]
    out.append(("victims_trained_and_hit", not weak, f"failing victims: {weak}"))
    if oracle:
        beaten = [
            k
            for k, v in victims.items()
            if not all(
                v["attackers"]["tagsiege"]["drop"] > v["attackers"][b]["drop"]
                for b in ("rnd", "flip")
            )
        ]
        out.append(("beats_baselines", not beaten, f"not above rnd/flip: {beaten}"))
    return out
