"""Command-line harness for reproducible attack experiments.

Commands: synth, attack, evaluate, audit, replay. Every command writes its
outputs plus a ``manifest.json`` that records the resolved configuration,
input/output file hashes, and seeds — enough to replay the run bit-identically
with ``tagsiege replay``.

Option precedence: CLI flags > ``--config`` file (flat ``key=value`` lines,
``#`` comments) > built-in defaults. Flags and file lines share one parser
per option kind (``_parse``) and ``replay`` checks recorded values with the
``records`` rules, so a non-finite float is refused from every source. An
option backed by a field of a ``config`` dataclass takes its kind, default
and help from that field (``_options``), and each runner builds its config
objects from the options of the same names (``_config``) and checks them
before it reads a dataset, plan or report; ``main`` and ``replay`` run it
through ``_run``. A runner creates ``--out`` with its first output and
returns the files it wrote, which alone the manifest lists; the files that an
earlier manifest of the same command there lists, and this run did not
write, are removed. Exit codes: 0 ok, 2 config/validation, 3 an attack in
which every target was skipped, 4 training.

Module level imports only what parsing, manifests and ``replay``'s checks
need (``config`` among them), none of which loads numpy; every other layer
is imported by the runner or helper that uses it. So ``--help`` and argument
errors start without importing numpy, and ``synth``, a replayed ``synth``
and ``audit`` (whose features stay numpy CSR rows) without importing scipy.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
from dataclasses import fields
from functools import partial
from pathlib import Path

from . import __version__
from .config import (
    DEFAULT_K, MAX_VOCAB, VICTIM_KINDS, EncoderConfig, LLMConfig, SynthConfig, VictimConfig,
)
from .errors import (
    ConfigurationError,
    ParseError,
    PlanInconsistencyError,
    TagSiegeError,
    TrainingError,
)
from .graph import SPLITS, dataset_files, load_graph, save_graph
from .plan import apply_plan, load_plan, save_plan
from .records import dumps, integer, number, read_json, typed, write_jsonl

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_BACKEND = 3
EXIT_TRAINING = 4

_REQUIRED = object()

# ---------------------------------------------------------------------------
# option plumbing


def _read_config_file(path: str) -> dict[str, str]:
    """Parse a flat key=value file; blank lines and # comments are skipped."""
    values: dict[str, str] = {}
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ParseError("expected key=value", path=str(path), line=lineno)
        key, _, value = line.partition("=")
        values[key.strip()] = value.strip()
    return values


_EXPECTED = {"int": "an integer", "float": "a finite number", "bool": "a boolean"}
_TRUE, _FALSE = ("1", "true", "yes", "on"), ("0", "false", "no", "off")


def _parse(kind: str, raw: str):
    """The one parser of an option's string value, for flags (int, float and
    str; a bool flag takes no value, a list flag repeats) and config files
    (every kind). A float must be finite, as `records.number` requires."""
    try:
        if kind == "int":
            return int(raw)
        if kind == "float":
            return number(float(raw))
        if kind == "bool" and raw.lower() in _TRUE + _FALSE:
            return raw.lower() in _TRUE
        if kind == "list":
            return [item for item in raw.split(";") if item]
        if kind == "str":
            return raw
    except (TypeError, ValueError):
        pass
    raise argparse.ArgumentTypeError(f"expected {_EXPECTED[kind]}, got {raw!r}")


def _add_flags(parser: argparse.ArgumentParser, spec) -> None:
    for name, kind, default, help_text in spec:
        flag = "--" + name.replace("_", "-")
        if default not in (None, _REQUIRED) and default != []:
            help_text = f"{help_text} (default: {default})"
        if kind == "bool":
            form = {"action": "store_true"}
        elif kind == "list":
            form = {"action": "append"}
        else:
            form = {"type": partial(_parse, kind)}
        parser.add_argument(flag, default=argparse.SUPPRESS, help=help_text, **form)


def _resolve_options(spec, args: argparse.Namespace) -> dict:
    """Merge CLI flags over the config file over defaults into one dict."""
    file_cfg = _read_config_file(args.config) if getattr(args, "config", None) else {}
    known = {name for name, _, _, _ in spec}
    unknown = sorted(set(file_cfg) - known)
    if unknown:
        raise ConfigurationError(f"unknown config keys: {', '.join(unknown)}")
    given = vars(args)
    resolved = {}
    for name, kind, default, _ in spec:
        if name in given:
            resolved[name] = given[name]
        elif name in file_cfg:
            try:
                resolved[name] = _parse(kind, file_cfg[name])
            except argparse.ArgumentTypeError as exc:
                raise ConfigurationError(f"config option {name}: {exc}") from None
        elif default is _REQUIRED:
            raise ConfigurationError(
                f"missing required option --{name.replace('_', '-')}"
            )
        else:
            resolved[name] = default
    return resolved


# ---------------------------------------------------------------------------
# manifests


def _sha256_file(path: Path) -> str:
    digest = hashlib.sha256()
    with path.open("rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _dataset_inputs(data_dir: str | Path) -> dict[str, str]:
    return {str(path): _sha256_file(path) for path in dataset_files(data_dir)}


def _file_inputs(*paths: str) -> dict[str, str]:
    return {p: _sha256_file(Path(p)) for p in paths}


def _write_manifest(
    out: Path, command: str, config: dict, inputs: dict, written: list[Path], extra: dict
) -> None:
    """Record the run into `out`; `written` are the files the run wrote there."""
    outputs = {str(f.relative_to(out)): _sha256_file(f) for f in written}
    manifest = {
        "tool": "tagsiege",
        "version": __version__,
        "command": command,
        "config": config,
        "config_sha256": hashlib.sha256(dumps(config).encode()).hexdigest(),
        "inputs": inputs,
        "outputs": outputs,
        **extra,
    }
    (out / "manifest.json").write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n"
    )


# ---------------------------------------------------------------------------
# shared pieces


def _parse_target_list(raw: str) -> list[int]:
    try:
        ids = sorted({int(tok) for tok in raw.split(",") if tok.strip()})
    except ValueError:
        raise ConfigurationError(
            f"targets must be comma-separated integers, got {raw!r}"
        ) from None
    if not ids:
        raise ConfigurationError("targets list is empty")
    return ids


def _resolve_targets(ids: list[int] | None, cfg: dict, graph) -> list[int]:
    """The parsed --targets list `ids`, checked against the graph, or
    --num-targets sampled from --target-split; `_run_attack` has checked the
    split's name and that --num-targets is at least 1."""
    if ids is not None:
        bad = [i for i in ids if not 0 <= i < graph.node_count]
        if bad:
            raise ConfigurationError(f"targets out of range: {bad}")
        return ids
    from .seeding import substream

    split, num = cfg["target_split"], cfg["num_targets"]
    pool = sorted(graph.split_nodes(split))
    if not 1 <= num <= len(pool):
        raise ConfigurationError(
            f"num_targets must be in [1, {len(pool)}] for split {split!r}"
        )
    rng = substream(int(cfg["seed"]), "targets")
    return sorted(rng.choice(pool, size=num, replace=False).tolist())


def _check_max_vocab(cfg: dict) -> None:
    """The vocabulary cap's check, made before any read; `Vocabulary.from_texts`
    makes the same check for library callers."""
    if cfg["max_vocab"] < 1:
        raise ConfigurationError("vocabulary max_size must be >= 1")


def _load_featurized(data_dir: str, max_vocab: int):
    """(graph, vocabulary, features) of a dataset: the vocabulary is frozen on
    the dataset's own texts, and its features are taken against it."""
    from .text_features import build_vocabulary, featurize

    graph = load_graph(data_dir)
    vocab = build_vocabulary(graph, max_vocab)
    return graph, vocab, featurize(graph.texts, vocab)


def _config(cls, cfg: dict):
    """A `cls` whose every dataclass field is the option of the same name; a
    field with no option is a KeyError, never its default."""
    return cls(**{f.name: cfg[f.name] for f in fields(cls)})


def _counters(features, operand_forms: dict[str, dict[str, str]]) -> dict:
    """Sparsity of the clean features and, per model, the form ("csr" or
    "dense") each of its fixed training operands took."""
    rows, cols = features.shape
    return {
        "features_nnz": features.nnz,
        "features_density": features.nnz / (rows * cols),
        "operand_forms": operand_forms,
    }


# ---------------------------------------------------------------------------
# command runners; each returns (inputs, files written, manifest extra, exit code)


def _run_synth(cfg: dict, out: Path):
    from .synth import generate, summarize

    graph = generate(_config(SynthConfig, cfg))
    written = save_graph(graph, out)
    summary = summarize(graph)
    print(
        f"synth: {summary['node_count']} nodes, {summary['edge_count']} edges -> {out}"
    )
    return {}, written, {"seed": cfg["seed"], "summary": summary}, EXIT_OK


def _load_templates(cfg: dict):
    """(templates by name, the files they were read from) of the template options."""
    from .prompts import load_template

    paths = {name: cfg[f"{name}_template"] for name in ("topology", "text")
             if cfg[f"{name}_template"]}
    return {name: load_template(path, name) for name, path in paths.items()}, list(paths.values())


def _run_attack(cfg: dict, out: Path):
    from .attack import attack, check_attack_config
    from .backends import LLMBackend, OracleBackend, api_key, endpoint
    from .encoder import encode, train_encoder

    # every config error is found before a template or the dataset is read
    check_attack_config(cfg["text_budget"], cfg["k"])
    encoder_config = _config(EncoderConfig, cfg)
    _check_max_vocab(cfg)
    if cfg["backend"] not in ("oracle", "llm"):
        raise ConfigurationError(f"unknown backend kind {cfg['backend']!r}")
    if cfg["backend"] == "llm":
        api_key()
        llm_config = _config(LLMConfig, cfg)
        endpoint(llm_config.base_url)
    raw, num = cfg["targets"], cfg["num_targets"]
    if raw is not None and num is not None:
        raise ConfigurationError("pass either --targets or --num-targets, not both")
    if raw is None and num is None:
        raise ConfigurationError("attack needs --targets or --num-targets")
    if num is not None and num < 1:
        raise ConfigurationError(f"--num-targets must be >= 1, got {num}")
    if cfg["target_split"] not in SPLITS:
        raise ConfigurationError(
            f"unknown --target-split {cfg['target_split']!r}; choose from {', '.join(SPLITS)}"
        )
    ids = None if raw is None else _parse_target_list(raw)
    templates, template_paths = _load_templates(cfg)
    graph, vocab, features = _load_featurized(cfg["data"], cfg["max_vocab"])
    targets = _resolve_targets(ids, cfg, graph)
    started = time.perf_counter()
    trained = train_encoder(graph, features, encoder_config)
    embeddings = encode(trained, graph, features)
    train_s = time.perf_counter() - started

    backend = oracle = OracleBackend(graph, embeddings, vocab)
    if cfg["backend"] == "llm":
        backend = LLMBackend(llm_config, fallback=oracle)

    started = time.perf_counter()
    plan = attack(
        graph,
        targets,
        embeddings,
        backend,
        cfg["text_budget"],
        templates=templates,
        k=cfg["k"],
        seed=cfg["seed"],
        anchor_mismatch=cfg["anchor_mismatch"],
    )
    attack_s = time.perf_counter() - started

    written = [save_plan(plan, out / "plan.jsonl")]
    completed = len(plan.entries)
    if completed:
        written += save_graph(apply_plan(graph, plan).graph, out / "perturbed")

    extra = {
        "seed": cfg["seed"],
        "backend_kind": cfg["backend"],
        "targets": targets,
        "completed": completed,
        "skipped": {str(t): r for t, r in sorted(plan.skipped.items())},
        "query_count": plan.query_count,
        "retry_count": backend.retry_count,
        "fallback_count": backend.fallback_count,
        "timings": {
            "encoder_train_s": round(train_s, 3),
            "attack_s": round(attack_s, 3),
        },
        "counters": _counters(features, {"encoder": trained.operand_forms}),
    }
    if cfg["backend"] == "llm":
        extra["counters"]["transport_errors"] = backend.transport_errors
    inputs = _dataset_inputs(cfg["data"]) | _file_inputs(*template_paths)
    if not completed:
        extra["error"] = (
            f"all {len(targets)} targets failed; first reason: "
            f"{next(iter(plan.skipped.values()))}"
        )
        print(f"error: {extra['error']}", file=sys.stderr)
        return inputs, written, extra, EXIT_BACKEND
    print(
        f"attack: {completed}/{len(targets)} targets, "
        f"{plan.query_count} queries -> {out}"
    )
    return inputs, written, extra, EXIT_OK


def _run_evaluate(cfg: dict, out: Path):
    # imported before any data, outside the victims' worker threads: first
    # imported inside a worker, scipy read up to 1 MB higher peak RSS
    # (evaluate on the 300-node quickstart data)
    import scipy.sparse  # noqa: F401

    from .metrics import aggregate, bound_audit, synergy_test
    from .text_features import featurize
    from .victims import accuracy, train_victims

    # every config error is found before a dataset or plan is read
    kinds = [k for k in cfg["victims"].split(",") if k]
    if not kinds:
        raise ConfigurationError("evaluate needs at least one victim kind")
    for kind in kinds:
        if kind not in VICTIM_KINDS:
            raise ConfigurationError(
                f"unknown victim {kind!r}; choose from {', '.join(VICTIM_KINDS)}"
            )
    victim_config = _config(VictimConfig, cfg)
    _check_max_vocab(cfg)
    label = cfg["attacker_label"]
    plan_paths = {label: cfg["plan"]}
    for spec in cfg["baseline"] or []:
        name, sep, path = spec.partition("=")
        if not sep or not name or not path:
            raise ConfigurationError(
                f"baseline must look like NAME=PLAN_PATH, got {spec!r}"
            )
        if name in plan_paths:
            raise ConfigurationError(f"attacker row {name!r} is named twice")
        plan_paths[name] = path

    clean, vocab, clean_x = _load_featurized(cfg["clean"], cfg["max_vocab"])
    plans = {name: load_plan(path) for name, path in plan_paths.items()}
    plan = plans[label]
    targets = plan.targets()
    if not targets:
        raise ConfigurationError("plan has no completed targets to evaluate")

    # each row's graph is its plan applied to the clean graph; perturbed text
    # is featurized against the clean corpus's frozen vocabulary, so victims
    # never see attacker-invented terms
    attackers = {}
    for name, attacker_plan in plans.items():
        graph = apply_plan(clean, attacker_plan).graph
        attackers[name] = (graph, featurize(graph.texts, vocab))
    joint, joint_x = attackers[label]
    perturbed = load_graph(cfg["perturbed"])
    if (perturbed.edges, perturbed.texts) != (joint.edges, joint.texts):
        raise PlanInconsistencyError(
            f"--perturbed {cfg['perturbed']} is not the graph --plan {cfg['plan']} "
            f"makes of --clean {cfg['clean']}"
        )

    victims, seconds, wall_s, workers = train_victims(kinds, clean, clean_x, victim_config)

    # the one per-victim table: the report, summary.csv and the printout read it
    victims_out = {}
    for kind, model in victims.items():
        clean_acc = accuracy(model, clean, clean_x, targets)
        per_attacker = {}
        for name, (graph_a, features_a) in sorted(attackers.items()):
            perturbed_acc = accuracy(model, graph_a, features_a, targets)
            per_attacker[name] = {
                "clean_accuracy": clean_acc,
                "perturbed_accuracy": perturbed_acc,
                "drop": clean_acc - perturbed_acc,
            }
        victims_out[kind] = {"val_accuracy": model.val_accuracy, "attackers": per_attacker}

    def column(key: str) -> dict:
        return {kind: row["attackers"][label][key] for kind, row in victims_out.items()}

    clean_accs, joint_accs = column("clean_accuracy"), column("perturbed_accuracy")
    report = {
        "attacker": label,
        "targets": targets,
        "query_count": plan.query_count,
        "victims": victims_out,
        "aggregates_clean": aggregate(list(clean_accs.values())),
        "aggregates_perturbed": aggregate(list(joint_accs.values())),
        "synergy": synergy_test(
            clean, joint, clean_x, joint_x, victims, targets, clean_accs, joint_accs
        ),
        "audit": bound_audit(clean, joint, clean_x, joint_x),
        "skipped": {str(t): r for t, r in sorted(plan.skipped.items())},
        "extra": {"baselines": sorted(set(attackers) - {label})},
    }
    write_jsonl(out / "report.json", [report])

    lines = ["victim,attacker,clean_accuracy,perturbed_accuracy,drop"]
    for kind, row in victims_out.items():
        for name, acc in row["attackers"].items():
            lines.append(
                f"{kind},{name},{acc['clean_accuracy']:.6f},"
                f"{acc['perturbed_accuracy']:.6f},{acc['drop']:.6f}"
            )
    (out / "summary.csv").write_text("\n".join(lines) + "\n")

    inputs = (
        _dataset_inputs(cfg["clean"])
        | _dataset_inputs(cfg["perturbed"])
        | _file_inputs(*plan_paths.values())
    )
    drops = ", ".join(f"{kind}={drop:.3f}" for kind, drop in column("drop").items())
    print(f"evaluate: drops {drops} -> {out}")
    timings = {f"train_{kind}_s": round(s, 3) for kind, s in seconds.items()}
    timings["victims_wall_s"] = round(wall_s, 3)
    forms = {kind: model.operand_forms for kind, model in victims.items()}
    counters = _counters(clean_x, forms) | {"victim_workers": workers}
    extra = {"seed": cfg["seed"], "victims": list(victims), "timings": timings, "counters": counters}
    return inputs, [out / "report.json", out / "summary.csv"], extra, EXIT_OK


def _run_audit(cfg: dict, out: Path):
    from .metrics import bound_audit
    from .text_features import featurize

    _check_max_vocab(cfg)
    clean, vocab, clean_x = _load_featurized(cfg["clean"], cfg["max_vocab"])
    perturbed = load_graph(cfg["perturbed"])
    perturbed_x = featurize(perturbed.texts, vocab)
    audit = bound_audit(clean, perturbed, clean_x, perturbed_x)
    audit["perturb_ratio"] = audit["edge_ratio"]
    audit["single_flip_bound"] = 2.0 / clean.edge_count if clean.edge_count else 0.0
    audit["node_count"] = clean.node_count
    audit["edge_count_clean"] = clean.edge_count
    audit["edge_count_perturbed"] = perturbed.edge_count
    inputs = _dataset_inputs(cfg["clean"]) | _dataset_inputs(cfg["perturbed"])
    if cfg.get("report"):
        averages = read_json(cfg["report"], lambda report: [
            number(report[f"aggregates_{kind}"]["average"]) for kind in ("clean", "perturbed")
        ])
        audit["average_accuracy_clean"], audit["average_accuracy_perturbed"] = averages
        inputs |= _file_inputs(cfg["report"])
    write_jsonl(out / "audit.json", [audit])
    print(
        f"audit: delta_h_edge {audit['delta_H_edge']:+.5f}, "
        f"perturb ratio {audit['perturb_ratio']:.5f} -> {out}"
    )
    return inputs, [out / "audit.json"], {}, EXIT_OK


# ---------------------------------------------------------------------------
# command table and entry point


def _options(cls, *names):
    """Option rows of the fields of config class `cls` (those in `names`, or
    all): the kind is the annotation less its " | None", the default and the
    help are the field's."""
    return [
        (f.name, f.type.removesuffix(" | None"), f.default, f.metadata["help"])
        for f in fields(cls) if not names or f.name in names
    ]


# the surrogate encoder in attack, the victims in evaluate
_TRAINING_FLAGS = _options(EncoderConfig, "hidden", "learning_rate", "epochs", "weight_decay")
_MAX_VOCAB = ("max_vocab", "int", MAX_VOCAB, "vocabulary size cap")

_COMMANDS = {
    "synth": (_options(SynthConfig), _run_synth, "generate a synthetic text-attributed graph"),
    "attack": (
        [
            ("data", "str", _REQUIRED, "dataset directory"),
            ("backend", "str", "oracle", "attacker backend: oracle or llm"),
            *_options(LLMConfig),
            ("text_budget", "int", 12, "per-node token edit budget"),
            ("k", "int", DEFAULT_K, "influencers retrieved per target"),
            *_options(EncoderConfig, "seed"),
            _MAX_VOCAB,
            ("topology_template", "str", None, "custom topology prompt file"),
            ("text_template", "str", None, "custom text prompt file"),
            ("anchor_mismatch", "bool", False, "ablation: mis-anchor the text step"),
            ("targets", "str", None, "explicit comma-separated target node ids"),
            ("num_targets", "int", None, "sample this many targets from --target-split"),
            ("target_split", "str", "test", "split to sample targets from"),
            *_TRAINING_FLAGS,
        ],
        _run_attack,
        "plan and apply a cross-modal attack",
    ),
    "evaluate": (
        [
            ("clean", "str", _REQUIRED, "clean dataset directory"),
            ("perturbed", "str", _REQUIRED, "perturbed dataset directory"),
            ("plan", "str", _REQUIRED, "plan file from attack"),
            ("victims", "str", ",".join(VICTIM_KINDS), "comma-separated victim kinds"),
            ("attacker_label", "str", "tagsiege", "row label for the main attacker"),
            ("baseline", "list", [], "extra NAME=PLAN_PATH row (repeatable)"),
            _MAX_VOCAB,
            *_options(VictimConfig, "seed", "sgc_steps"),
            *_TRAINING_FLAGS,
        ],
        _run_evaluate,
        "train victims on the clean graph and report drops",
    ),
    "audit": (
        [
            ("clean", "str", _REQUIRED, "clean dataset directory"),
            ("perturbed", "str", _REQUIRED, "perturbed dataset directory"),
            _MAX_VOCAB,
            ("report", "str", None, "report.json to pull accuracy aggregates from"),
        ],
        _run_audit,
        "stealth audit: edit counts and homophily deltas",
    ),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tagsiege",
        description="black-box cross-modal attacks on text-attributed graphs",
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (spec, _, help_text) in _COMMANDS.items():
        cmd = sub.add_parser(command, help=help_text, description=help_text)
        cmd.add_argument("--out", required=True, help="output directory")
        cmd.add_argument("--config", help="flat key=value config file")
        _add_flags(cmd, spec)
    replay = sub.add_parser(
        "replay",
        help="re-run a recorded command bit-identically",
        description="re-run the command recorded in a manifest",
    )
    replay.add_argument("manifest", help="manifest.json from a previous run")
    replay.add_argument("--out", required=True, help="output directory")
    return parser


def _check_recorded(name: str, kind: str, default, value) -> None:
    """ConfigurationError unless a manifest's `value` for option `name` passes
    the `records` rule of its kind: an integer, a finite number, a string, a
    boolean or a list of strings. Options whose default is None may also
    hold null."""
    if value is None and default is None:
        return
    try:
        if kind == "int":
            integer(value)
        elif kind == "float":
            number(value)
        elif kind == "list":
            for item in typed(value, list):
                typed(item, str)
        else:
            typed(value, bool if kind == "bool" else str)
    except TypeError as exc:
        raise ConfigurationError(f"manifest config {name}: {exc}") from None


def _remove_stale(out: Path, command: str, written: list[Path]) -> None:
    """Delete the files that an earlier manifest of `command` in `out` lists
    and this run did not write, with the directories that leaves empty. Only
    paths that resolve inside `out` go; another command's files stay, since
    `attack --out` may be the dataset directory it reads."""
    try:
        earlier = json.loads((out / "manifest.json").read_text())
        listed = set(typed(earlier["outputs"], dict)) if earlier["command"] == command else set()
    except (OSError, ValueError, KeyError, TypeError):
        return
    root = out.resolve()
    for name in listed - {str(f.relative_to(out)) for f in written}:
        path = (out / name).resolve()
        if path.is_relative_to(root) and path.is_file():
            path.unlink()
            for parent in path.parents:
                if parent == root or any(parent.iterdir()):
                    break
                parent.rmdir()


def _run(command: str, config: dict, out: str) -> int:
    """Run `command` on its resolved `config` into `out`, remove what an
    earlier run of it left there (`_remove_stale`), then record the manifest;
    `main` and `replay` both run a command through here."""
    root = Path(out)
    inputs, written, extra, code = _COMMANDS[command][1](config, root)
    _remove_stale(root, command, written)
    _write_manifest(root, command, config, inputs, written, extra)
    return code


def _cmd_replay(args: argparse.Namespace) -> int:
    command, inputs, config = read_json(args.manifest, lambda manifest: (
        typed(manifest["command"], str),
        typed(manifest.get("inputs", {}), dict),
        typed(manifest["config"], dict),
    ))
    if command not in _COMMANDS:
        raise ConfigurationError(f"manifest names unknown command {command!r}")
    spec = _COMMANDS[command][0]
    missing = [name for name, _, _, _ in spec if name not in config]
    if missing:
        raise ConfigurationError(f"manifest config lacks keys: {', '.join(missing)}")
    for name, kind, default, _ in spec:
        _check_recorded(name, kind, default, config[name])
    for path, digest in inputs.items():
        if not Path(path).exists():
            raise ConfigurationError(f"replay input missing: {path}")
        if _sha256_file(Path(path)) != digest:
            raise ConfigurationError(f"replay input changed since recording: {path}")
    dropped = ", ".join(sorted(set(config) - {name for name, *_ in spec}))
    if dropped:
        print(f"warning: replay drops unknown config keys: {dropped}", file=sys.stderr)
    return _run(command, {name: config[name] for name, *_ in spec}, args.out)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "replay":
            return _cmd_replay(args)
        spec = _COMMANDS[args.command][0]
        return _run(args.command, _resolve_options(spec, args), args.out)
    except TrainingError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_TRAINING
    except (TagSiegeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
