"""End-to-end checks of the command-line harness.

Commands run in-process through cli.main() so exit codes and written files
can be asserted directly; one subprocess smoke test covers `python -m`.
"""

import json
import shutil
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import pytest

from tagsiege import cli, encoder, victims
from tagsiege.backends import LLMConfig
from tagsiege.baselines import rnd_attack
from tagsiege.cli import main
from tagsiege.encoder import EncoderConfig
from tagsiege.graph import load_graph
from tagsiege.plan import Budgets, load_plan, save_plan
from tagsiege.synth import SynthConfig
from tagsiege.text_features import build_vocabulary, featurize

SYNTH_FLAGS = ["--node-count", "120", "--class-count", "4", "--seed", "0"]


def read_manifest(out_dir: Path) -> dict:
    return json.loads((out_dir / "manifest.json").read_text())


def file_bytes(root: Path, names) -> dict[str, bytes]:
    return {n: (root / n).read_bytes() for n in names}


@pytest.fixture(scope="module")
def data_dir(tmp_path_factory) -> Path:
    out = tmp_path_factory.mktemp("dataset")
    assert main(["synth", "--out", str(out), *SYNTH_FLAGS]) == 0
    return out


@pytest.fixture(scope="module")
def attack_run(tmp_path_factory, data_dir) -> Path:
    out = tmp_path_factory.mktemp("attack")
    code = main(
        [
            "attack",
            "--data", str(data_dir),
            "--out", str(out),
            "--num-targets", "8",
            "--seed", "1",
        ]
    )
    assert code == 0
    return out


def test_synth_writes_dataset_and_manifest(data_dir):
    assert (data_dir / "nodes.jsonl").exists()
    assert (data_dir / "edges.csv").exists()
    manifest = read_manifest(data_dir)
    assert manifest["command"] == "synth"
    assert manifest["summary"]["node_count"] == 120
    assert set(manifest["outputs"]) == {"nodes.jsonl", "edges.csv"}


def test_synth_same_seed_same_bytes(tmp_path, data_dir):
    out = tmp_path / "again"
    assert main(["synth", "--out", str(out), *SYNTH_FLAGS]) == 0
    for name in ("nodes.jsonl", "edges.csv"):
        assert (out / name).read_bytes() == (data_dir / name).read_bytes()


def test_unknown_flag_exits_two():
    with pytest.raises(SystemExit) as exc:
        main(["synth", "--out", "x", "--no-such-flag"])
    assert exc.value.code == 2


def test_evaluate_help_does_not_call_the_victim_training_flags_encoder_flags(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["evaluate", "--help"])
    assert exc.value.code == 0
    text = capsys.readouterr().out
    for flag in ("--hidden", "--learning-rate", "--epochs", "--weight-decay"):
        assert flag in text
    assert "encoder" not in text.lower()


def test_infeasible_synth_config_exits_two(tmp_path):
    code = main(
        ["synth", "--out", str(tmp_path / "bad"), "--p-in", "0.001", "--p-out", "0.5"]
    )
    assert code == 2


def test_unknown_config_file_key_exits_two(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("bogus_option=1\n")
    code = main(["synth", "--out", str(tmp_path / "o"), "--config", str(cfg)])
    assert code == 2


def test_config_file_precedence(tmp_path, data_dir):
    cfg = tmp_path / "attack.cfg"
    cfg.write_text("# comment line\nseed=7\nnum_targets=3\n")
    out = tmp_path / "run"
    code = main(
        [
            "attack",
            "--data", str(data_dir),
            "--out", str(out),
            "--config", str(cfg),
            "--seed", "1",
        ]
    )
    assert code == 0
    manifest = read_manifest(out)
    # CLI flag beats the file; the file beats the default
    assert manifest["config"]["seed"] == 1
    assert manifest["config"]["num_targets"] == 3


def test_edge_budget_flag_and_config_key_are_rejected(tmp_path, capsys, data_dir):
    # each target's structural edit is one deletion plus one insertion; no
    # option sets an edge budget
    attack = ["attack", "--data", str(data_dir), "--num-targets", "2"]
    with pytest.raises(SystemExit) as exc:
        main([*attack, "--out", str(tmp_path / "flag"), "--edge-budget", "2"])
    assert exc.value.code == 2
    cfg = tmp_path / "attack.cfg"
    cfg.write_text("edge_budget=2\n")
    capsys.readouterr()
    assert main([*attack, "--out", str(tmp_path / "cfg"), "--config", str(cfg)]) == 2
    assert capsys.readouterr().err == "error: unknown config keys: edge_budget\n"


def attack_untrained(monkeypatch, capsys, out: Path, data_dir, *flags) -> tuple[int, str]:
    """(exit code, stderr) of a two-target attack whose encoder must not train."""
    def no_training(*args):
        raise AssertionError("the encoder trained")

    monkeypatch.setattr(encoder, "train_encoder", no_training)
    capsys.readouterr()
    code = main([
        "attack", "--data", str(data_dir), "--out", str(out), "--num-targets", "2", *flags,
    ])
    return code, capsys.readouterr().err


def test_zero_text_budget_exits_two_before_any_query(tmp_path, capsys, monkeypatch, data_dir):
    # the budget is checked before the surrogate encoder trains
    out = tmp_path / "o"
    code, err = attack_untrained(monkeypatch, capsys, out, data_dir, "--text-budget", "0")
    assert code == 2
    assert "text budget must allow at least one token edit" in err
    assert not (out / "plan.jsonl").exists()
    assert not (out / "manifest.json").exists()


@pytest.mark.parametrize("flags, message", [
    (["--k", "0"], "k must be >= 1"),
    (["--backend", "nope"], "unknown backend kind 'nope'"),
    (["--text-template", "{template}"], "text template missing placeholders: ['influencer_text']"),
    (["--backend", "llm", "--max-attempts", "0"], "max_attempts must be >= 1"),
    (["--backend", "llm", "--timeout", "0"], "timeout must be > 0 seconds"),
], ids=["k-0", "unknown-backend", "template-missing-placeholder", "llm-max-attempts-0",
        "llm-timeout-0"])
def test_attack_config_errors_exit_two_before_the_encoder_trains(
    tmp_path, capsys, monkeypatch, data_dir, flags, message
):
    monkeypatch.setenv("TAGSIEGE_API_KEY", "unused")
    template = tmp_path / "text.txt"
    template.write_text("Rewrite {target_text}.\n")
    out = tmp_path / "o"
    flags = [flag.format(template=template) for flag in flags]
    code, err = attack_untrained(monkeypatch, capsys, out, data_dir, *flags)
    assert (code, err) == (2, f"error: {message}\n")
    assert not (out / "plan.jsonl").exists()


def test_missing_required_option_exits_two(tmp_path):
    assert main(["attack", "--out", str(tmp_path / "o"), "--num-targets", "2"]) == 2


def test_attack_artifacts_and_query_accounting(attack_run):
    manifest = read_manifest(attack_run)
    assert manifest["completed"] == 8
    assert manifest["query_count"] == 16
    assert manifest["skipped"] == {}
    assert manifest["backend_kind"] == "oracle"
    assert "cost_estimate_usd" not in manifest
    assert (attack_run / "plan.jsonl").exists()
    assert (attack_run / "perturbed" / "nodes.jsonl").exists()
    assert (attack_run / "perturbed" / "edges.csv").exists()


def test_manifests_record_feature_sparsity_and_operand_forms(tmp_path, data_dir, attack_run):
    graph = load_graph(data_dir)
    X = featurize(graph.texts, build_vocabulary(graph))
    out = tmp_path / "eval"
    assert main([
        "evaluate", "--clean", str(data_dir), "--perturbed", str(attack_run / "perturbed"),
        "--plan", str(attack_run / "plan.jsonl"), "--out", str(out), "--seed", "1",
    ]) == 0
    expected_operands = {
        attack_run: {"encoder": {"u"}},
        out: {"gcn": {"u"}, "sgc": {"propagated"}, "sage_mean": {"x", "x_nbr"}},
    }
    for run, operands in expected_operands.items():
        counters = read_manifest(run)["counters"]
        assert counters["features_nnz"] == X.nnz
        assert counters["features_density"] == X.nnz / (X.shape[0] * X.shape[1])
        forms = counters["operand_forms"]
        assert {model: set(f) for model, f in forms.items()} == operands
        assert {form for f in forms.values() for form in f.values()} <= {"csr", "dense"}
    # the raw features are themselves a training operand of the SAGE victim
    x_form = "csr" if X.nnz <= 0.1 * X.shape[0] * X.shape[1] else "dense"
    assert read_manifest(out)["counters"]["operand_forms"]["sage_mean"]["x"] == x_form


def test_attack_conflicting_target_flags_exit_two(tmp_path, capsys, data_dir):
    capsys.readouterr()
    code = main(
        [
            "attack",
            "--data", str(data_dir),
            "--out", str(tmp_path / "o"),
            "--targets", "1,2",
            "--num-targets", "2",
        ]
    )
    assert code == 2
    assert capsys.readouterr().err == "error: pass either --targets or --num-targets, not both\n"


def test_attack_without_target_flags_exits_two(tmp_path, capsys, data_dir):
    capsys.readouterr()
    assert main(["attack", "--data", str(data_dir), "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err == "error: attack needs --targets or --num-targets\n"


def test_attack_explicit_targets(tmp_path, data_dir):
    out = tmp_path / "explicit"
    code = main(
        ["attack", "--data", str(data_dir), "--out", str(out), "--targets", "5,3,5"]
    )
    assert code == 0
    manifest = read_manifest(out)
    assert manifest["targets"] == [3, 5]
    assert manifest["query_count"] == 4


def test_attack_replay_is_byte_identical(tmp_path, attack_run):
    out = tmp_path / "replayed"
    code = main(["replay", str(attack_run / "manifest.json"), "--out", str(out)])
    assert code == 0
    names = ["plan.jsonl", "perturbed/nodes.jsonl", "perturbed/edges.csv"]
    assert file_bytes(out, names) == file_bytes(attack_run, names)


@pytest.mark.parametrize("key, value", [("edge_budget", 2), ("allow_partial", False)])
def test_attack_manifest_recording_a_removed_option_still_replays(
    tmp_path, capsys, attack_run, key, value
):
    # attack manifests written while `--edge-budget` or `--allow-partial`
    # existed record its key in their config; replay drops the extra key,
    # says so, and records the config that ran
    manifest = read_manifest(attack_run)
    manifest["config"][key] = value
    old = tmp_path / "manifest.json"
    old.write_text(json.dumps(manifest))
    out = tmp_path / "replayed"
    capsys.readouterr()
    assert main(["replay", str(old), "--out", str(out)]) == 0
    names = ["plan.jsonl", "perturbed/nodes.jsonl", "perturbed/edges.csv"]
    assert file_bytes(out, names) == file_bytes(attack_run, names)
    warnings = [line for line in capsys.readouterr().err.splitlines() if "warning" in line]
    assert warnings == [f"warning: replay drops unknown config keys: {key}"]
    replayed = read_manifest(out)
    assert key not in replayed["config"]
    assert replayed["config_sha256"] == read_manifest(attack_run)["config_sha256"]


def test_replay_detects_changed_input(tmp_path, data_dir, attack_run):
    manifest = json.loads((attack_run / "manifest.json").read_text())
    tampered = dict(manifest)
    tampered["inputs"] = {
        path: digest[::-1] for path, digest in manifest["inputs"].items()
    }
    bad = tmp_path / "tampered.json"
    bad.write_text(json.dumps(tampered))
    assert main(["replay", str(bad), "--out", str(tmp_path / "o")]) == 2


def assert_replay_refuses_changed_input(tmp_path, capsys, run: Path, changed: Path) -> None:
    """Overwrite `changed`, an input of `run`; replaying `run` must exit 2."""
    changed.write_text(changed.read_text() + "\n")
    capsys.readouterr()
    assert main(["replay", str(run / "manifest.json"), "--out", str(tmp_path / "again")]) == 2
    assert capsys.readouterr().err == f"error: replay input changed since recording: {changed}\n"


def test_replay_detects_a_changed_baseline_plan(tmp_path, capsys, data_dir, attack_run):
    baseline = tmp_path / "rnd.jsonl"
    save_plan(rnd_attack(load_graph(data_dir), [0, 1], Budgets.for_targets(2), seed=0), baseline)
    out = tmp_path / "eval"
    assert main([
        "evaluate", "--clean", str(data_dir), "--perturbed", str(attack_run / "perturbed"),
        "--plan", str(attack_run / "plan.jsonl"), "--out", str(out),
        "--baseline", f"rnd={baseline}", "--victims", "sgc",
    ]) == 0
    assert str(baseline) in read_manifest(out)["inputs"]
    assert_replay_refuses_changed_input(tmp_path, capsys, out, baseline)


def test_replay_detects_a_changed_template(tmp_path, capsys, data_dir):
    template = tmp_path / "text.txt"
    template.write_text("Rewrite {target_text} toward {influencer_text}.\n")
    out = tmp_path / "atk"
    assert main([
        "attack", "--data", str(data_dir), "--out", str(out), "--targets", "3",
        "--text-template", str(template), "--epochs", "2",
    ]) == 0
    assert str(template) in read_manifest(out)["inputs"]
    assert_replay_refuses_changed_input(tmp_path, capsys, out, template)


@pytest.mark.parametrize("key, value", [
    ("node_count", "forty"), ("node_count", 40.0), ("node_count", True),
    ("p_in", "0.05"), ("seed", None),
])
def test_replay_rejects_a_wrongly_typed_config_value(tmp_path, capsys, data_dir, key, value):
    manifest = read_manifest(data_dir)
    manifest["config"][key] = value
    bad = tmp_path / "manifest.json"
    bad.write_text(json.dumps(manifest))
    assert main(["replay", str(bad), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: manifest config {key}: expected ")
    assert not (tmp_path / "o" / "nodes.jsonl").exists()


def test_evaluate_report_and_summary(tmp_path, data_dir, attack_run):
    out = tmp_path / "eval"
    code = main(
        [
            "evaluate",
            "--clean", str(data_dir),
            "--perturbed", str(attack_run / "perturbed"),
            "--plan", str(attack_run / "plan.jsonl"),
            "--out", str(out),
            "--seed", "1",
        ]
    )
    assert code == 0
    report = json.loads((out / "report.json").read_text())
    assert report["attacker"] == "tagsiege"
    assert len(report["targets"]) == 8
    assert report["query_count"] == 16
    assert set(report["victims"]) == {"gcn", "sgc", "sage_mean"}
    for kind in report["victims"]:
        row = report["victims"][kind]["attackers"]["tagsiege"]
        assert 0.0 <= row["perturbed_accuracy"] <= row["clean_accuracy"] <= 1.0
        assert kind in report["synergy"]
    assert "delta_H_edge" in report["audit"]
    lines = (out / "summary.csv").read_text().splitlines()
    assert lines[0] == "victim,attacker,clean_accuracy,perturbed_accuracy,drop"
    assert len(lines) == 1 + 3  # one row per (victim, attacker)


@pytest.mark.parametrize("case", ["clean-as-perturbed", "other-seed-plan"])
def test_evaluate_rejects_a_perturbed_graph_its_plan_does_not_make(
    tmp_path, capsys, data_dir, attack_run, case
):
    if case == "clean-as-perturbed":
        perturbed, plan = data_dir, attack_run / "plan.jsonl"
    else:
        other = tmp_path / "other-attack"
        assert main([
            "attack", "--data", str(data_dir), "--out", str(other),
            "--num-targets", "8", "--seed", "2",
        ]) == 0
        perturbed, plan = attack_run / "perturbed", other / "plan.jsonl"
    capsys.readouterr()
    out = tmp_path / "eval"
    code = main([
        "evaluate", "--clean", str(data_dir), "--perturbed", str(perturbed),
        "--plan", str(plan), "--out", str(out),
    ])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: --perturbed ")
    for path in (perturbed, plan, data_dir):
        assert str(path) in err
    assert not (out / "report.json").exists()


def test_evaluate_rejects_a_baseline_named_like_another_row(tmp_path, capsys, data_dir, attack_run):
    plan = str(attack_run / "plan.jsonl")
    code = main([
        "evaluate", "--clean", str(data_dir), "--perturbed", str(attack_run / "perturbed"),
        "--plan", plan, "--baseline", f"tagsiege={plan}", "--out", str(tmp_path / "o"),
    ])
    assert code == 2
    assert capsys.readouterr().err == "error: attacker row 'tagsiege' is named twice\n"


def test_evaluate_rejects_a_baseline_plan_that_also_skips_a_planned_target(
    tmp_path, capsys, data_dir, attack_run
):
    lines = (attack_run / "plan.jsonl").read_text().splitlines()
    target = json.loads(lines[0])["target"]
    both = tmp_path / "both.jsonl"
    both.write_text("\n".join([*lines, json.dumps({"target": target, "skipped": "down"})]) + "\n")
    capsys.readouterr()
    out = tmp_path / "o"
    code = main([
        "evaluate", "--clean", str(data_dir), "--perturbed", str(attack_run / "perturbed"),
        "--plan", str(attack_run / "plan.jsonl"), "--baseline", f"both={both}", "--out", str(out),
    ])
    assert code == 2
    assert capsys.readouterr().err == (
        f"error: {both}:{len(lines) + 1}: target {target} is already in the plan\n"
    )
    assert not (out / "report.json").exists()


def test_audit_identical_inputs_zero_deltas(tmp_path, data_dir):
    out = tmp_path / "selfaudit"
    code = main([
        "audit", "--clean", str(data_dir), "--perturbed", str(data_dir), "--out", str(out),
    ])
    assert code == 0
    audit = json.loads((out / "audit.json").read_text())
    assert audit["delta_H_edge"] == 0.0
    assert audit["edge_edits"] == 0.0


def test_evaluate_synergy_joint_is_the_attacker_row(tmp_path, monkeypatch):
    """On the README quickstart, the synergy table's joint drop is the main
    attacker's drop, and each victim predicts once on validation, once clean,
    once per attacker row and once per single-modality half."""
    data, atk = tmp_path / "data", tmp_path / "atk"
    assert main(["synth", "--out", str(data), "--seed", "0"]) == 0
    assert main([
        "attack", "--out", str(atk), "--data", str(data), "--num-targets", "30", "--seed", "1",
    ]) == 0
    clean = load_graph(data)
    targets = load_plan(atk / "plan.jsonl").targets()
    rnd = tmp_path / "rnd.jsonl"
    save_plan(rnd_attack(clean, targets, Budgets.for_targets(len(targets)), seed=4), rnd)

    calls = []
    predict = victims.predict

    def counting(model, graph, features):
        calls.append(model.kind)
        return predict(model, graph, features)

    monkeypatch.setattr(victims, "predict", counting)
    out = tmp_path / "eval"
    assert main([
        "evaluate", "--out", str(out), "--clean", str(data),
        "--perturbed", str(atk / "perturbed"), "--plan", str(atk / "plan.jsonl"),
        "--baseline", f"rnd={rnd}",
    ]) == 0
    report = json.loads((out / "report.json").read_text())
    assert set(report["synergy"]) == set(victims.VICTIM_KINDS)
    for kind, row in report["synergy"].items():
        assert row["drop_joint"] == report["victims"][kind]["attackers"]["tagsiege"]["drop"]
        assert calls.count(kind) == 1 + 1 + 2 + 2


def test_evaluate_baseline_rows(tmp_path, data_dir, attack_run):
    out = tmp_path / "eval_base"
    code = main(
        [
            "evaluate",
            "--clean", str(data_dir),
            "--perturbed", str(attack_run / "perturbed"),
            "--plan", str(attack_run / "plan.jsonl"),
            "--out", str(out),
            "--baseline", f"ours_again={attack_run / 'plan.jsonl'}",
        ]
    )
    assert code == 0
    report = json.loads((out / "report.json").read_text())
    assert report["extra"]["baselines"] == ["ours_again"]
    lines = (out / "summary.csv").read_text().splitlines()
    assert len(lines) == 1 + 3 * 2
    for kind in report["victims"]:
        rows = report["victims"][kind]["attackers"]
        # re-applying the same plan must reproduce the main attacker's row
        assert rows["ours_again"] == rows["tagsiege"]


def test_evaluate_replay_reproduces_report(tmp_path, data_dir, attack_run):
    first = tmp_path / "eval1"
    code = main(
        [
            "evaluate",
            "--clean", str(data_dir),
            "--perturbed", str(attack_run / "perturbed"),
            "--plan", str(attack_run / "plan.jsonl"),
            "--out", str(first),
            "--seed", "3",
        ]
    )
    assert code == 0
    second = tmp_path / "eval2"
    assert main(["replay", str(first / "manifest.json"), "--out", str(second)]) == 0
    names = ["report.json", "summary.csv"]
    assert file_bytes(second, names) == file_bytes(first, names)


def test_audit_outputs(tmp_path, data_dir, attack_run):
    out = tmp_path / "audit"
    code = main(
        [
            "audit",
            "--clean", str(data_dir),
            "--perturbed", str(attack_run / "perturbed"),
            "--out", str(out),
        ]
    )
    assert code == 0
    audit = json.loads((out / "audit.json").read_text())
    assert audit["perturb_ratio"] == audit["edge_ratio"]
    assert audit["single_flip_bound"] == pytest.approx(2 / audit["edge_count_clean"])
    # distinct plan edits (two targets may pick the same edge, counted once)
    deletes, inserts = set(), set()
    for line in (attack_run / "plan.jsonl").read_text().splitlines():
        entry = json.loads(line)
        if "skipped" in entry or entry.get("target") is None:
            continue
        if entry["delete_neighbor"] is not None:
            deletes.add(frozenset((entry["target"], entry["delete_neighbor"])))
        inserts.add(frozenset((entry["target"], entry["add_influencer"])))
    assert audit["edge_edits"] == float(len(deletes) + len(inserts - deletes))


def test_audit_node_count_mismatch_exits_two(tmp_path, data_dir):
    other = tmp_path / "other"
    assert main(["synth", "--out", str(other), "--node-count", "60"]) == 0
    assert (
        main(
            [
                "audit",
                "--clean", str(data_dir),
                "--perturbed", str(other),
                "--out", str(tmp_path / "o"),
            ]
        )
        == 2
    )


@pytest.mark.parametrize("case", [
    "evaluate-plan", "evaluate-plan-non-integer", "replay-manifest",
    "audit-report-malformed", "audit-report-incomplete",
    "audit-report-string-average", "audit-report-bool-average",
    "audit-report-nan-average", "audit-report-infinity-average",
    "audit-report-negative-infinity-average",
])
def test_malformed_input_file_exits_two(tmp_path, capsys, data_dir, attack_run, case):
    bad = tmp_path / "bad.json"
    perturbed = str(attack_run / "perturbed")
    if case.startswith("evaluate-plan"):
        extra = ('{"target":2.9,"add_influencer":true,"delete_neighbor":null}'
                 if case.endswith("non-integer") else "5")
        bad.write_text((attack_run / "plan.jsonl").read_text() + extra + "\n")
        argv = ["evaluate", "--clean", str(data_dir), "--perturbed", perturbed,
                "--plan", str(bad)]
    elif case == "replay-manifest":
        bad.write_text('{"command": "synth",')
        argv = ["replay", str(bad)]
    else:
        bad.write_text({
            "audit-report-malformed": '{"aggregates_clean": ',
            "audit-report-incomplete": '{"aggregates_clean": {"average": 0.5}}',
            "audit-report-string-average": '{"aggregates_clean": {"average": "0.75"}, '
                                           '"aggregates_perturbed": {"average": 0.5}}',
            "audit-report-bool-average": '{"aggregates_clean": {"average": 0.75}, '
                                         '"aggregates_perturbed": {"average": true}}',
            # Python's json reads NaN and Infinity; the report reader must not
            "audit-report-nan-average": '{"aggregates_clean": {"average": NaN}, '
                                        '"aggregates_perturbed": {"average": 0.5}}',
            "audit-report-infinity-average": '{"aggregates_clean": {"average": 0.75}, '
                                             '"aggregates_perturbed": {"average": Infinity}}',
            "audit-report-negative-infinity-average":
                '{"aggregates_clean": {"average": -Infinity}, '
                '"aggregates_perturbed": {"average": 0.5}}',
        }[case])
        argv = ["audit", "--clean", str(data_dir), "--perturbed", perturbed, "--report", str(bad)]
    assert main([*argv, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {bad}:")
    if case.endswith("-average"):
        assert err.startswith(f"error: {bad}:0: bad record: expected a finite number")


@pytest.mark.parametrize("command", ["encode", "retrieve"])
def test_a_retired_command_is_an_invalid_choice(tmp_path, capsys, data_dir, command):
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        main([command, "--data", str(data_dir), "--out", str(tmp_path / "o")])
    assert exc.value.code == 2
    assert f"invalid choice: {command!r}" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_help_lists_exactly_the_pipeline_commands_and_replay(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    assert "{synth,attack,evaluate,audit,replay}" in capsys.readouterr().out
    assert list(cli._COMMANDS) == ["synth", "attack", "evaluate", "audit"]


def test_library_encode_and_retrieve_all_give_k_influencers_per_target(data_dir):
    # the introspection the retired encode/retrieve commands dumped to files
    from tagsiege.retrieval import retrieve_all

    graph = load_graph(data_dir)
    X = featurize(graph.texts, build_vocabulary(graph))
    trained = encoder.train_encoder(graph, X, EncoderConfig(hidden=16, epochs=50, seed=1))
    Z = encoder.encode(trained, graph, X)
    assert Z.shape == (graph.node_count, 16)
    sets = retrieve_all(Z, [0, 1, 2], k=4)
    assert list(sets) == [0, 1, 2]
    for target, found in sets.items():
        assert len(found.candidates) == 4
        assert target not in found.candidates


def test_llm_backend_without_key_exits_two(tmp_path, capsys, data_dir, monkeypatch):
    # the key is checked before the surrogate encoder trains
    monkeypatch.delenv("TAGSIEGE_API_KEY", raising=False)
    out = tmp_path / "o"
    code, err = attack_untrained(monkeypatch, capsys, out, data_dir, "--backend", "llm")
    assert (code, err) == (2, "error: TAGSIEGE_API_KEY is not set\n")
    assert not (out / "plan.jsonl").exists()


def test_llm_unreachable_endpoint_exits_three(tmp_path, data_dir, monkeypatch):
    monkeypatch.setenv("TAGSIEGE_API_KEY", "dummy")
    out = tmp_path / "dead"
    code = main(
        [
            "attack",
            "--data", str(data_dir),
            "--out", str(out),
            "--num-targets", "2",
            "--backend", "llm",
            "--base-url", "http://127.0.0.1:9",
            "--timeout", "1",
            "--max-attempts", "1",
        ]
    )
    assert code == 3
    manifest = read_manifest(out)
    assert manifest["completed"] == 0
    assert manifest["query_count"] == 0
    assert len(manifest["skipped"]) == 2
    assert manifest["error"].startswith("all 2 targets failed; first reason: ")
    assert "cost_estimate_usd" not in manifest
    # each target's one topology exchange failed
    assert manifest["counters"]["transport_errors"] == 2
    plan = load_plan(out / "plan.jsonl")
    assert plan.entries == {}
    assert {str(t): r for t, r in plan.skipped.items()} == manifest["skipped"]
    assert not (out / "perturbed").exists()  # a plan with no entries perturbs nothing


def test_a_manifest_lists_only_the_files_its_own_run_wrote(tmp_path, attack_run, monkeypatch):
    out = tmp_path / "atk"
    shutil.copytree(attack_run, out)  # a completed attack's plan and perturbed/
    monkeypatch.setenv("TAGSIEGE_API_KEY", "dummy")
    data = read_manifest(attack_run)["config"]["data"]
    code = main(["attack", "--data", data, "--out", str(out), "--num-targets", "2",
                 "--epochs", "2", "--backend", "llm", "--base-url", "http://127.0.0.1:9",
                 "--timeout", "1", "--max-attempts", "1"])
    assert code == 3
    # the earlier run's perturbed dataset is gone with its emptied directory
    assert not (out / "perturbed").exists()
    assert set(read_manifest(out)["outputs"]) == {"plan.jsonl"}
    assert sorted(p.name for p in out.iterdir()) == ["manifest.json", "plan.jsonl"]


def test_a_run_removes_only_its_own_commands_stale_files_inside_out(tmp_path, data_dir):
    # attack into the dataset directory it reads: synth's files stay
    data = tmp_path / "data"
    shutil.copytree(data_dir, data)
    assert main(["attack", "--data", str(data), "--out", str(data), "--num-targets", "2",
                 "--epochs", "2"]) == 0
    assert {"nodes.jsonl", "edges.csv"} <= {p.name for p in data.iterdir()}
    # an earlier manifest of the same command that lists paths outside --out
    # (or a symlink leading out of it) removes none of them
    outside = tmp_path / "outside.txt"
    outside.write_text("keep")
    (data / "link.txt").symlink_to(outside)
    manifest = read_manifest(data)
    manifest["outputs"] |= {"../outside.txt": "", str(outside): "", "link.txt": ""}
    (data / "manifest.json").write_text(json.dumps(manifest))
    assert main(["attack", "--data", str(data), "--out", str(data), "--num-targets", "2",
                 "--epochs", "2"]) == 0
    assert outside.read_text() == "keep"
    assert (data / "nodes.jsonl").exists() and (data / "plan.jsonl").exists()


def test_replaying_a_synth_manifest_that_records_test_frac_drops_it(
    tmp_path, capsys, data_dir
):
    manifest = read_manifest(data_dir)
    manifest["config"]["test_frac"] = 0.2
    old = tmp_path / "manifest.json"
    old.write_text(json.dumps(manifest))
    capsys.readouterr()
    out = tmp_path / "again"
    assert main(["replay", str(old), "--out", str(out)]) == 0
    assert "warning: replay drops unknown config keys: test_frac\n" in capsys.readouterr().err
    assert "test_frac" not in read_manifest(out)["config"]
    names = ("nodes.jsonl", "edges.csv")
    assert file_bytes(out, names) == file_bytes(data_dir, names)


def test_module_entry_point_smoke():
    proc = subprocess.run(
        [sys.executable, "-m", "tagsiege", "--version"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "tagsiege" in proc.stdout


def refuse_dataset_reads(monkeypatch) -> None:
    """Make reading a dataset or training the surrogate fail the test."""
    def no_reads(*args):
        raise AssertionError("a dataset was read")

    monkeypatch.setattr(cli, "load_graph", no_reads)
    monkeypatch.setattr(cli, "_sha256_file", no_reads)
    monkeypatch.setattr(encoder, "train_encoder", no_reads)


@pytest.mark.parametrize("argv", [
    ["attack", "--num-targets", "2", "--learning-rate", "nan"],
    ["attack", "--num-targets", "2", "--weight-decay", "inf"],
    ["attack", "--num-targets", "2", "--temperature", "1e999"],
    ["evaluate", "--perturbed", "p", "--plan", "p.jsonl", "--learning-rate", "NaN"],
], ids=["attack-learning-rate-nan", "attack-weight-decay-inf", "attack-temperature-overflow",
        "evaluate-learning-rate-nan"])
def test_a_non_finite_float_flag_exits_two_at_parsing(tmp_path, capsys, monkeypatch, argv):
    refuse_dataset_reads(monkeypatch)
    data = "--data" if argv[0] == "attack" else "--clean"
    with pytest.raises(SystemExit) as exc:
        main([*argv, data, str(tmp_path / "none"), "--out", str(tmp_path / "o")])
    assert exc.value.code == 2
    flag, value = argv[-2:]
    assert f"argument {flag}: expected a finite number, got {value!r}" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_a_non_finite_float_in_a_config_file_exits_two_before_reading(
    tmp_path, capsys, monkeypatch
):
    refuse_dataset_reads(monkeypatch)
    cfg = tmp_path / "attack.cfg"
    cfg.write_text("num_targets=2\nlearning_rate=nan\n")
    out = tmp_path / "o"
    code = main(["attack", "--data", str(tmp_path / "none"), "--out", str(out),
                 "--config", str(cfg)])
    assert code == 2
    assert capsys.readouterr().err == (
        "error: config option learning_rate: expected a finite number, got 'nan'\n"
    )
    assert not (out / "plan.jsonl").exists()


@pytest.mark.parametrize("key, value", [("learning_rate", float("nan")), ("weight_decay", float("inf"))])
def test_a_recorded_non_finite_value_exits_two_before_reading(
    tmp_path, capsys, monkeypatch, attack_run, key, value
):
    manifest = read_manifest(attack_run)
    manifest["config"][key] = value
    bad = tmp_path / "manifest.json"
    bad.write_text(json.dumps(manifest))  # Python's json writes NaN and Infinity
    refuse_dataset_reads(monkeypatch)
    capsys.readouterr()
    out = tmp_path / "o"
    assert main(["replay", str(bad), "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        f"error: manifest config {key}: expected a finite number, got float {value!r}\n"
    )
    assert not (out / "plan.jsonl").exists()


@pytest.mark.parametrize("argv, message", [
    (["attack", "--data", "{none}", "--num-targets", "2", "--hidden", "0"],
     "hidden width must be >= 1"),
    (["attack", "--data", "{none}", "--num-targets", "2", "--epochs", "0"],
     "epochs must be >= 1"),
    (["attack", "--data", "{none}", "--num-targets", "2", "--learning-rate", "0"],
     "learning rate must be positive"),
    (["attack", "--data", "{none}", "--num-targets", "2", "--weight-decay", "-1"],
     "weight decay must be >= 0"),
    (["attack", "--data", "{none}", "--num-targets", "2", "--max-vocab", "0"],
     "vocabulary max_size must be >= 1"),
    (["evaluate", "--clean", "{none}", "--epochs", "0"], "epochs must be >= 1"),
    (["evaluate", "--clean", "{none}", "--sgc-steps", "0"], "sgc_steps must be >= 1"),
    (["evaluate", "--clean", "{none}", "--victims", "nope"],
     "unknown victim 'nope'; choose from gcn, sgc, sage_mean"),
    (["evaluate", "--clean", "{none}", "--baseline", "bad"],
     "baseline must look like NAME=PLAN_PATH, got 'bad'"),
    (["evaluate", "--clean", "{none}", "--max-vocab", "0"], "vocabulary max_size must be >= 1"),
    (["audit", "--clean", "{none}", "--max-vocab", "0"], "vocabulary max_size must be >= 1"),
    (["attack", "--data", "{none}"], "attack needs --targets or --num-targets"),
    (["attack", "--data", "{none}", "--targets", "1,2", "--num-targets", "2"],
     "pass either --targets or --num-targets, not both"),
    (["attack", "--data", "{none}", "--targets", "1,x"],
     "targets must be comma-separated integers, got '1,x'"),
    (["attack", "--data", "{none}", "--num-targets", "0"], "--num-targets must be >= 1, got 0"),
    (["attack", "--data", "{none}", "--targets", "5", "--target-split", "nope"],
     "unknown --target-split 'nope'; choose from train, val, test"),
    (["attack", "--data", "{none}", "--num-targets", "2", "--backend", "llm",
      "--base-url", "localhost:8000/v1"],
     "base URL 'localhost:8000/v1' is not an http or https URL with a host and a valid port"),
    (["synth", "--train-frac", "0.9"], "train_frac + val_frac must be at most 1"),
    (["synth", "--val-frac", "-0.1"], "train_frac and val_frac must be non-negative"),
], ids=["attack-hidden-0", "attack-epochs-0", "attack-learning-rate-0",
        "attack-weight-decay-negative", "attack-max-vocab-0", "evaluate-epochs-0", "evaluate-sgc-steps-0",
        "evaluate-unknown-victim", "evaluate-malformed-baseline", "evaluate-max-vocab-0",
        "audit-max-vocab-0", "attack-no-target-flag", "attack-both-target-flags",
        "attack-malformed-targets", "attack-num-targets-0", "attack-unknown-target-split",
        "attack-base-url-without-scheme", "synth-fractions-above-1", "synth-negative-fraction"])
def test_config_errors_are_found_before_a_missing_dataset(
    tmp_path, capsys, monkeypatch, argv, message
):
    monkeypatch.setenv("TAGSIEGE_API_KEY", "unused")
    none = str(tmp_path / "none")
    argv = [arg.format(none=none) for arg in argv]
    if argv[0] in ("evaluate", "audit"):
        argv += ["--perturbed", none]
    if argv[0] == "evaluate":
        argv += ["--plan", str(tmp_path / "none.jsonl")]
    capsys.readouterr()
    out = tmp_path / "o"
    assert main([*argv, "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


def test_a_base_url_without_a_host_in_the_environment_is_found_before_any_read(
    tmp_path, capsys, monkeypatch
):
    monkeypatch.setenv("TAGSIEGE_API_KEY", "unused")
    monkeypatch.setenv("TAGSIEGE_BASE_URL", "http:///v1")
    out = tmp_path / "o"
    code = main(["attack", "--data", str(tmp_path / "none"), "--num-targets", "2",
                 "--backend", "llm", "--out", str(out)])
    assert (code, capsys.readouterr().err) == (
        2, "error: base URL 'http:///v1' is not an http or https URL with a host and a valid port\n")
    assert not out.exists()


@pytest.mark.parametrize("command, cls", [
    ("synth", SynthConfig),
    ("attack", EncoderConfig),
    ("attack", LLMConfig),
    ("evaluate", victims.VictimConfig),
])
def test_every_config_field_is_an_option_of_its_command(command, cls):
    options = {name: (kind, default) for name, kind, default, _ in cli._COMMANDS[command][0]}
    for f in fields(cls):
        assert f.name in options, f"{command} has no option for {cls.__name__}.{f.name}"
        kind, default = options[f.name]
        # the annotation is a string: config.py postpones annotations
        assert f.type in (kind, f"{kind} | None"), f"{command} kind of {f.name}"
        assert default == f.default, f"{command} default of {f.name}"


def test_config_helper_never_falls_back_to_a_field_default():
    with pytest.raises(KeyError, match="learning_rate"):
        cli._config(EncoderConfig, {"hidden": 8, "epochs": 2, "weight_decay": 0.0, "seed": 1})


@pytest.mark.parametrize("command", ["encode", "retrieve"])
def test_a_manifest_of_a_retired_command_does_not_replay(tmp_path, capsys, data_dir, command):
    manifest = read_manifest(data_dir)
    manifest["command"] = command
    old = tmp_path / "manifest.json"
    old.write_text(json.dumps(manifest))
    capsys.readouterr()
    out = tmp_path / "o"
    assert main(["replay", str(old), "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: manifest names unknown command {command!r}\n"
    assert not out.exists()


@pytest.mark.parametrize("run", ["synth", "attack"])
def test_main_and_replay_write_the_same_manifest_keys(tmp_path, data_dir, attack_run, run):
    first = data_dir if run == "synth" else attack_run
    out = tmp_path / "replayed"
    assert main(["replay", str(first / "manifest.json"), "--out", str(out)]) == 0
    replayed, recorded = read_manifest(out), read_manifest(first)
    assert set(replayed) == set(recorded)
    assert replayed["config"] == recorded["config"]
    assert replayed["outputs"] == recorded["outputs"]


def test_replay_ignores_a_dataset_file_load_graph_does_not_read(tmp_path, capsys, data_dir):
    data = tmp_path / "data"
    shutil.copytree(data_dir, data)
    (data / "edges.jsonl").write_text('{"src": 0, "dst": 1}\n')
    out = tmp_path / "atk"
    assert main(["attack", "--data", str(data), "--out", str(out), "--targets", "3",
                 "--epochs", "2"]) == 0
    assert set(read_manifest(out)["inputs"]) == {str(data / "nodes.jsonl"), str(data / "edges.csv")}
    (data / "edges.jsonl").write_text('{"src": 0, "dst": 2}\n')
    assert main(["replay", str(out / "manifest.json"), "--out", str(tmp_path / "again")]) == 0
    assert_replay_refuses_changed_input(tmp_path, capsys, out, data / "edges.csv")
