"""Commands that do no numerical work start without scipy, `--help` without numpy.

`cli` imports each numpy- or scipy-backed layer inside the runner that uses
it, so `synth`, `--help` and a replayed `synth` never pay scipy's import, and
`--help` not numpy's either. The graph builds its scipy matrices only when a
model asks for them, so loading a dataset and planning the RND and FLIP
baselines import no scipy either. Each case runs in a fresh interpreter,
since this test process has both loaded.
"""

import subprocess
import sys


def imported_modules(*args: str) -> set[str]:
    """Every module that `python -X importtime -m tagsiege ARGS` imports."""
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-m", "tagsiege", *args],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    return {
        line.rpartition("|")[2].strip()
        for line in proc.stderr.splitlines()
        if line.startswith("import time:")
    }


def loads(package: str, modules) -> bool:
    return any(name.split(".")[0] == package for name in modules)


def test_synth_and_help_start_without_scipy(tmp_path):
    synth = imported_modules("synth", "--out", str(tmp_path / "data"), "--node-count", "60")
    assert "tagsiege.synth" in synth
    assert not loads("scipy", synth)
    help_ = imported_modules("--help")
    assert "tagsiege.cli" in help_
    assert not loads("scipy", help_)
    assert not loads("numpy", help_)


def test_replay_of_a_synth_manifest_starts_without_scipy(tmp_path):
    imported_modules("synth", "--out", str(tmp_path / "data"), "--node-count", "60")
    code = (
        "import sys\n"
        "from tagsiege.cli import main\n"
        "code = main(['replay', sys.argv[1], '--out', sys.argv[2]])\n"
        "print(code, 'scipy' in sys.modules)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code, str(tmp_path / "data" / "manifest.json"),
         str(tmp_path / "again")],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "0 False"
    for name in ("nodes.jsonl", "edges.csv"):
        assert (tmp_path / "again" / name).read_bytes() == (tmp_path / "data" / name).read_bytes()



def test_loading_a_graph_and_planning_the_baselines_start_without_scipy(tmp_path):
    # the steps of perfbench/baselines_step.py
    imported_modules("synth", "--out", str(tmp_path / "data"), "--node-count", "60")
    code = (
        "import sys\n"
        "from tagsiege.baselines import flip_attack, rnd_attack\n"
        "from tagsiege.graph import load_graph\n"
        "from tagsiege.plan import Budgets\n"
        "graph = load_graph(sys.argv[1])\n"
        "targets = sorted(graph.split_nodes('test'))\n"
        "budgets = Budgets.for_targets(len(targets))\n"
        "plans = rnd_attack(graph, targets, budgets, seed=0), flip_attack(graph, targets, budgets)\n"
        "print(*(len(p.entries) for p in plans), any(m.split('.')[0] == 'scipy' for m in sys.modules))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code, str(tmp_path / "data")], capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    rnd, flip, scipy_loaded = proc.stdout.split()
    assert int(rnd) > 0 and int(flip) > 0
    assert scipy_loaded == "False"
