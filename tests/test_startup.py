"""Steps start without the libraries their work does not use.

`cli` imports each numpy- or scipy-backed layer inside the runner that uses
it, so `synth`, `--help` and a replayed `synth` never pay scipy's import, and
`--help` not numpy's either. The graph builds its scipy matrices only when a
model asks for them, and features are numpy CSR rows until a model trains or
predicts, so loading a dataset, planning the RND and FLIP baselines and
`audit` import no scipy either. The LLM client posts through the standard
library, so an LLM attack imports no `requests`. Each case runs in a fresh
interpreter, since this test process has them loaded.
"""

import json
import os
import subprocess
import sys
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from tagsiege.cli import main


def imported_modules(*args: str, env: dict | None = None) -> set[str]:
    """Every module that `python -X importtime -m tagsiege ARGS` imports."""
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-m", "tagsiege", *args],
        capture_output=True, text=True, env=env,
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


def test_audit_with_a_report_starts_without_scipy(tmp_path):
    data, atk, report = (str(tmp_path / name) for name in ("data", "atk", "eval"))
    assert main(["synth", "--out", data, "--node-count", "60"]) == 0
    assert main(["attack", "--data", data, "--out", atk, "--num-targets", "4",
                 "--epochs", "2"]) == 0
    assert main(["evaluate", "--clean", data, "--perturbed", f"{atk}/perturbed",
                 "--plan", f"{atk}/plan.jsonl", "--out", report, "--epochs", "2"]) == 0
    audit = imported_modules(
        "audit", "--out", str(tmp_path / "audit"), "--clean", data,
        "--perturbed", f"{atk}/perturbed", "--report", f"{report}/report.json",
    )
    assert "tagsiege.metrics" in audit
    assert not loads("scipy", audit)
    assert (tmp_path / "audit" / "audit.json").exists()


class Unparseable(BaseHTTPRequestHandler):
    """Answers every completion without JSON, so the oracle falls back."""

    protocol_version = "HTTP/1.1"

    def do_POST(self):
        self.rfile.read(int(self.headers["Content-Length"]))
        self.server.requests += 1
        body = json.dumps({"choices": [{"message": {"content": "no json here"}}]}).encode()
        self.send_response(200)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, *args):
        pass


def test_an_llm_attack_starts_without_requests(tmp_path):
    data = str(tmp_path / "data")
    assert main(["synth", "--out", data, "--node-count", "60"]) == 0
    server = ThreadingHTTPServer(("127.0.0.1", 0), Unparseable)
    server.requests = 0
    threading.Thread(target=server.serve_forever, args=(0.05,), daemon=True).start()
    env = dict(os.environ, TAGSIEGE_API_KEY="test-key", NO_PROXY="127.0.0.1",
               no_proxy="127.0.0.1")
    try:
        attack = imported_modules(
            "attack", "--backend", "llm", "--base-url",
            f"http://127.0.0.1:{server.server_address[1]}/v1", "--data", data,
            "--out", str(tmp_path / "atk"), "--num-targets", "2", "--epochs", "2", env=env,
        )
    finally:
        server.shutdown()
        server.server_close()
    assert "http.client" in attack
    assert not loads("requests", attack)
    assert server.requests == 8  # two queries per target, each re-prompted once
