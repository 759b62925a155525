"""Build the RND and FLIP comparison plans for the targets of an attack plan.

No CLI command does this, so the benchmark runs it as its own step:

    python3 perfbench/baselines_step.py DATA_DIR PLAN OUT_DIR SEED

writes ``OUT_DIR/rnd.jsonl`` and ``OUT_DIR/flip.jsonl`` with budgets sized by
``Budgets.for_targets`` over the plan's completed targets.
"""

from __future__ import annotations

import sys
from pathlib import Path


def build_baselines(data: str, plan_path: str, out: str, seed: int) -> None:
    # module attributes are looked up at call time, so traced runs see wrappers
    from tagsiege import baselines, graph, plan

    clean = graph.load_graph(data)
    targets = plan.load_plan(plan_path).targets()
    budgets = plan.Budgets.for_targets(len(targets))
    root = Path(out)
    root.mkdir(parents=True, exist_ok=True)
    plan.save_plan(baselines.rnd_attack(clean, targets, budgets, seed=seed), root / "rnd.jsonl")
    plan.save_plan(baselines.flip_attack(clean, targets, budgets), root / "flip.jsonl")


if __name__ == "__main__":
    data_dir, plan_file, out_dir, seed_arg = sys.argv[1:]
    build_baselines(data_dir, plan_file, out_dir, int(seed_arg))
