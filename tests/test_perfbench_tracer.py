"""The benchmark's tracer (perfbench/tracing.py) finds every function it wraps.

`Tracer.install` looks each name of its WRAPPED table up in the tagsiege
module that defines it, so renaming or removing one breaks every traced
benchmark run. These tests load the tracer from its file, unchanged, and
check that it installs, that the wrapped names are the functions the
training paths run, and that `uninstall` puts every original back.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

from tagsiege.encoder import EncoderConfig
from tagsiege.graph import TextAttributedGraph
from tagsiege.victims import VictimConfig

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        del sys.modules[spec.name]


def wrapped_values(tracing):
    """The current value of every WRAPPED name, in its defining module."""
    values = []
    for module_name, attr, _, _ in tracing.WRAPPED:
        owner = importlib.import_module(f"tagsiege.{module_name}")
        if "." in attr:
            cls_name, attr = attr.split(".")
            owner = getattr(owner, cls_name)
        values.append(owner.__dict__[attr])
    return values


def small_graph(n=12):
    return TextAttributedGraph.build(
        texts=[f"node{i} tok{i % 2}" for i in range(n)],
        labels=[i % 2 for i in range(n)],
        splits=["train" if i % 3 else "val" for i in range(n)],
        edges=[(i, (i + 1) % n) for i in range(n)],
    )


def test_tracer_installs_wraps_the_training_paths_and_uninstalls(tracing):
    from tagsiege import encoder, victims

    originals = wrapped_values(tracing)
    tracer = tracing.Tracer()
    try:
        tracer.install()
        for before, now in zip(originals, wrapped_values(tracing)):
            assert now.__wrapped__ is before
        g = small_graph()
        X = np.eye(g.node_count)[:, :5]
        encoder.train_encoder(g, X, EncoderConfig(hidden=4, epochs=2, seed=1))
        for kind in victims.VICTIM_KINDS:
            model = victims.train_victim(kind, g, X, VictimConfig(hidden=4, epochs=2, seed=1))
            victims.predict(model, g, X)
    finally:
        tracer.uninstall()
    assert wrapped_values(tracing) == originals

    names = [span.name for span in tracer.spans]
    train = names.index("encoder.train")
    assert tracer.spans[names.index("encoder.adjacency")].parent == train
    assert [s.counters["kind"] for s in tracer.spans if s.name == "victims.train"] == list(
        victims.VICTIM_KINDS
    )
    assert names.count("victims.aggregation") == 1  # sage_mean's propagation
    assert names.count("victims.predict") >= len(victims.VICTIM_KINDS)
