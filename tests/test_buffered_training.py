"""Training epochs that write into buffers allocated once per run give the
same bits as the allocate-every-epoch code they replaced, and `evaluate`'s
concurrently trained victims give the same outputs on any core count.

The reference losses and Adam step below allocate every result, as the
earlier bodies did, and are the oracle for the buffered ones. The GCN and
SAGE references propagate their second layer at class width (a_hat @ (h @ W2),
m @ (h @ wn2) and the matching gradients), the association the losses document.

Each epoch of the GCN and SAGE losses allocates at most the (n, classes)
results of its sparse products plus, for a CSR first-layer operand, scipy's
first-layer products; never an (n, hidden) propagation.
"""

import json
import os
import sys
import threading
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.sparse as sp

import tagsiege.encoder as encoder
import tagsiege.graph as graph_module
import tagsiege.nnops as nnops
import tagsiege.victims as victims
from tagsiege.cli import main
from tagsiege.encoder import EncoderConfig, train_encoder
from tagsiege.errors import TrainingError
from tagsiege.nnops import BETA1, BETA2, EPS, as_dense, cross_entropy_with_grad, glorot, relu
from tagsiege.synth import SynthConfig, generate
from tagsiege.text_features import build_vocabulary, featurize
from tagsiege.victims import SAGE_WEIGHTS, VICTIM_KINDS, VictimConfig, train_victim

from test_operands import FIXTURES, features_of


def reference_fit(params, loss_and_grads, epochs, learning_rate, what):
    m = [np.zeros_like(p) for p in params]
    v = [np.zeros_like(p) for p in params]
    history = []
    for t in range(1, epochs + 1):
        loss, grads = next(loss_and_grads)
        if not np.isfinite(loss):
            raise TrainingError(f"{what} is not finite ({loss})")
        history.append(loss)
        for p, g, m_p, v_p in zip(params, grads, m, v):
            m_p *= BETA1
            m_p += (1 - BETA1) * g
            v_p *= BETA2
            v_p += (1 - BETA2) * (g * g)
            m_hat = m_p / (1 - BETA1 ** t)
            v_hat = v_p / (1 - BETA2 ** t)
            p -= learning_rate * m_hat / (np.sqrt(v_hat) + EPS)
    return history


def reference_gcn_loss(weights, a_hat, u, labels, train_rows, weight_decay):
    params = SimpleNamespace(**weights)
    while True:
        h_pre = u @ params.w1
        h = relu(h_pre)
        logits = a_hat @ (h @ params.w2)
        loss, dlogits = cross_entropy_with_grad(logits, labels, train_rows)
        loss += 0.5 * weight_decay * (
            float(np.sum(params.w1 ** 2)) + float(np.sum(params.w2 ** 2))
        )
        g = a_hat @ dlogits
        dw2 = h.T @ g + weight_decay * params.w2
        dh = g @ params.w2.T
        dh_pre = dh * (h_pre > 0)
        dw1 = u.T @ dh_pre + weight_decay * params.w1
        yield loss, [dw1, dw2]


def reference_sgc_loss(w, propagated, labels, rows, weight_decay):
    while True:
        loss, dlogits = cross_entropy_with_grad(propagated @ w, labels, rows)
        loss += 0.5 * weight_decay * float(np.sum(w ** 2))
        yield loss, [propagated.T @ dlogits + weight_decay * w]


def reference_sage_loss(weights, m, features, x_nbr, labels, rows, weight_decay):
    while True:
        h_pre = features @ weights["ws1"] + x_nbr @ weights["wn1"]
        h = relu(h_pre)
        logits = h @ weights["ws2"] + m @ (h @ weights["wn2"])
        loss, dlogits = cross_entropy_with_grad(logits, labels, rows)
        loss += 0.5 * weight_decay * sum(float(np.sum(weights[k] ** 2)) for k in SAGE_WEIGHTS)
        g = m.T @ dlogits
        dws2 = h.T @ dlogits + weight_decay * weights["ws2"]
        dwn2 = h.T @ g + weight_decay * weights["wn2"]
        dh = dlogits @ weights["ws2"].T + g @ weights["wn2"].T
        dh_pre = dh * (h_pre > 0)
        dws1 = features.T @ dh_pre + weight_decay * weights["ws1"]
        dwn1 = x_nbr.T @ dh_pre + weight_decay * weights["wn1"]
        yield loss, [dws1, dwn1, dws2, dwn2]


def train_recorded(monkeypatch, model, graph, features, fit):
    """(loss curves, final weights, operand forms) of one training through `fit`."""
    curves = []

    def recording(*args):
        curves.append(fit(*args))
        return curves[-1]

    monkeypatch.setattr(encoder, "fit", recording)
    monkeypatch.setattr(victims, "fit", recording)
    if model == "encoder":
        trained = train_encoder(graph, features, EncoderConfig(hidden=8, epochs=60, seed=3))
    else:
        trained = train_victim(model, graph, features, VictimConfig(hidden=8, epochs=60, seed=5))
    return curves, list(trained.weights.values()), trained.operand_forms


@pytest.mark.parametrize("model", ["encoder", *VICTIM_KINDS])
@pytest.mark.parametrize("fixture", sorted(FIXTURES))
@pytest.mark.parametrize("form, limit", [("csr", 1.0), ("dense", 0.0)])
def test_buffered_training_matches_the_allocating_reference(
    monkeypatch, model, fixture, form, limit
):
    monkeypatch.setattr(nnops, "SPARSE_OPERAND_MAX_DENSITY", limit)
    graph = FIXTURES[fixture][0]()
    features = features_of(graph)
    with monkeypatch.context() as reference:
        reference.setattr(encoder, "_loss_and_grads", reference_gcn_loss)
        reference.setattr(victims, "sgc_loss_and_grads", reference_sgc_loss)
        reference.setattr(victims, "sage_loss_and_grads", reference_sage_loss)
        expected = train_recorded(reference, model, graph, features, reference_fit)
    curves, weights, forms = train_recorded(monkeypatch, model, graph, features, nnops.fit)
    assert set(forms.values()) == {form} == set(expected[2].values())
    assert len(curves) == 1 and len(curves[0]) == 60
    assert curves == expected[0]
    assert [w.tobytes() for w in weights] == [w.tobytes() for w in expected[1]]


def epoch_allocation(steps) -> int:
    """Peak bytes that one `next(steps)` holds at once, after two warm-up
    epochs, as numpy reports its buffers to tracemalloc."""
    next(steps), next(steps)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        next(steps)
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


@pytest.fixture(scope="module")
def mid_graph():
    """n=1000 at mean degree about 5, |V|=64, so an (n, hidden) array
    dwarfs the (n, classes) and (|V|, hidden) ones."""
    n = 1000
    graph = generate(SynthConfig(node_count=n, p_in=0.05 * 300 / n, p_out=0.005 * 300 / n))
    return graph, featurize(graph.texts, build_vocabulary(graph, 64))


@pytest.mark.parametrize("model", ["gcn", "sage_mean"])
@pytest.mark.parametrize("form, limit", [("dense", 1), ("csr", 2)])
def test_an_epoch_allocates_no_hidden_width_propagation(mid_graph, model, form, limit):
    # dense: every operand dense, as at SPARSE_OPERAND_MAX_DENSITY = 0;
    # csr: the first-layer operand (u for the GCN, X for SAGE) is CSR, and
    # scipy gives its products with W1 and dh as new arrays
    graph, x = mid_graph
    hidden, rng = 64, np.random.default_rng(0)
    first_layer = sp.csr_matrix if form == "csr" else as_dense
    labels, rows = encoder.train_split(graph, x)
    classes = graph.class_count
    if model == "gcn":
        a_hat = encoder.normalize_adjacency(graph)
        weights = {"w1": glorot(rng, x.shape[1], hidden), "w2": glorot(rng, hidden, classes)}
        steps = encoder._loss_and_grads(
            weights, a_hat, first_layer(a_hat @ x), labels, rows, 5e-4)
    else:
        m = victims.mean_aggregation(graph)
        shapes = [(x.shape[1], hidden)] * 2 + [(hidden, classes)] * 2
        weights = {k: glorot(rng, *shape) for k, shape in zip(SAGE_WEIGHTS, shapes)}
        steps = victims.sage_loss_and_grads(
            weights, m, first_layer(x), as_dense(m @ x), labels, rows, 5e-4)
    hidden_array = graph.node_count * hidden * 8
    assert epoch_allocation(steps) < limit * hidden_array


def test_victims_trained_on_more_threads_than_cores_match_serial_training(monkeypatch):
    graph = FIXTURES["dense"][0]()
    features = features_of(graph)
    jobs = [(kind, VictimConfig(hidden=8, epochs=40, seed=seed))
            for kind in VICTIM_KINDS for seed in range(3)]
    serial = [train_victim(kind, graph, features, cfg) for kind, cfg in jobs]

    def no_build(graph):
        raise AssertionError("propagation built again on a worker thread")

    # the serial pass built the graph's propagations; the threads only read them
    monkeypatch.setattr(graph_module, "normalize_adjacency", no_build)
    monkeypatch.setattr(graph_module, "mean_aggregation", no_build)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(len(jobs)) as pool:
            futures = [pool.submit(train_victim, kind, graph, features, cfg) for kind, cfg in jobs]
            threaded = [future.result(timeout=120) for future in futures]
    finally:
        sys.setswitchinterval(interval)
    for alone, together in zip(serial, threaded):
        assert [w.tobytes() for w in together.weights.values()] == [
            w.tobytes() for w in alone.weights.values()
        ]
        assert together.val_accuracy == alone.val_accuracy


def test_a_graphs_arrays_filled_from_many_threads_at_once_are_one_value(monkeypatch):
    graph = FIXTURES["dense"][0]()  # nothing built yet
    builds, lock = [], threading.Lock()

    def counted(build):
        def wrapper(g):
            with lock:
                builds.append(build.__name__)
            return build(g)
        return wrapper

    for name in ("normalize_adjacency", "mean_aggregation"):
        monkeypatch.setattr(graph_module, name, counted(getattr(graph_module, name)))
    threads = 8
    start = threading.Barrier(threads)

    def read():
        start.wait(timeout=30)
        return graph.gcn_propagation, graph.mean_propagation, graph.adjacency

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(threads) as pool:
            futures = [pool.submit(read) for _ in range(threads)]
            seen = [future.result(timeout=60) for future in futures]
    finally:
        sys.setswitchinterval(interval)
    a_hat, m, adjacency = seen[0]
    assert not adjacency.data.flags.writeable
    for other_a_hat, other_m, other in seen:
        assert (other_a_hat != a_hat).nnz == 0 and (other_m != m).nnz == 0
        assert np.array_equal(other.indptr, adjacency.indptr)
        assert np.array_equal(other.indices, adjacency.indices)
        assert np.array_equal(other.data, adjacency.data)
    if sys.version_info < (3, 12):  # cached_property builds under a lock there
        assert sorted(builds) == ["mean_aggregation", "normalize_adjacency"]
        assert all(got[0] is a_hat and got[1] is m for got in seen)


@pytest.mark.parametrize("cores", [{0}, {0, 1}])
def test_train_victims_matches_serial_training_on_one_or_two_workers(monkeypatch, cores):
    graph = FIXTURES["dense"][0]()
    features = features_of(graph)
    cfg = VictimConfig(hidden=8, epochs=40, seed=3)
    serial = {kind: train_victim(kind, graph, features, cfg) for kind in VICTIM_KINDS}
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cores)
    models, seconds, wall_s, workers = victims.train_victims(
        list(VICTIM_KINDS), graph, features, cfg
    )
    assert workers == len(cores)
    assert list(models) == list(seconds) == sorted(VICTIM_KINDS)
    assert wall_s >= 0.0 and all(s >= 0.0 for s in seconds.values())
    for kind, alone in serial.items():
        assert [w.tobytes() for w in models[kind].weights.values()] == [
            w.tobytes() for w in alone.weights.values()
        ]
        assert models[kind].val_accuracy == alone.val_accuracy


SYNTH_FLAGS = ["--node-count", "120", "--class-count", "4", "--seed", "0"]


@pytest.fixture(scope="module")
def attack_run(tmp_path_factory):
    data = tmp_path_factory.mktemp("dataset")
    assert main(["synth", "--out", str(data), *SYNTH_FLAGS]) == 0
    out = tmp_path_factory.mktemp("attack")
    assert main(["attack", "--data", str(data), "--out", str(out),
                 "--num-targets", "8", "--seed", "1"]) == 0
    return data, out


def evaluate(attack_run, out, *flags):
    data, attack_out = attack_run
    return main(["evaluate", "--clean", str(data), "--perturbed", str(attack_out / "perturbed"),
                 "--plan", str(attack_out / "plan.jsonl"), "--out", str(out), "--seed", "2",
                 *flags])


def test_evaluate_outputs_do_not_depend_on_the_core_count(tmp_path, monkeypatch, attack_run):
    outputs = {}
    for cores in ({0}, {0, 1}):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid, cores=cores: cores)
        out = tmp_path / f"cores{len(cores)}"
        assert evaluate(attack_run, out) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["counters"]["victim_workers"] == len(cores)
        outputs[len(cores)] = [(out / n).read_bytes() for n in ("report.json", "summary.csv")]
    assert outputs[1] == outputs[2]


def test_evaluate_manifest_times_each_victim_and_the_pool(tmp_path, attack_run):
    out = tmp_path / "eval"
    assert evaluate(attack_run, out, "--victims", "sgc,gcn") == 0
    manifest = json.loads((out / "manifest.json").read_text())
    timings = manifest["timings"]
    assert set(timings) == {"train_gcn_s", "train_sgc_s", "victims_wall_s"}
    assert all(isinstance(s, float) and s >= 0.0 for s in timings.values())
    workers = manifest["counters"]["victim_workers"]
    assert workers == min(2, len(os.sched_getaffinity(0)))
    report = (out / "report.json").read_text()
    assert "victims_wall_s" not in report and "victim_workers" not in report


def test_victims_are_submitted_longest_first(tmp_path, monkeypatch, attack_run):
    started = []
    real = victims.train_victim

    def recording(kind, *args):
        started.append(kind)
        return real(kind, *args)

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    monkeypatch.setattr(victims, "train_victim", recording)
    assert evaluate(attack_run, tmp_path / "eval", "--victims", "sgc,gcn,sage_mean") == 0
    assert started == ["sage_mean", "gcn", "sgc"]


def test_a_victim_failing_in_the_pool_exits_four_and_names_it(
    tmp_path, monkeypatch, capsys, attack_run
):
    threads = {}
    real = victims.train_victim

    def failing(kind, *args):
        threads[kind] = threading.current_thread()
        if kind == "sgc":
            raise TrainingError("sgc loss is not finite (nan)")
        return real(kind, *args)

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    monkeypatch.setattr(victims, "train_victim", failing)
    assert evaluate(attack_run, tmp_path / "eval") == 4
    assert capsys.readouterr().err == "error: victim sgc: sgc loss is not finite (nan)\n"
    assert set(threads) == set(VICTIM_KINDS)
    assert threading.main_thread() not in threads.values()
    assert not (tmp_path / "eval" / "report.json").exists()
