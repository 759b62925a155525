"""Benchmark of the tagsiege ``synth -> attack -> evaluate -> audit`` pipeline.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from its
``src/``. One round runs the five steps of the pipeline on inputs made from
``--seed``: ``tagsiege synth``, ``tagsiege attack``, the RND/FLIP baseline
plans (``perfbench/baselines_step.py``), ``tagsiege evaluate`` with both
baselines and ``tagsiege audit --report``. After every round the outputs are
checked by ``checks.py``; see ``README.md`` for how samples are taken.

``--trace 0`` runs every step as its own process and reports the end-to-end
metrics from the medians of each step's samples. ``--trace 1`` runs the same steps in this
process through ``tagsiege.cli.main`` with wrappers around each module's
public functions (``tracing.py``) and reports the per-layer metrics.
``--untraced-inprocess`` runs that in-process path without wrappers and
prints its round time, to measure the tracing overhead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import os

# every process the benchmark starts, and this one, uses one BLAS thread
os.environ["OPENBLAS_NUM_THREADS"] = "1"

import argparse
import contextlib
import hashlib
import io
import itertools
import json
import shutil
import statistics
import subprocess
import sys
import threading
import time
import urllib.request
from dataclasses import asdict, dataclass
from pathlib import Path

import checks
import tracing

HERE = Path(__file__).resolve().parent
RUN_LIMIT_S = 165.0
IMPORT_REPEATS = 3
CLASS_COUNT = 4  # the synth default


@dataclass(frozen=True)
class Workload:
    nodes: int
    targets: int
    max_vocab: int
    backend: str = "oracle"

    @property
    def degree_scale(self) -> float:
        """p_in/p_out scale that keeps mean degree at about 5."""
        return min(1.0, 300 / self.nodes)


WORKLOADS = {
    "quickstart-300": Workload(nodes=300, targets=30, max_vocab=2000),
    "train-1k": Workload(nodes=1000, targets=40, max_vocab=2000),
    "scale-2k": Workload(nodes=2000, targets=400, max_vocab=64),
    "llm-stub-500": Workload(nodes=500, targets=100, max_vocab=2000, backend="llm"),
}

STEPS = ("synth", "attack", "baselines", "evaluate", "audit")
E2E_UNITS = {"setup_s": "s", "pipeline_s": "s", "peak_rss_mb": "MB"}


def step_commands(w: Workload, seed: int, inputs: Path, out: Path,
                  base_url: str | None) -> dict:
    """Arguments of each step, reading ``inputs`` (a round directory) and
    writing under ``out``; CLI steps are argv lists for ``tagsiege``."""
    data, atk, base = inputs / "data", inputs / "atk", inputs / "baselines"
    vocab = ["--max-vocab", str(w.max_vocab)]
    synth = ["synth", "--out", str(out / "data"), "--seed", str(seed),
             "--node-count", str(w.nodes)]
    if w.degree_scale < 1.0:
        synth += ["--p-in", repr(0.05 * w.degree_scale), "--p-out", repr(0.005 * w.degree_scale)]
    attack = ["attack", "--out", str(out / "atk"), "--data", str(data), "--seed", str(seed + 1),
              "--num-targets", str(w.targets), *vocab]
    if w.backend == "llm":
        attack += ["--backend", "llm", "--base-url", base_url]
    return {
        "synth": synth,
        "attack": attack,
        "baselines": (str(data), str(atk / "plan.jsonl"), str(out / "baselines"), seed + 3),
        "evaluate": ["evaluate", "--out", str(out / "eval"), "--clean", str(data),
                     "--perturbed", str(atk / "perturbed"), "--plan", str(atk / "plan.jsonl"),
                     "--seed", str(seed + 2), *vocab,
                     "--baseline", f"rnd={base / 'rnd.jsonl'}",
                     "--baseline", f"flip={base / 'flip.jsonl'}"],
        "audit": ["audit", "--out", str(out / "audit"), "--clean", str(data),
                  "--perturbed", str(atk / "perturbed"), *vocab,
                  "--report", str(inputs / "eval" / "report.json")],
    }


# files a step writes; their bytes must repeat when it re-runs on the same inputs
STEP_OUTPUTS = {
    "synth": ("data/nodes.jsonl", "data/edges.csv"),
    "attack": ("atk/plan.jsonl",),
    "baselines": ("baselines/rnd.jsonl", "baselines/flip.jsonl"),
    "evaluate": ("eval/report.json",),
    "audit": ("audit/audit.json",),
}


def round_paths(rdir: Path) -> dict[str, Path]:
    return {
        "data": rdir / "data",
        "perturbed": rdir / "atk" / "perturbed",
        "plan": rdir / "atk" / "plan.jsonl",
        "attack_manifest": rdir / "atk" / "manifest.json",
        "report": rdir / "eval" / "report.json",
        "audit": rdir / "audit" / "audit.json",
    }


# ---------------------------------------------------------------------------
# step runners: (seconds, max RSS in MB or None, error or None)


class SubprocessRunner:
    """Each step in a fresh interpreter, as a user runs the CLI."""

    def __init__(self, env: dict, deadline: float):
        self.env = env
        self.deadline = deadline

    def __call__(self, step: str, args, log: Path):
        if step == "baselines":
            argv = [sys.executable, str(HERE / "baselines_step.py"), *map(str, args)]
        else:
            argv = [sys.executable, "-m", "tagsiege", *args]
        with log.open("w") as err:
            started = time.perf_counter()
            proc = subprocess.Popen(argv, env=self.env, stdout=subprocess.DEVNULL, stderr=err)
            watchdog = threading.Timer(max(1.0, self.deadline - time.monotonic()), proc.kill)
            watchdog.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                watchdog.cancel()
            seconds = time.perf_counter() - started
        proc.returncode = os.waitstatus_to_exitcode(status)
        error = None
        if proc.returncode != 0:
            tail = log.read_text().strip().splitlines()[-1:] or [""]
            error = f"exit {proc.returncode}: {tail[0][:200]}"
        return seconds, usage.ru_maxrss / 1024.0, error


class InProcessRunner:
    """Each step through ``tagsiege.cli.main`` in this process."""

    def __init__(self):
        from tagsiege import cli

        import baselines_step

        self.cli = cli
        self.build_baselines = baselines_step.build_baselines

    def __call__(self, step: str, args, log: Path):
        sink = io.StringIO()
        started = time.perf_counter()
        error = None
        try:
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                if step == "baselines":
                    self.build_baselines(*args)
                else:
                    # looked up per call so an installed wrapper is used
                    code = self.cli.main(args)
                    if code != 0:
                        error = f"exit {code}"
        except Exception as exc:  # a crash is a failed step, not a crashed benchmark
            error = f"{type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - started
        log.write_text(sink.getvalue())
        return seconds, None, error


# ---------------------------------------------------------------------------
# the LLM stub


class Stub:
    def __init__(self, env: dict, log: Path):
        self._err = log.open("w")
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "stub.py")],
            env=env, stdout=subprocess.PIPE, stderr=self._err, text=True,
        )
        port = self.proc.stdout.readline().strip()
        if not port.isdigit():
            self.close()
            raise RuntimeError("LLM stub did not start")
        self.base_url = f"http://127.0.0.1:{port}/v1"
        self._stats_url = f"http://127.0.0.1:{port}/stats"
        # no proxy: the stub is on the loopback interface
        self._opener = urllib.request.build_opener(urllib.request.ProxyHandler({}))

    def stats(self) -> dict:
        with self._opener.open(self._stats_url, timeout=10) as resp:
            return json.loads(resp.read())

    def close(self) -> None:
        self.proc.terminate()
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()
        self._err.close()


# ---------------------------------------------------------------------------
# rounds and repeats


class Bench:
    """One run: the samples, check results and peak RSS gathered so far."""

    def __init__(self, w: Workload, seed: int, out: Path, runner, stub: Stub | None,
                 record: Path):
        self.w, self.seed, self.out = w, seed, out
        self.runner, self.stub, self.record = runner, stub, record
        self.results: list[tuple[str, bool, str]] = []
        self.samples: dict[str, list[float]] = {step: [] for step in STEPS}
        self.rss_mb: list[float] = []
        self.http = (0, 0.0)

    def _step(self, step: str, inputs: Path, out: Path) -> bool:
        out.mkdir(parents=True, exist_ok=True)
        base_url = self.stub.base_url if self.stub else None
        args = step_commands(self.w, self.seed, inputs, out, base_url)[step]
        seconds, rss, error = self.runner(step, args, out / f"{step}.log")
        self.results.append((f"{step}_exits_0", error is None, error or ""))
        if error is None:
            self.samples[step].append(seconds)
            if rss is not None:
                self.rss_mb.append(rss)
        return error is None

    def round(self, rdir: Path) -> bool:
        """All five steps into ``rdir``, then every output check."""
        for step in STEPS:
            before = self.stub.stats() if self.stub and step == "attack" else None
            if not self._step(step, rdir, rdir):
                return False
            if before is not None:
                after = self.stub.stats()
                self.http = (after["requests"] - before["requests"],
                             after["service_s"] - before["service_s"])
        self.results += checks.check_round(
            round_paths(rdir),
            max_vocab=self.w.max_vocab,
            class_count=CLASS_COUNT,
            oracle=self.w.backend == "oracle",
            stub_requests=self.http[0] if self.stub else None,
        )
        self._check_against_record(rdir)
        return True

    def repeat(self, step: str, rdir: Path) -> bool:
        """One more sample of ``step`` on the inputs of round ``rdir``."""
        out = self.out / "repeat"
        if not self._step(step, rdir, out):
            return False
        differ = [name for name in STEP_OUTPUTS[step]
                  if checks.sha256(out / name) != checks.sha256(rdir / name)]
        self.results.append((f"{step}_repeat_byte_identical", not differ, f"differ: {differ}"))
        return True

    def _check_against_record(self, rdir: Path) -> None:
        """plan.jsonl and report.json against the first output of this source tree.

        ``record`` is keyed by the source digest, workload and seed, so it
        only ever holds output of the same program on the same inputs.
        """
        paths = round_paths(rdir)
        got = {name: checks.sha256(paths[name]) for name in ("plan", "report")}
        if not self.record.exists():
            self.record.parent.mkdir(parents=True, exist_ok=True)
            self.record.write_text(json.dumps(got))
            return
        want = json.loads(self.record.read_text())
        differ = sorted(k for k in got if got[k] != want[k])
        self.results.append(("outputs_match_earlier_runs", not differ, f"differ: {differ}"))

    def medians(self) -> dict[str, float]:
        return {step: statistics.median(v) for step, v in self.samples.items()}


def source_digest(src: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted((src / "tagsiege").rglob("*.py")):
        digest.update(path.relative_to(src).as_posix().encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def read_cpu_times() -> tuple[float, float] | None:
    """(steal, total) jiffies of the host's CPUs from /proc/stat."""
    try:
        fields = Path("/proc/stat").read_text().splitlines()[0].split()
    except OSError:
        return None
    values = [float(x) for x in fields[1:9]]
    return values[7], sum(values)


def import_seconds(env: dict) -> float:
    code = "import time; t = time.perf_counter(); import tagsiege.cli; print(time.perf_counter() - t)"
    samples = []
    for _ in range(IMPORT_REPEATS):
        out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                             capture_output=True, text=True, timeout=60)
        samples.append(float(out.stdout))
    return statistics.median(samples)


def drops(rdir: Path) -> dict:
    report = json.loads((rdir / "eval" / "report.json").read_text())
    return {
        f"drop_{kind}": v["attackers"]["tagsiege"]["drop"]
        for kind, v in sorted(report["victims"].items())
    }


def measure_cli(bench: Bench, remaining) -> None:
    """Round 0, then re-runs on its inputs while they fit.

    Each re-run takes the step with the fewest samples whose last run still
    fits in the time left, so cheap steps get more samples than whole rounds
    would give them and ``synth``, the set-up, runs several times.
    """
    round0 = bench.out / "round-0"
    if not bench.round(round0):
        return
    while True:
        fits = [s for s in STEPS if bench.samples[s][-1] <= remaining()]
        if not fits:
            return
        step = min(fits, key=lambda s: (len(bench.samples[s]), STEPS.index(s)))
        if not bench.repeat(step, round0):
            return


def measure_inprocess(bench: Bench, remaining, tracer) -> list[dict]:
    """Whole rounds while they fit; with a tracer, each round's layer metrics.

    Each round's spans are kept in memory and written to ``spans.jsonl`` in
    the run directory after the last round.
    """
    layers, rounds = [], []
    for k in itertools.count():
        started = time.perf_counter()
        if tracer:
            tracer.reset()
        if not bench.round(bench.out / f"round-{k}"):
            break
        if tracer:
            layers.append(tracing.layer_metrics(tracer.spans, *bench.http))
            rounds.append(list(tracer.spans))
        if time.perf_counter() - started > remaining():
            break
    if tracer:
        with (bench.out / "spans.jsonl").open("w") as fh:
            for k, spans in enumerate(rounds):
                for span in spans:
                    fh.write(json.dumps({"round": k, **asdict(span)}) + "\n")
    return layers


def main() -> int:
    parser = argparse.ArgumentParser(description="tagsiege pipeline benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--untraced-inprocess", action="store_true",
                        help="in-process rounds without wrappers (tracing overhead)")
    args = parser.parse_args()

    root = Path.cwd()
    src = root / "src"
    if not (src / "tagsiege" / "cli.py").is_file():
        print(f"error: no tagsiege sources under {src}", file=sys.stderr)
        return 2
    w = WORKLOADS[args.workload]
    inprocess = args.trace == 1 or args.untraced_inprocess
    deadline = time.monotonic() + RUN_LIMIT_S

    env = dict(os.environ)
    env.update({
        "PYTHONPATH": os.pathsep.join([str(src), str(HERE)]),
        "OPENBLAS_NUM_THREADS": "1",
        "TAGSIEGE_API_KEY": "perfbench-stub",
        "NO_PROXY": "127.0.0.1,localhost",
        "no_proxy": "127.0.0.1,localhost",
    })
    if inprocess:
        os.environ.update(env)
        sys.path[:0] = [str(src)]

    mode = "traced" if args.trace else ("inproc" if inprocess else "cli")
    out = root / ".perfbench_runs" / f"{args.workload}-s{args.seed}-{mode}"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    record = (root / ".perfbench_runs" / "digests"
              / f"{source_digest(src)[:16]}-{args.workload}-s{args.seed}.json")

    cpu_before, load_before = read_cpu_times(), os.getloadavg()
    stub = Stub(env, out / "stub.log") if w.backend == "llm" else None
    tracer = tracing.Tracer() if args.trace else None
    try:
        runner = InProcessRunner() if inprocess else SubprocessRunner(env, deadline)
        if tracer:
            tracer.install()
        bench = Bench(w, args.seed, out, runner, stub, record)
        started = time.perf_counter()

        def remaining() -> float:
            return min(args.seconds - (time.perf_counter() - started),
                       deadline - time.monotonic())

        if inprocess:
            layers = measure_inprocess(bench, remaining, tracer)
        else:
            measure_cli(bench, remaining)
    finally:
        if tracer:
            tracer.uninstall()
        if stub:
            stub.close()
    cpu_after, load_after = read_cpu_times(), os.getloadavg()

    failed = [res for res in bench.results if not res[1]]
    measured = all(bench.samples.values())
    correct = measured and not failed
    metrics: dict[str, tuple[float, str]] = {}
    if measured:
        medians = bench.medians()
        if args.trace:
            per_layer = {k: statistics.median(m[k] for m in layers) for k in layers[0]}
            per_layer.update({f"step.{step}_s": medians[step] for step in STEPS})
            per_layer["cli.import_s"] = import_seconds(env)
            per_layer.update(drops(out / "round-0"))
            metrics = {k: (per_layer[k], unit) for k, unit in tracing.LAYER_UNITS.items()}
        elif inprocess:
            metrics = {"inprocess_round_s": (sum(medians.values()), "s")}
        else:
            values = {"setup_s": medians["synth"], "pipeline_s": sum(medians.values()),
                      "peak_rss_mb": max(bench.rss_mb)}
            metrics = {k: (values[k], E2E_UNITS[k]) for k in E2E_UNITS}

    print(f"perfbench workload={args.workload} seed={args.seed} mode={mode} "
          f"attempted={len(bench.results)} failed={len(failed)}")
    steal = "n/a"
    if cpu_before and cpu_after and cpu_after[1] > cpu_before[1]:
        delta = cpu_after[0] - cpu_before[0]
        steal = (f"{delta / os.sysconf('SC_CLK_TCK'):.2f}s "
                 f"share={delta / (cpu_after[1] - cpu_before[1]):.4f}")
    print(f"host steal={steal} loadavg_start={','.join(f'{x:.2f}' for x in load_before)} "
          f"loadavg_end={','.join(f'{x:.2f}' for x in load_after)}")
    if measured:
        print("round_s={:.4f} drops {}".format(
            sum(bench.medians().values()),
            " ".join(f"{k}={v:.4f}" for k, v in drops(out / "round-0").items())))
    for step, values in bench.samples.items():
        if values:
            print(f"step {step}_s median {statistics.median(values):.4f} s of "
                  f"{len(values)}: " + " ".join(f"{v:.4f}" for v in values))
    for name, _, detail in failed:
        print(f"FAILED {name}: {detail}")
    for name, (value, unit) in metrics.items():
        print(f"metric {name} {value:.6g} {unit}")
    print(json.dumps({
        "correct": correct,
        "attempted": len(bench.results),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
