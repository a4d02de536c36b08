"""The three workloads: generated inputs, set-up, timed CLI calls, checks.

Every workload is a closed loop of one client that calls the public entry
``pqlab.cli.main`` in this process with an INI file generated from the
workload seed.  The set-up (prepare, plus a checkpoint for ``validate`` and
``game``) is repeated and timed on its own; the timed loop then repeats one
CLI call until the measuring time is used up.  Every call's artifacts must
be byte-identical to the first call's, and the first call's artifacts pass
the workload's output checks.
"""

from __future__ import annotations

import csv
import hashlib
import io
import math
import os
import random
import resource
import shutil
import statistics
import time
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass

from pqlab import cli, market_paths, path_stats, pq_game, runconfig, training

from . import layers
from .tracing import Tracer

WORKLOADS = ("train", "validate", "game")

# end-to-end metrics: name -> unit
E2E_UNITS = {
    "setup_s": "s",
    "throughput_per_s": "1/s",
    "peak_rss_mb": "MB",
    "train_loss_tail": "loss",
}
# what one unit of throughput is, per workload
WORK_UNIT = {"train": "steps", "validate": "conditions", "game": "valuations"}


@dataclass(frozen=True)
class Plan:
    """Sizes of one run; every field is written into the generated INI.

    The model is the acceptance toy model (windows 30, L = 20, 16 base
    channels, depth 2, v-prediction, 200 diffusion steps).  The split date
    leaves 6 test slices of the 700-day synthetic series.  Timed calls are
    kept short (about 2 s) so that a run holds many of them.
    """

    n_days: int = 700
    split_date: str = "2016-10-22"
    timesteps: int = 200
    checkpoint_steps: int = 30   # set-up training for validate and game
    train_steps: int = 30        # steps per timed `train` call
    batch_size: int = 64
    conditions: int = 2          # test conditions per timed `validate` call
    validate_paths: int = 200
    validate_ddim_steps: int = 20
    p_paths: int = 32
    game_ddim_steps: int = 10
    q_paths: int = 20_000
    setup_repeats: int = 3       # set up at least this often ...
    setup_seconds: float = 3.0   # ... and until this much set-up time is spent


FULL = Plan()
# Same model shapes (so the same span names), far less work per call;
# used by the benchmark's own tests.
SMALL = Plan(split_date="2016-10-25", timesteps=40, checkpoint_steps=2,
             train_steps=3, batch_size=8, conditions=1, validate_paths=16,
             validate_ddim_steps=2, p_paths=4, game_ddim_steps=2, q_paths=64,
             setup_repeats=2, setup_seconds=0.0)


def make_ini(workload: str, seed: int, out_dir: str, plan: Plan) -> str:
    """The run configuration; all of its seeds derive from the workload seed."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = random.Random(seed)
    data_seed, train_seed, sampler_seed, game_seed = (
        rng.randrange(2**31) for _ in range(4))
    steps = plan.train_steps if workload == "train" else plan.checkpoint_steps
    if workload == "game":
        ddim_steps, eta = plan.game_ddim_steps, 1.0
    else:
        ddim_steps, eta = plan.validate_ddim_steps, 0.0
    return f"""\
[run]
out_dir = {out_dir}
threads = 1

[data]
source = synthetic
n_days = {plan.n_days}
windows = 30
split_date = {plan.split_date}
seed = {data_seed}

[schedule]
timesteps = {plan.timesteps}

[model]
base_channels = 16
depth = 2
time_embed_dim = 16
cond_embed_dim = 16
cond_hidden_dim = 32
mode = v

[train]
steps = {steps}
batch_size = {plan.batch_size}
lr = 0.001
seed = {train_seed}

[sampler]
num_steps = {ddim_steps}
eta = {eta!r}
seed = {sampler_seed}

[validate]
n_paths = {plan.validate_paths}
max_conditions = {plan.conditions}

[game]
products = {", ".join(layers.PRODUCTS)}
q_paths = {plan.q_paths}
p_paths = {plan.p_paths}
seed = {game_seed}
"""


def loss_tail(path: str) -> float:
    """Mean `total` over the last tenth (at least one) of the loss log rows."""
    with open(path, newline="") as fh:
        totals = [float(row["total"]) for row in csv.DictReader(fh)]
    tail = totals[-max(1, len(totals) // 10):]
    return math.fsum(tail) / len(tail)


def read_table(path: str) -> dict[str, float]:
    """metric -> mean from table_5_1.csv."""
    with open(path, newline="") as fh:
        return {row["metric"]: float(row["mean"]) for row in csv.DictReader(fh)}


class Runner:
    """One workload's work directory, CLI calls and failure bookkeeping."""

    def __init__(self, workload: str, seed: int, plan: Plan, work_dir: str):
        self.workload = workload
        self.seed = seed
        self.plan = plan
        self.out = os.path.join(work_dir, "out")
        self.ini = os.path.join(work_dir, "run.ini")
        self.attempted = 0
        self.failed: dict[int, str] = {}
        self.tracer: Tracer | None = None
        self.roots: dict[str, list[int]] = {"setup": [], "ops": []}

    def fail(self, message: str) -> None:
        """Mark the latest CLI call as failed (once) with its first reason."""
        self.failed.setdefault(self.attempted, message)

    def cli(self, argv: list[str], phase: str) -> float:
        """One in-process CLI call; returns its wall time in seconds."""
        self.attempted += 1
        out, err = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        try:
            with redirect_stdout(out), redirect_stderr(err):
                if self.tracer is None:
                    code = cli.main(argv)
                else:
                    self.roots[phase].append(len(self.tracer.spans))
                    with self.tracer.span(f"cli.{argv[0]}"):
                        code = cli.main(argv)
        except Exception as exc:  # a traceback is a failed call, not a crash
            code = f"{type(exc).__name__}: {exc}"
        wall = time.perf_counter() - start
        if code != 0:
            self.fail(f"`pqlab {' '.join(argv)}` -> {code}: {err.getvalue()[-400:]}")
        return wall

    def set_up(self) -> None:
        shutil.rmtree(self.out, ignore_errors=True)
        os.makedirs(os.path.dirname(self.ini), exist_ok=True)
        with open(self.ini, "w") as fh:
            fh.write(make_ini(self.workload, self.seed, self.out, self.plan))
        self.cli(["prepare", self.ini], "setup")
        if self.workload != "train":
            self.cli(["train", self.ini], "setup")

    def op(self) -> float:
        return self.cli([self.workload, self.ini], "ops")

    def test_slices(self) -> int:
        manifest = market_paths.read_manifest(os.path.join(self.out, "dataset.manifest"))
        return int(manifest["test_slices"])

    def units_per_op(self) -> int:
        if self.workload == "train":
            return self.plan.train_steps
        if self.workload == "validate":
            return min(self.plan.conditions, self.test_slices())
        return self.test_slices() * len(layers.PRODUCTS)

    def artifacts(self, setup: bool = False) -> list[str]:
        if setup:
            names = ["slices.npz", "dataset.manifest"]
            return names + ([] if self.workload == "train"
                            else ["loss_log.csv", "checkpoint.npz"])
        if self.workload == "train":
            return ["config.ini", "loss_log.csv", "checkpoint.npz"]
        if self.workload == "validate":
            return ["config.ini", "table_5_1.csv"]
        names = ["config.ini"]
        for product in layers.PRODUCTS:
            contract = runconfig.ContractsSection().build(product)
            names += [f"game_{product}_{float(level)!r}.csv"
                      for level in pq_game.default_levels(contract)]
            names.append(f"game_{product}.txt")
        return names

    def snapshot(self, setup: bool = False) -> dict[str, str]:
        digests = {}
        for name in self.artifacts(setup):
            path = os.path.join(self.out, name)
            if os.path.isfile(path):
                with open(path, "rb") as fh:
                    digests[name] = hashlib.sha256(fh.read()).hexdigest()
        return digests

    def same_as(self, reference: dict[str, str], setup: bool = False) -> None:
        now = self.snapshot(setup)
        changed = sorted(n for n in set(reference) | set(now)
                         if reference.get(n) != now.get(n))
        if changed:
            self.fail(f"rerun changed {', '.join(changed)}")

    def check_outputs(self) -> None:
        """The workload's output checks on the latest call's artifacts."""
        missing = [n for n in self.artifacts() if not os.path.isfile(os.path.join(self.out, n))]
        if missing:
            self.fail(f"missing artifacts: {', '.join(missing)}")
            return
        try:
            if self.workload == "train":
                self._check_train()
            elif self.workload == "validate":
                self._check_validate()
        except Exception as exc:  # an unreadable artifact fails the check
            self.fail(f"output check raised {type(exc).__name__}: {exc}")

    def _check_train(self) -> None:
        with open(os.path.join(self.out, "loss_log.csv"), newline="") as fh:
            rows = list(csv.reader(fh))[1:]
        if len(rows) != self.plan.train_steps:
            self.fail(f"loss_log.csv has {len(rows)} rows, want {self.plan.train_steps}")
        if not all(math.isfinite(float(v)) for row in rows for v in row):
            self.fail("loss_log.csv has a non-finite value")
        state = training.load_checkpoint(os.path.join(self.out, "checkpoint.npz"))
        if state.step != self.plan.train_steps:
            self.fail(f"checkpoint at step {state.step}, want {self.plan.train_steps}")

    def _check_validate(self) -> None:
        table = read_table(os.path.join(self.out, "table_5_1.csv"))
        if sorted(table) != sorted(path_stats.METRICS):
            self.fail(f"table_5_1.csv metrics {sorted(table)}")
        elif not all(math.isfinite(v) for m, v in table.items() if m != "qq_r2"):
            self.fail("table_5_1.csv has a non-finite mean")


def _timed_loop(runner: Runner, seconds: float, reference) -> list[float]:
    """Repeat the workload's CLI call until `seconds` have passed (at least once)."""
    walls = []
    deadline = time.perf_counter() + seconds
    while True:
        walls.append(runner.op())
        runner.same_as(reference)
        if time.perf_counter() >= deadline:
            return walls


def run(workload: str, seed: int, seconds: float, trace: bool,
        work_dir: str, plan: Plan = FULL) -> dict:
    """Run one workload; returns the result object (see run.py)."""
    runner = Runner(workload, seed, plan, work_dir)
    samples: dict[str, list[float]] = {}
    try:
        metrics = _measure(runner, seconds, trace, samples)
    except Unmeasurable:
        metrics = {}
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    return {
        "correct": not runner.failed,
        "attempted": runner.attempted,
        "failed": len(runner.failed),
        "metrics": metrics,
        "failures": [runner.failed[k] for k in sorted(runner.failed)],
        "samples": samples,
    }


def _measure(runner: Runner, seconds: float, trace: bool, samples: dict) -> dict:
    """The run's metrics; `samples` receives the wall times (s) behind them."""
    tracer = Tracer() if trace else None
    if tracer is not None:
        layers.instrument(tracer)
        runner.tracer = tracer
    setup_walls = samples["setup"] = []
    setup_ref = None
    try:
        while not setup_walls or not trace and (
                len(setup_walls) < runner.plan.setup_repeats
                or sum(setup_walls) < runner.plan.setup_seconds):
            start = time.perf_counter()
            runner.set_up()
            setup_walls.append(time.perf_counter() - start)
            if runner.failed:
                raise Unmeasurable()
            if setup_ref is None:
                setup_ref = runner.snapshot(setup=True)
            else:
                runner.same_as(setup_ref, setup=True)
    finally:
        if tracer is not None:
            tracer.restore()
            runner.tracer = None

    # warm-up call: its artifacts are checked and become the reference
    runner.op()
    runner.check_outputs()
    if runner.failed:
        raise Unmeasurable()
    reference = runner.snapshot()
    units = runner.units_per_op()
    if not trace:
        walls = samples["timed calls"] = _timed_loop(runner, seconds, reference)
        return {
            "setup_s": statistics.median(setup_walls),
            "throughput_per_s": statistics.median(units / w for w in walls),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "train_loss_tail": loss_tail(os.path.join(runner.out, "loss_log.csv")),
        }

    # the same number of calls untraced, then traced: the difference is
    # the tracing overhead, and the traced artifacts must stay identical
    plain = samples["untraced calls"] = _timed_loop(runner, seconds / 2.0, reference)
    first_span = len(tracer.spans)
    layers.instrument(tracer)
    runner.tracer = tracer
    try:
        traced = samples["traced calls"] = []
        for _ in plain:
            traced.append(runner.op())
            runner.same_as(reference)
    finally:
        tracer.restore()
        runner.tracer = None
    checked, bad = layers.game_record_failures(tracer, runner.roots["ops"])
    if bad:
        runner.fail(f"{bad} of {checked} game records break trades/zero-sum identities")
    metrics = layers.layer_metrics(
        tracer, runner.roots["ops"], runner.roots["setup"] + runner.roots["ops"])
    table = os.path.join(runner.out, "table_5_1.csv")
    quality = read_table(table) if runner.workload == "validate" else {}
    metrics["path_stats.table.ks_stat"] = quality.get("ks_stat", 0.0)
    metrics["path_stats.table.qq_r2"] = quality.get("qq_r2", 0.0)
    base = statistics.median(plain)
    overhead = statistics.median(traced) - base
    metrics["trace.overhead_ms"] = overhead * 1e3
    metrics["trace.overhead_share"] = overhead / base
    metrics["trace.spans"] = (len(tracer.spans) - first_span) / len(traced)
    return metrics


class Unmeasurable(RuntimeError):
    """The set-up or the first timed call failed; nothing can be measured."""
