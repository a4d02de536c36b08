"""Command line entry point: prepare, train, sample, validate, game.

Every command is a pure function of (config file, input files, seeds):
rerunning a command with the same inputs rewrites byte-identical outputs,
each whole or not at all (``mp.artifact``), but for the rows `train`
appends to its two logs as it iterates ``training.steps``, flushed before
every snapshot.  Each command drops ``config.ini``, the resolved
configuration it ran with, into the output directory.

Artifact layout under [run] out_dir:

    config.ini             resolved config echo (every command)
    slices.npz             slice store          (prepare)
    dataset.manifest       counts and scale     (prepare)
    loss_log.csv           per-step loss rows   (train)
    train_trace.csv        per-step gradient norm, clip flag, skipped terms (train)
    checkpoint.npz         final state          (train)
    checkpoint_step<N>.npz cadence snapshots    (train, optional)
    paths_slice<I>.csv     sampled bundle       (sample)
    table_5_1.csv          validation summary   (validate)
    validate_conditions.csv  per-condition metrics (validate)
    game_<product>_<level>.csv  one level row   (game)
    game_<product>.txt     aligned level table  (game)
    game_<product>_slices.csv  per-slice fair, P and realized values, side per level (game)

`game` values the whole book in one pass over the test slices
(``pq_game.value_slices``): each slice's P paths are sampled once and its Q
paths simulated once, and every product is valued on both, so its files
do not depend on which other products share the run.  One sampler run
streams every test slice's P paths in order, and consecutive slices that
fit one sampling chunk share each DDIM step's network call.

Every command reads and checks both groups' columns of ``slices.npz``, but
builds PathSlices only for the groups it reads: `train` for both, the
others for the test group alone.  A checkpoint is only used over the data
it was trained on: its return scale must be ``dataset.manifest``'s.

Exit codes: 0 success, 2 configuration error, 3 data error, 4 numeric
failure; an out_dir that cannot be made is a configuration error.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from dataclasses import replace
from functools import cache

import numpy as np

from . import market_paths as mp
from . import path_stats, pq_game, runconfig, sampler, training
from .denoiser import DenoiserConfig
from .errors import ConfigError, DataError, PQLabError
from .objectives import LOSS_CSV_HEADER, format_loss_row

# Salt mixed into a test slice's seed, child_seed(game seed, slice index), to
# give its P sampling stream.
P_SOURCE_SALT = 0x50


def _ensure_out_dir(cfg: runconfig.RunConfig) -> str:
    try:
        os.makedirs(cfg.out_dir, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"[run] out_dir {cfg.out_dir!r}: {exc}") from exc
    return cfg.out_dir


def _echo_config(cfg: runconfig.RunConfig) -> None:
    with mp.artifact(os.path.join(cfg.out_dir, "config.ini")) as fh:
        fh.write(runconfig.resolved_text(cfg))


def _load_dataset(cfg: runconfig.RunConfig):
    d = cfg.data
    if d.source == "synthetic":
        series = mp.synthesize_series(d.generator_config(), seed=d.seed)
        rates = {w: mp.RateTable(w, [d.start_date], [d.rate]) for w in d.windows}
        return series, rates
    series = mp.load_series_csv(d.series_csv)
    rates = mp.load_rates_csv(d.rates_csv)
    missing = sorted(set(d.windows) - set(rates))
    if missing:
        raise DataError(
            f"{d.rates_csv} has no rate quotes for tenor(s) "
            f"{', '.join(str(m) for m in missing)}"
        )
    return series, rates


def _slices_path(cfg: runconfig.RunConfig) -> str:
    return os.path.join(cfg.out_dir, "slices.npz")


def _manifest_path(cfg: runconfig.RunConfig) -> str:
    return os.path.join(cfg.out_dir, "dataset.manifest")


def _mismatch(cfg: runconfig.RunConfig, what: str) -> DataError:
    return DataError(f"{_slices_path(cfg)} and {_manifest_path(cfg)} do not belong "
                     f"together ({what}); run `prepare` again")


def _load_slices(cfg: runconfig.RunConfig):
    """The slice store (``mp.load_slices``, no group unpacked yet) and the
    prepared return scale from dataset.manifest.

    ``prepare`` writes the two files one after the other, so a run stopped
    between the writes can leave one beside the other's predecessor: both
    groups' slice counts and ``l_max`` must match the manifest's.
    """
    path = _slices_path(cfg)
    if not os.path.isfile(path):
        raise DataError(f"slice store not found: {path}; run `prepare` first")
    split = mp.load_slices(path)
    manifest_path = _manifest_path(cfg)
    if not os.path.isfile(manifest_path):
        raise DataError(
            f"dataset manifest not found: {manifest_path}; run `prepare` first"
        )
    manifest = mp.read_manifest(manifest_path)
    scale = mp.manifest_value(manifest, "return_scale", float, manifest_path)
    if not (math.isfinite(scale) and scale > 0.0):
        raise DataError(f"{manifest_path}: return_scale must be finite and > 0, got {scale}")
    found = {"l_max": split.l_max, "train_slices": split.count("train"),
             "test_slices": split.count("test")}
    for key, value in found.items():
        listed = mp.manifest_value(manifest, key, int, manifest_path)
        if listed != value:
            raise _mismatch(cfg, f"{key}: the store has {value}, the manifest {listed}")
    return split, scale


def _resolve_checkpoint(cfg: runconfig.RunConfig, override) -> str:
    path = override or os.path.join(cfg.out_dir, "checkpoint.npz")
    if not os.path.isfile(path):
        raise DataError(f"checkpoint not found: {path}; run `train` first")
    return path


def _load_checkpoint(cfg: runconfig.RunConfig, path: str, scale: float):
    """The checkpoint at ``path``, trained at ``scale``, the prepared return
    scale: a checkpoint of other prepared data is a DataError naming both
    files, raised before any sample is drawn or step is run."""
    state = training.load_checkpoint(path)
    if state.return_scale != scale:
        raise DataError(f"{path} was trained at return_scale {state.return_scale!r}, "
                        f"but {_manifest_path(cfg)} has {scale!r}: the checkpoint "
                        "belongs to other prepared data")
    return state


def _resolve_length(model: runconfig.ModelSection, l_max: int) -> int:
    """The configured input length (a multiple of 2**depth, checked at load),
    or l_max rounded up to one."""
    block = 2 ** model.depth
    if model.input_length:
        if model.input_length < l_max:
            raise ConfigError(
                f"input_length {model.input_length} is shorter than the "
                f"longest slice ({l_max})"
            )
        return model.input_length
    return max(l_max + (-l_max % block), block)


def _net_config(cfg: runconfig.RunConfig, l_max: int) -> DenoiserConfig:
    return cfg.model.denoiser_config(_resolve_length(cfg.model, l_max))


def cmd_prepare(cfg: runconfig.RunConfig) -> int:
    _ensure_out_dir(cfg)
    series, rates = _load_dataset(cfg)
    split = mp.slice_dataset(
        series, rates, cfg.data.windows, cfg.data.split_date, stride=cfg.data.stride
    )
    n_train, n_test = split.count("train"), split.count("test")
    if not n_train:
        raise DataError("no training slices survived; widen the series or shrink windows")
    if not n_test:
        raise DataError("no test slices survived; move split_date earlier or extend the series")
    scale = training.pooled_return_scale(split.columns["train"]["returns"])
    mp.save_slices(_slices_path(cfg), split)
    manifest = {
        "train_slices": n_train,
        "test_slices": n_test,
        "l_max": split.l_max,
        "return_scale": repr(scale),
        "source": cfg.data.source,
        "windows": ",".join(str(w) for w in cfg.data.windows),
        "split_date": cfg.data.split_date,
    }
    for name, count in sorted(split.skipped.items()):
        manifest[f"skipped_{name}"] = count
    mp.write_manifest(_manifest_path(cfg), manifest)
    _echo_config(cfg)
    print(
        f"prepared {n_train} train / {n_test} test slices "
        f"(l_max={split.l_max}, return_scale={scale:.6g})"
    )
    return 0


def _log_head(path: str, header: str, step: int) -> str:
    """The text a per-step log starts from when training resumes after ``step``.

    At step 0 that is the header alone.  After it, an existing log keeps its
    header and its rows of steps 1..step, and drops the rest (the rows of a
    run stopped after the checkpoint); a missing one starts fresh.  A log
    with another header, fewer rows, or rows that are not steps 1..step in
    order is a DataError naming it.
    """
    if step == 0 or not os.path.isfile(path):
        return header + "\n"
    try:
        with open(path, encoding="utf-8", newline="") as fh:
            lines = fh.readlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    if not lines or lines[0].rstrip("\r\n") != header:
        raise DataError(f"{path}: the header is not {header!r}")
    steps = [line.split(",", 1)[0] for line in lines[1 : step + 1]]
    if steps != [str(i) for i in range(1, step + 1)]:
        raise DataError(f"{path}: cannot resume at step {step}: the log does not "
                        f"hold the rows of steps 1..{step} in order")
    return "".join(lines[: step + 1])


def _append(path: str):
    """``path`` open for appending text rows; an OSError is a DataError naming it."""
    try:
        return open(path, "a", newline="")
    except OSError as exc:
        raise DataError(f"cannot append to {path}: {exc}") from exc


def cmd_train(cfg: runconfig.RunConfig, resume=None) -> int:
    out = _ensure_out_dir(cfg)
    split, scale = _load_slices(cfg)
    if training.pooled_return_scale(split.columns["train"]["returns"]) != scale:
        raise _mismatch(cfg, "the train slices' return scale is not the manifest's")
    sched = cfg.schedule.noise_schedule()
    net = _net_config(cfg, split.l_max)
    log_path = os.path.join(out, "loss_log.csv")
    trace_path = os.path.join(out, "train_trace.csv")
    if resume:
        state = _load_checkpoint(cfg, resume, scale)
        if state.net != net:
            raise ConfigError("checkpoint network layout differs from config")
        if state.mode != cfg.model.mode:
            raise ConfigError(
                f"checkpoint mode {state.mode!r} differs from config "
                f"{cfg.model.mode!r}"
            )
        if not np.array_equal(state.sched.beta, sched.beta):
            raise ConfigError("checkpoint noise schedule differs from config")
        if state.step > cfg.train.steps:
            raise ConfigError(
                f"checkpoint already at step {state.step} > steps {cfg.train.steps}"
            )
    else:
        state = training.init_state(net, sched, cfg.model.mode, scale, cfg.train.seed)
    log_head = _log_head(log_path, LOSS_CSV_HEADER, state.step)
    trace_head = _log_head(trace_path, training.TRACE_CSV_HEADER, state.step)

    for path, head in ((log_path, log_head), (trace_path, trace_head)):
        with mp.artifact(path) as log:
            log.write(head)
    # the logs stream their rows in place, flushed before each snapshot is saved
    every = cfg.train.checkpoint_every
    try:
        with _append(log_path) as fh, _append(trace_path) as trace_fh:
            for step, breakdown, norm in training.steps(split.train, state, cfg.train,
                                                        cfg.loss):
                fh.write(format_loss_row(step, breakdown) + "\n")
                trace_fh.write(training.format_trace_row(step, norm, cfg.train.clip_norm,
                                                         breakdown) + "\n")
                if every and step % every == 0:
                    fh.flush()
                    trace_fh.flush()
                    training.save_checkpoint(
                        os.path.join(out, f"checkpoint_step{step}.npz"), state)
    except OSError as exc:  # a write, a flush or the closing flush of a log
        raise DataError(f"cannot append to {log_path} or {trace_path}: {exc}") from exc
    training.save_checkpoint(os.path.join(out, "checkpoint.npz"), state)
    _echo_config(cfg)
    print(f"trained to step {state.step}; wrote {os.path.join(out, 'checkpoint.npz')}")
    return 0


def cmd_sample(cfg: runconfig.RunConfig, checkpoint=None, slice_idx: int = 0) -> int:
    out = _ensure_out_dir(cfg)
    split, scale = _load_slices(cfg)
    state = _load_checkpoint(cfg, _resolve_checkpoint(cfg, checkpoint), scale)
    if not 0 <= slice_idx < len(split.test):
        raise ConfigError(
            f"slice index {slice_idx} out of range (have {len(split.test)} test slices)"
        )
    s = split.test[slice_idx]
    paths = sampler.sample_paths(state.model(), cfg.sampler, s.condition, state.sched)
    bundle = os.path.join(out, f"paths_slice{slice_idx}.csv")
    sampler.write_path_bundle(bundle, paths, s.condition, cfg.sampler)
    _echo_config(cfg)
    print(f"wrote {paths.shape[0]} paths x {paths.shape[1]} steps to {bundle}")
    return 0


def cmd_validate(cfg: runconfig.RunConfig, checkpoint=None) -> int:
    out = _ensure_out_dir(cfg)
    split, scale = _load_slices(cfg)
    state = _load_checkpoint(cfg, _resolve_checkpoint(cfg, checkpoint), scale)
    model = state.model()
    slices = split.test
    if cfg.validate.max_conditions:
        slices = slices[: cfg.validate.max_conditions]
    if not slices:
        raise DataError("no test slices to validate against")
    rows = []
    for i, s in enumerate(slices):
        scfg = replace(cfg.sampler, seed=mp.child_seed(cfg.sampler.seed, i),
                       n_paths=cfg.validate.n_paths)
        gen = sampler.sample_paths(model, scfg, s.condition, state.sched)
        rows.append(path_stats.compare_condition(s.log_returns, gen))
    report = path_stats.aggregate_report(rows)
    path_stats.write_table_csv(os.path.join(out, "table_5_1.csv"), report)
    path_stats.write_conditions_csv(os.path.join(out, "validate_conditions.csv"), report)
    _echo_config(cfg)
    print(f"validated {len(rows)} conditions")
    for metric in path_stats.METRICS:
        print(f"{metric:12s} mean={report.mean(metric):.6f} std={report.std(metric):.6f}")
    return 0


def _model_p_source(model, sched, cfg: runconfig.RunConfig, test_slices):
    """P's price paths for each test slice, from one sampler stream.

    Slice idx's P seed is child_seed(child_seed(game seed, idx),
    P_SOURCE_SALT), the same for every product.  ``value_slices`` asks for
    the slices in order, so each call takes the stream's next array; a
    slice asked out of that order is a DataError.
    """
    scfg = replace(cfg.sampler, n_paths=cfg.game.p_paths)
    requests = [(s.condition, mp.child_seed(mp.child_seed(cfg.game.seed, idx), P_SOURCE_SALT))
                for idx, s in enumerate(test_slices)]
    stream = sampler.sample_requests(model, scfg, requests, sched)
    expected = iter(test_slices)

    def source(s, q_params):
        if s is not next(expected, None):
            raise DataError("P paths must be asked for in test-slice order")
        return mp.to_prices(s.s0, next(stream))

    return source


def cmd_game(cfg: runconfig.RunConfig, checkpoint=None) -> int:
    out = _ensure_out_dir(cfg)
    split, scale = _load_slices(cfg)
    state = _load_checkpoint(cfg, _resolve_checkpoint(cfg, checkpoint), scale)
    p_source = _model_p_source(state.model(), state.sched, cfg, split.test)
    contracts = [cfg.contracts.build(product) for product in cfg.game.products]
    values = pq_game.value_slices(split.test, contracts, p_source, cfg.game,
                                  threads=cfg.threads)
    for product, contract, book_values in zip(cfg.game.products, contracts, values):
        outcomes = pq_game.run_game(book_values, contract, cfg.game)
        reports = [o.report for o in outcomes]
        for report in reports:
            name = f"game_{product}_{repr(float(report.level))}.csv"
            pq_game.write_game_csv(os.path.join(out, name), [report])
        pq_game.write_slices_csv(os.path.join(out, f"game_{product}_slices.csv"),
                                 book_values, outcomes)
        table = pq_game.format_game_table(reports, title=product)
        with mp.artifact(os.path.join(out, f"game_{product}.txt")) as fh:
            fh.write(table)
        print(table, end="")
    _echo_config(cfg)
    return 0


def _apply_overrides(cfg: runconfig.RunConfig, args) -> runconfig.RunConfig:
    if args.out_dir:
        cfg = replace(cfg, out_dir=args.out_dir)
    if args.threads is not None:
        cfg = replace(cfg, threads=args.threads)
    if getattr(args, "steps", None) is not None:
        cfg = replace(cfg, train=replace(cfg.train, steps=args.steps))
    if getattr(args, "product", None):
        cfg = replace(
            cfg, game=replace(cfg.game, products=(args.product.strip().lower(),))
        )
    if getattr(args, "levels", None):
        try:
            levels = runconfig.parse_floats(args.levels)
        except ValueError as exc:
            raise ConfigError(f"--levels {args.levels!r}: {exc}") from exc
        cfg = replace(cfg, game=replace(cfg.game, levels=levels))
    return cfg


@cache  # one parser per process: building one takes about 0.7 ms and leaves cyclic garbage
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pqlab",
        description="Diffusion path generator, exotic pricing, and the P-Q quoting game.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("config", help="run configuration INI file")
        p.add_argument("--out-dir", default=None, help="override [run] out_dir")
        p.add_argument("--threads", type=int, default=None, help="cap worker count")

    p_prepare = sub.add_parser("prepare", help="slice the series into a dataset store")
    common(p_prepare)

    p_train = sub.add_parser("train", help="fit the denoiser on prepared slices")
    common(p_train)
    p_train.add_argument("--resume", default=None, help="checkpoint to continue from")
    p_train.add_argument("--steps", type=int, default=None, help="override [train] steps")

    p_sample = sub.add_parser("sample", help="draw paths for one test condition")
    common(p_sample)
    p_sample.add_argument("--checkpoint", default=None, help="checkpoint file")
    p_sample.add_argument("--slice", type=int, default=0, dest="slice_idx",
                          help="test slice index")

    p_validate = sub.add_parser("validate", help="compare generated vs held-out paths")
    common(p_validate)
    p_validate.add_argument("--checkpoint", default=None, help="checkpoint file")

    p_game = sub.add_parser("game", help="run the quoting game over test slices")
    common(p_game)
    p_game.add_argument("--checkpoint", default=None, help="checkpoint file")
    p_game.add_argument("--product", default=None, help="play a single product")
    p_game.add_argument("--levels", default=None,
                        help="comma-separated greediness levels")

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = _apply_overrides(runconfig.load_config(args.config), args)
        if args.command == "prepare":
            return cmd_prepare(cfg)
        if args.command == "train":
            return cmd_train(cfg, resume=args.resume)
        if args.command == "sample":
            return cmd_sample(cfg, checkpoint=args.checkpoint,
                              slice_idx=args.slice_idx)
        if args.command == "validate":
            return cmd_validate(cfg, checkpoint=args.checkpoint)
        if args.command == "game":
            return cmd_game(cfg, checkpoint=args.checkpoint)
        raise ConfigError(f"unknown command {args.command!r}")
    except PQLabError as exc:
        print(f"pqlab: error: {exc}", file=sys.stderr)
        return getattr(exc, "exit_code", 1)


if __name__ == "__main__":
    sys.exit(main())
