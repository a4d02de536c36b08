"""Which pqlab functions the traced run wraps, and the per-layer metrics.

Each function is wrapped under the name its caller looks it up by:
``denoiser`` calls ``nn.conv1d`` through the ``nn`` module, so the ``nn``
attribute is wrapped; ``pq_game`` imports ``price``, ``p_price`` and
``contract_cashflows`` by name, so those are wrapped in ``pq_game``'s
namespace.  Span names use the defining module (``q_pricer.price.<product>``).

Metric suffixes (all times from spans of the workload's timed CLI calls,
except the set-up layers, which use every traced CLI call):

    .ms_p50 / .ms_p90   percentile of single-call durations
    .ms / .self_ms      busy (self) time per CLI call that used the layer,
                        median over those CLI calls
    .calls              calls per timed CLI call
"""

from __future__ import annotations

import os
import statistics
import struct

from pqlab import (denoiser, diffusion, market_paths, nn, objectives,
                   path_stats, pq_game, q_pricer, runconfig, sampler, training)

from .tracing import Tracer, percentile, self_times

PRODUCTS = ("european", "lookback", "asian", "accumulator", "snowball")
LOSS_TERMS = 7  # jump, vol, gvol, kurt, drift, pinball, spectral

# (Cin, Cout, L) of every conv in the acceptance toy U-Net
# (base_channels 16, depth 2, embeddings 16/16, input length 20)
CONV_SHAPES = (
    (33, 16, 20), (16, 16, 20), (48, 32, 10), (32, 32, 10),
    (64, 64, 5), (128, 32, 10), (80, 16, 20), (16, 1, 20),
)

SETUP_LAYERS = (
    "runconfig.load_config", "market_paths.synthesize_series",
    "market_paths.slice_dataset", "market_paths.load_slices",
    "training.save_checkpoint", "training.load_checkpoint",
)


_SUFFIX_UNITS = (
    (".gflop_per_s", "GFLOP/s_computed"), (".gflop", "GFLOP_computed"),
    (".ms_p50", "ms"), (".ms_p90", "ms"), (".ms", "ms"), ("_ms", "ms"),
    (".calls", "count"), (".spans", "count"), (".paths_simulated", "count"),
    (".batch", "rows"), ("_ratio", "ratio"), ("_share", "ratio"),
    (".bytes", "bytes"), (".ks_stat", "1"), (".qq_r2", "1"),
)


def unit_of(name: str) -> str:
    """Unit of a per-layer metric, read from its name's suffix."""
    for suffix, unit in _SUFFIX_UNITS:
        if name.endswith(suffix):
            return unit
    raise KeyError(f"no unit for metric {name!r}")


def conv_key(cin: int, cout: int, length: int) -> str:
    return f"nn.conv1d.{cin}x{cout}xL{length}"


def _product(contract) -> str:
    return type(contract).__name__.lower()


def _arg(args, kwargs, pos: int, key: str):
    return args[pos] if len(args) > pos else kwargs[key]


def _bits(x: float) -> bytes:
    return struct.pack("<d", x)


def _conv_name(args, kwargs):
    x, w = args[0], args[1]
    return conv_key(x.shape[1], w.shape[0], x.shape[2])


def _conv_flops(args, kwargs, result):
    x, w = args[0], args[1]
    batch, _, length = x.shape
    cout, cin, width = w.shape
    return {"flops": 2 * batch * cout * cin * width * length}


def _forward_name(args, kwargs):
    training = kwargs.get("training", args[6] if len(args) > 6 else False)
    return "denoiser.forward.train" if training else "denoiser.forward.infer"


def _forward_batch(args, kwargs, result):
    return {"batch": args[2].shape[0]}


def _loss_skipped(args, kwargs, result):
    breakdown = result[0] if isinstance(result, tuple) else result
    batch = args[0].shape[0]
    skipped = sum(count for _, count in breakdown.skipped)
    return {"skipped": skipped, "terms": LOSS_TERMS * batch}


def _clip_fired(args, kwargs, result):
    return {"clipped": result[1] > _arg(args, kwargs, 1, "max_norm")}


def _checkpoint_bytes(args, kwargs, result):
    return {"bytes": os.path.getsize(_arg(args, kwargs, 0, "path"))}


def _sample_key(args, kwargs, result):
    config = _arg(args, kwargs, 1, "config")
    condition = _arg(args, kwargs, 2, "condition")
    return {"key": (condition.as_array().tobytes(), config.seed, config.n_paths)}


def _q_paths(args, kwargs, result):
    return {"paths": _arg(args, kwargs, 1, "params").n_paths}


def _game_records(args, kwargs, result):
    """Count records that break trades == longs + shorts or zero-sum P&L."""
    bad = 0
    for outcome in result:
        rep = outcome.report
        if rep.trades != rep.longs + rep.shorts or rep.trades != len(outcome.records):
            bad += 1
        bad += sum(_bits(r.pnl_q) != _bits(-r.pnl_p) for r in outcome.records)
    return {"records": sum(len(o.records) for o in result), "bad_records": bad}


def instrument(tracer: Tracer) -> None:
    """Install span shims on every traced pqlab function."""
    wrap = tracer.wrap
    wrap(runconfig, "load_config")
    for attr in ("synthesize_series", "slice_dataset", "load_slices"):
        wrap(market_paths, attr)
    for attr in ("train_step", "make_batch", "adam_update", "load_checkpoint"):
        wrap(training, attr)
    wrap(training, "clip_global_norm", observe=_clip_fired)
    wrap(training, "save_checkpoint", observe=_checkpoint_bytes)
    wrap(objectives, "total_loss", observe=_loss_skipped)
    wrap(diffusion, "forward_diffuse")
    wrap(diffusion, "recover_eps")
    wrap(denoiser, "forward", name=_forward_name, observe=_forward_batch)
    wrap(denoiser, "backward")
    wrap(nn, "conv1d", name=_conv_name, observe=_conv_flops)
    for attr in ("conv1d_backward", "batchnorm", "batchnorm_backward"):
        wrap(nn, attr)
    wrap(sampler, "sample_paths", observe=_sample_key)
    wrap(sampler, "ddim_step")
    wrap(path_stats, "compare_condition")
    wrap(pq_game, "price", observe=_q_paths,
         name=lambda a, k: f"q_pricer.price.{_product(a[0])}")
    wrap(pq_game, "p_price", name="q_pricer.p_price")
    wrap(q_pricer, "discounted_values")
    wrap(pq_game, "contract_cashflows", name="payoffs.contract_cashflows")
    wrap(pq_game, "run_game", observe=_game_records,
         name=lambda a, k: f"pq_game.run_game.{_product(a[1])}")


class _View:
    """Spans grouped by name, restricted to a set of root (CLI call) spans."""

    def __init__(self, spans, selfs, roots):
        self.roots = sorted(roots)
        self.by_name: dict[str, list[int]] = {}
        for idx, span in enumerate(spans):
            if span.root in roots and span.root != idx:
                self.by_name.setdefault(span.name, []).append(idx)
        self.spans = spans
        self.selfs = selfs

    def idx(self, name):
        return self.by_name.get(name, [])

    def ms(self, name, q):
        return percentile([self.spans[i].duration / 1e6 for i in self.idx(name)], q)

    def per_call(self, name, use_self=False):
        """Median over CLI calls that used `name` of its summed time (ms)."""
        totals: dict[int, int] = {}
        for i in self.idx(name):
            t = self.selfs[i] if use_self else self.spans[i].duration
            totals[self.spans[i].root] = totals.get(self.spans[i].root, 0) + t
        return statistics.median(totals.values()) / 1e6 if totals else 0.0

    def calls(self, name):
        return len(self.idx(name)) / max(1, len(self.roots))

    def attr_sum(self, name, key):
        return sum(self.spans[i].attrs[key] for i in self.idx(name))


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, op_roots, all_roots) -> dict[str, float]:
    """Per-layer metrics from the spans under the given CLI-call roots."""
    spans = tracer.spans
    selfs = self_times(spans)
    ops = _View(spans, selfs, set(op_roots))
    every = _View(spans, selfs, set(all_roots))
    m: dict[str, float] = {}

    loss = ops.idx("objectives.total_loss")
    m["objectives.total_loss.ms_p50"] = ops.ms("objectives.total_loss", 50)
    m["objectives.total_loss.ms_p90"] = ops.ms("objectives.total_loss", 90)
    m["objectives.total_loss.self_share"] = _ratio(
        sum(selfs[i] for i in loss), sum(spans[i].duration for i in loss))
    m["objectives.total_loss.calls"] = ops.calls("objectives.total_loss")
    m["objectives.skipped_ratio"] = _ratio(
        ops.attr_sum("objectives.total_loss", "skipped"),
        ops.attr_sum("objectives.total_loss", "terms"))

    m["training.train_step.ms_p50"] = ops.ms("training.train_step", 50)
    m["training.train_step.ms_p90"] = ops.ms("training.train_step", 90)
    m["training.train_step.calls"] = ops.calls("training.train_step")
    for name in ("training.make_batch", "training.adam_update",
                 "training.clip_global_norm", "denoiser.forward.train",
                 "denoiser.backward", "diffusion.forward_diffuse",
                 "denoiser.forward.infer", "diffusion.recover_eps"):
        m[f"{name}.ms_p50"] = ops.ms(name, 50)
    m["training.clip_global_norm.clipped_ratio"] = _ratio(
        ops.attr_sum("training.clip_global_norm", "clipped"),
        len(ops.idx("training.clip_global_norm")))
    m["denoiser.forward.infer.calls"] = ops.calls("denoiser.forward.infer")
    m["denoiser.forward.infer.batch"] = statistics.median(
        [spans[i].attrs["batch"] for i in ops.idx("denoiser.forward.infer")] or [0])

    flops = 0
    conv_ns = 0
    for cin, cout, length in CONV_SHAPES:
        key = conv_key(cin, cout, length)
        m[f"{key}.ms_p50"] = ops.ms(key, 50)
        flops += ops.attr_sum(key, "flops")
        conv_ns += sum(spans[i].duration for i in ops.idx(key))
    m["nn.conv1d.gflop"] = flops / 1e9 / max(1, len(ops.roots))
    m["nn.conv1d.gflop_per_s"] = _ratio(flops, conv_ns)  # flop/ns == GFLOP/s
    for name in ("nn.conv1d_backward", "nn.batchnorm", "nn.batchnorm_backward"):
        m[f"{name}.ms"] = ops.per_call(name)

    m["sampler.sample_paths.ms_p50"] = ops.ms("sampler.sample_paths", 50)
    m["sampler.sample_paths.ms_p90"] = ops.ms("sampler.sample_paths", 90)
    m["sampler.sample_paths.calls"] = ops.calls("sampler.sample_paths")
    m["sampler.sample_paths.self_ms"] = ops.per_call("sampler.sample_paths", True)
    m["sampler.ddim_step.ms_p50"] = ops.ms("sampler.ddim_step", 50)
    # distinct (condition, seed, n_paths) per CLI call: repeated calls of a
    # workload redo the same samples by design, so they are not pooled
    keys: dict[int, list] = {}
    for i in ops.idx("sampler.sample_paths"):
        keys.setdefault(spans[i].root, []).append(spans[i].attrs["key"])
    m["sampler.distinct_ratio"] = statistics.median(
        [len(set(k)) / len(k) for k in keys.values()] or [0.0])

    m["path_stats.compare_condition.ms_p50"] = ops.ms("path_stats.compare_condition", 50)

    price_calls = 0
    for product in PRODUCTS:
        m[f"q_pricer.price.{product}.ms_p50"] = ops.ms(f"q_pricer.price.{product}", 50)
        price_calls += len(ops.idx(f"q_pricer.price.{product}"))
        m[f"pq_game.run_game.{product}.ms"] = ops.per_call(f"pq_game.run_game.{product}")
    m["q_pricer.price.calls"] = price_calls / max(1, len(ops.roots))
    m["q_pricer.discounted_values.ms_p50"] = ops.ms("q_pricer.discounted_values", 50)
    m["q_pricer.p_price.ms_p50"] = ops.ms("q_pricer.p_price", 50)
    m["q_pricer.paths_simulated"] = sum(
        ops.attr_sum(f"q_pricer.price.{p}", "paths") for p in PRODUCTS
    ) / max(1, len(ops.roots))
    m["payoffs.contract_cashflows.ms_p50"] = ops.ms("payoffs.contract_cashflows", 50)
    game_self = [ops.per_call(f"pq_game.run_game.{p}", True) for p in PRODUCTS]
    m["pq_game.run_game.self_ms"] = sum(game_self)

    for name in SETUP_LAYERS:
        m[f"{name}.ms"] = every.per_call(name)
    saved = every.idx("training.save_checkpoint")
    m["training.save_checkpoint.bytes"] = statistics.median(
        [spans[i].attrs["bytes"] for i in saved] or [0])
    return m


def game_record_failures(tracer: Tracer, op_roots) -> tuple[int, int]:
    """(records checked, records breaking the zero-sum / count identities)."""
    roots = set(op_roots)
    checked = bad = 0
    for span in tracer.spans:
        if span.root in roots and "bad_records" in span.attrs:
            checked += span.attrs["records"]
            bad += span.attrs["bad_records"]
    return checked, bad
