"""Monte Carlo experiment engine, configuration, and result persistence.

Experiments are pure functions of (config, master_seed): the channels of
all users of draw d come from one generator, the PCG64 stream of
SeedSpec(master_seed).derive("chan") jumped d times, and reductions run in
draw order, so outputs are byte-identical across reruns, block sizes and
worker counts.
"""

import csv
import hashlib
import json
import math
import numbers
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, fields

import numpy as np

from . import __version__
from .bounds import c_nt, empirical_D, empirical_D_block, lemma2_bound, lemma3_bound, lemma3_validity_threshold
from .channel import SystemParams, draw_channel_stack, effective_block
from .channel import draw_user_channel, mrc_effective_channel  # noqa: F401  (perfbench/spans.py wraps these names)
from .codebook import (
    Codebook,
    NotTightFrameError,
    canonical_onb,
    concat_codebooks,
    dft_codebook,
    frame_constant,
    load_codebook,
    random_unitary,
    rvq_codebook,
)
from .feedback import (
    STRATEGIES,
    _require_subset,
    chordal_feedback_block,
    cross_gram,
    efficient_feedback_block,
    feedback_vectors,
    gap_samples_delta_ra,
    lemma1_feedback_block,
    ra_feedback_batch,
    scheduling_configs,
)
from .feedback import compute_feedback, feedback_vector, gap_sample_delta_ra  # noqa: F401  (perfbench/spans.py wraps these names)
from .numerics import SeedSpec
from .rates import rate_with_beams  # noqa: F401  (perfbench/spans.py wraps this name)
from .scheduler import realize_rates_block, schedule_bruteforce_block, schedule_greedy_block, zf_schedule_block
from .scheduler import realize_rates, schedule_bruteforce, zf_decision_for, zf_schedule  # noqa: F401  (perfbench/spans.py wraps these names)

CDF_GRID_POINTS = 200

_SYSTEM_KEYS = ("n_t", "n_r", "n_s")
_TX_CODEBOOK_KINDS = ("canonical", "dft", "random-unitary", "file")
_FB_CODEBOOK_KINDS = ("rvq", "rvq-union-tx", "file")


def _integer(name, value):
    """`value` as an int; a boolean or a non-integral number is an error."""
    integral = isinstance(value, numbers.Integral) or (isinstance(value, float) and value.is_integer())
    if isinstance(value, bool) or not integral:
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


def _real(name, value):
    """`value` itself if it is a real number; a boolean is an error."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{name} must be a number, got {value!r}")
    return value


@dataclass(frozen=True)
class SimConfig:
    params: SystemParams
    num_users: int = 10
    num_draws: int = 1000
    snr_db_list: tuple = (10.0,)
    B: int = 4
    transmit_codebook: dict = field(default_factory=lambda: {"kind": "canonical"})
    feedback_codebook: dict = field(default_factory=lambda: {"kind": "rvq-union-tx"})
    strategy: str = "ra-full"
    scheduler: str = "greedy"
    precoder: str = "fixed-codebook"
    F: int = 1
    rho: float = 0.95
    master_seed: int = 12345
    workers: int = 1
    b_list: tuple = ()

    def __post_init__(self):
        for name, least in (("num_draws", 1), ("num_users", 1), ("B", 0), ("F", 1), ("master_seed", 0), ("workers", 1)):
            value = _integer(name, getattr(self, name))
            if value < least:
                raise ValueError(f"{name} must be >= {least}")
            object.__setattr__(self, name, value)
        if not self.snr_db_list:
            raise ValueError("snr_db_list must be a non-empty list")
        for s in self.snr_db_list:
            try:
                linear = 10.0 ** (_real("snr_db_list entry", s) / 10.0)  # as `SystemParams.with_snr_db` computes it
            except OverflowError:
                linear = math.inf
            if not 0.0 < linear < math.inf:  # also rejects inf and NaN
                raise ValueError(f"snr_db_list entry {s!r} dB has no finite positive linear SNR 10^(s/10)")
        if self.strategy not in STRATEGIES:
            raise ValueError(f"strategy must be one of {STRATEGIES}, got {self.strategy!r}")
        if self.scheduler not in ("brute", "greedy"):
            raise ValueError(f"scheduler must be 'brute' or 'greedy', got {self.scheduler!r}")
        if self.precoder not in ("fixed-codebook", "zf"):
            raise ValueError(f"precoder must be 'fixed-codebook' or 'zf', got {self.precoder!r}")
        if not 0.0 <= _real("rho", self.rho) <= 1.0:
            raise ValueError("rho must be in [0, 1]")
        for name, kinds in (("transmit_codebook", _TX_CODEBOOK_KINDS), ("feedback_codebook", _FB_CODEBOOK_KINDS)):
            spec = getattr(self, name)
            if not isinstance(spec, dict):
                raise ValueError(f"{name} spec must be an object, got {spec!r}")
            if "kind" not in spec:
                raise ValueError(f"{name} spec needs a 'kind' field")
            if spec["kind"] not in kinds:
                raise ValueError(f"{name} kind must be one of {kinds}, got {spec['kind']!r}")
            extra = set(spec) - {"kind", "path"}
            if extra:
                raise ValueError(f"unknown {name} keys: {sorted(extra)}")
            if spec["kind"] == "file" and not isinstance(spec.get("path"), str):
                raise ValueError(f"{name} kind 'file' needs a string 'path', got {spec.get('path')!r}")
            if spec["kind"] != "file" and "path" in spec:
                raise ValueError(f"{name} kind {spec['kind']!r} takes no 'path'")
        object.__setattr__(self, "snr_db_list", tuple(float(s) for s in self.snr_db_list))
        keys = [f"snr={s:g}" for s in self.snr_db_list]  # the CDF keys of result.json
        if len(set(keys)) < len(keys):
            raise ValueError(f"snr_db_list points must differ in their output keys, got {keys}")
        object.__setattr__(self, "b_list", tuple(_integer("b_list entry", b) for b in self.b_list))

    @classmethod
    def from_dict(cls, d):
        if not isinstance(d, dict):
            raise ValueError(f"config must be an object, got {d!r}")
        unknown = set(d) - _TOP_KEYS
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        system = d.get("system", {})
        if not isinstance(system, dict):
            raise ValueError(f"system must be an object, got {system!r}")
        unknown_sys = set(system).difference(_SYSTEM_KEYS)
        if unknown_sys:
            raise ValueError(f"unknown system keys: {sorted(unknown_sys)}")
        params = SystemParams(
            n_t=_integer("n_t", system.get("n_t", 4)),
            n_r=_integer("n_r", system.get("n_r", 1)),
            n_s=_integer("n_s", system.get("n_s", 2)),
        )
        kwargs = {k: v for k, v in d.items() if k != "system"}
        try:
            return cls(params=params, **kwargs)
        except TypeError as exc:
            raise ValueError(str(exc)) from exc

    def to_dict(self):
        """The config as JSON-ready data: `system` first, then every other
        field in declaration order, tuples as lists and dicts copied."""
        d = {"system": {k: getattr(self.params, k) for k in _SYSTEM_KEYS}}
        for f in fields(self)[1:]:
            value = getattr(self, f.name)
            d[f.name] = list(value) if isinstance(value, tuple) else dict(value) if isinstance(value, dict) else value
        return d

    def replace(self, **kw):
        """Copy with the given top-level keys replaced; a `system` dict
        replaces the system keys it names and keeps the others."""
        d = self.to_dict()
        d["system"].update(kw.pop("system", {}))
        return SimConfig.from_dict({**d, **kw})

    def config_hash(self):
        canon = json.dumps(self.to_dict(), sort_keys=True)
        return hashlib.sha256(canon.encode("utf-8")).hexdigest()[:16]


_TOP_KEYS = {"system", *(f.name for f in fields(SimConfig)[1:])}  # fields[0] is params, the `system` key


def load_config(path):
    with open(path, encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}: invalid JSON config: {exc}") from exc
    return SimConfig.from_dict(data)


def build_transmit_codebook(cfg):
    spec = cfg.transmit_codebook
    kind = spec["kind"]
    if kind == "canonical":
        return canonical_onb(cfg.params.n_t)
    if kind == "dft":
        return dft_codebook(cfg.params.n_t)
    if kind == "random-unitary":
        return random_unitary(cfg.params.n_t, SeedSpec(cfg.master_seed).derive("txcb"))
    return load_codebook(spec["path"])  # "file", the last kind SimConfig admits


def build_feedback_codebook(cfg, C):
    spec = cfg.feedback_codebook
    kind = spec["kind"]
    seed = SeedSpec(cfg.master_seed).derive("fbcb")
    if kind == "rvq":
        return rvq_codebook(cfg.params.n_t, cfg.B, seed)
    if kind == "rvq-union-tx":
        # C subset of V with |V| = 2^B: the transmit beams plus random fill.
        n_fill = 2**cfg.B - len(C)
        if n_fill < 0:
            raise ValueError(f"2^B = {2 ** cfg.B} is smaller than the transmit codebook ({len(C)})")
        if n_fill == 0:
            return Codebook(C.vectors.copy())
        fill = rvq_codebook(cfg.params.n_t, int(math.ceil(math.log2(n_fill))) if n_fill > 1 else 0, seed)
        return concat_codebooks(C, Codebook(fill.vectors[:n_fill]))
    return load_codebook(spec["path"])  # "file", the last kind SimConfig admits


@dataclass
class ExperimentResult:
    kind: str
    config: dict
    config_hash: str
    version: str
    metadata: dict
    tables: list  # list of row dicts, stable order
    draws: dict  # name -> nested lists of per-draw values
    cdf: dict  # name -> {"x": [...], "y": [...]}


# ---------------------------------------------------------------------------
# draw-level worker plumbing
# ---------------------------------------------------------------------------

_WORKER_CTX = {}


class _Context:
    """Per-process precomputed state shared by all draws."""

    def __init__(self, cfg):
        self.cfg = cfg
        self.C = build_transmit_codebook(cfg)
        self.V = build_feedback_codebook(cfg, self.C)
        self.phi = cross_gram(self.V, self.C)
        self.P = np.array([cfg.params.with_snr_db(s).P for s in cfg.snr_db_list])  # one power per SNR point

    def channel_stack(self, draws):
        """The averaged channels (rows, n_r, n_t) and subcarriers (rows, F,
        n_r, n_t) of every user of each draw index in `draws`, all drawn in
        one `draw_channel_stack` call: row k * num_users + m is user m of
        draw draws[k], whose users all come from the "chan" stream family
        SeedSpec(master_seed).derive("chan") jumped draws[k] times."""
        cfg = self.cfg
        family = SeedSpec(cfg.master_seed).derive("chan")
        return draw_channel_stack(cfg.params, cfg.F, cfg.rho, family, draws, cfg.num_users)

    def effective(self, draws):
        """The EffectiveBlock of the channels of `draws`, rows laid out as
        in `channel_stack`, its subcarrier channels written over the drawn
        stack."""
        H, sub = self.channel_stack(draws)
        return effective_block(H, sub, out=sub[:, :, 0])


def _init_worker(kind, cfg_dict):
    cfg = SimConfig.from_dict(cfg_dict)
    _WORKER_CTX["ctx"] = _Context(cfg)
    _WORKER_CTX["kind"] = kind


def _worker_entry(draws):
    return _BLOCK_FNS[_WORKER_CTX["kind"]](_WORKER_CTX["ctx"], draws)


def _feedback_strategy(kind, cfg):
    """Strategy whose messages the draws of `kind` use; None for none."""
    if cfg.strategy == "perfect":
        return "ra-full" if kind == "delta-ra" else None
    return cfg.strategy


# entries of the widest per-row array of a block: 2^16 is a 256-row block
# at |V| = 256 (B = 8), as many rows as any block held under the earlier
# fixed 256-row rule; narrower rows give more rows, so fixed per-block
# costs are paid once per many draws (block-size sweep in CHANGES.md)
_BLOCK_ENTRIES = 1 << 16


def _block_size(kind, ctx):
    """Draws per block of the draws of `kind`, at least 1: as many as keep
    the widest per-row array of a block within _BLOCK_ENTRIES entries over
    its (draw, SNR point, user) rows.  A row is |V| wide in the feedback
    and its pre-pass, F n_r n_t in the channel stack and F |configurations|
    in the ra-full true rates.  With workers > 1 a block holds at most
    ceil(num_draws / (2 workers)) draws, so every worker gets at least two
    blocks.  Every block builds its effective channels, feedback,
    schedules and realized rates in one stacked pass each."""
    cfg = ctx.cfg
    width = max(len(ctx.V), cfg.F * cfg.params.n_r * cfg.params.n_t)
    if _feedback_strategy(kind, cfg) == "ra-full":
        table = scheduling_configs(len(ctx.C), range(1, cfg.params.n_s + 1))[0]
        width = max(width, cfg.F * len(table))
    size = max(1, _BLOCK_ENTRIES // (cfg.num_users * len(cfg.snr_db_list) * width))
    if cfg.workers > 1:
        size = min(size, -(-cfg.num_draws // (2 * cfg.workers)))
    return size


def _map_draws(kind, ctx):
    """Per-draw results of all cfg.num_draws draws, in draw order.

    Draws run in blocks of `_block_size` consecutive indices, in this
    process or as the work items of a process pool; every draw's result is
    independent of the block it lands in and of the worker count.
    """
    cfg = ctx.cfg
    size = _block_size(kind, ctx)
    blocks = [range(lo, min(lo + size, cfg.num_draws)) for lo in range(0, cfg.num_draws, size)]
    if cfg.workers <= 1:
        per_block = [_BLOCK_FNS[kind](ctx, draws) for draws in blocks]
    else:
        chunk = max(1, len(blocks) // (cfg.workers * 8))
        with ProcessPoolExecutor(
            max_workers=min(cfg.workers, len(blocks)), initializer=_init_worker, initargs=(kind, cfg.to_dict())
        ) as ex:
            per_block = list(ex.map(_worker_entry, blocks, chunksize=chunk))
    return [r for results in per_block for r in results]


# fixed-codebook schedulers, all called as `schedule_bruteforce_block`
_SCHEDULERS = {"brute": schedule_bruteforce_block, "greedy": schedule_greedy_block}


def _by_point(ctx, a):
    """A per-user block array (draws * users, ...) as one row of users per
    (draw, SNR point), in that order: (draws * SNR points, users, ...); a
    view of `a` at one SNR point, a copy at more."""
    a = a.reshape(-1, 1, ctx.cfg.num_users, *a.shape[1:])
    if len(ctx.P) > 1:
        a = np.repeat(a, len(ctx.P), axis=1)
    return a.reshape(-1, *a.shape[2:])


def _lambda_sq(ctx, block):
    """lambda^2 = P ||h_hat||^2 / n_t of every (draw, SNR point, user) of a
    block, (draws * SNR points, users), contiguous."""
    lam = ctx.P[:, None] * block.gain * block.gain / ctx.cfg.params.n_t  # (SNR points, draws * users)
    return lam.reshape(len(lam), -1, ctx.cfg.num_users).transpose(1, 0, 2).reshape(-1, ctx.cfg.num_users)


def _block_feedback(ctx, strategy, block, P):
    """CDI and CQI (draws * SNR points, users) of every (draw, SNR point,
    user) of a block, from one stacked pass of `strategy`, and the
    feedback vectors (draws * SNR points, users, n_t) the scheduler sees;
    P holds the power of every (draw, SNR point)."""
    cfg = ctx.cfg
    n_t = cfg.params.n_t
    if strategy == "ra-full":
        # true rates on the subcarriers (F = 1: the averaged channel itself, bit for bit)
        h_hat = _by_point(ctx, block.sub_h_hat).reshape(-1, cfg.F, n_t)
        out = ra_feedback_batch(h_hat, cfg.params.n_s, np.repeat(P, cfg.num_users), ctx.C, ctx.V, ctx.phi)
    else:
        h, lam = _by_point(ctx, block.h).reshape(-1, n_t), _lambda_sq(ctx, block).ravel()
        if strategy == "chordal":
            out = chordal_feedback_block(h, lam, ctx.V)
        elif strategy == "ra-efficient":
            out = efficient_feedback_block(h, lam, ctx.C, ctx.V, phi_table=ctx.phi)
        else:
            out = lemma1_feedback_block(h, lam, ctx.C, ctx.V)
    cdi, cqi = out[0].reshape(len(P), -1), out[1].reshape(len(P), -1)
    return cdi, cqi, feedback_vectors(cdi, cqi, ctx.V, (n_t / P)[:, None])


def _sum_rate_block(ctx, draws):
    """Realized sum rate of each draw in `draws`, shape (draws, SNR points).

    The scheduler sees, for each (draw, SNR point, user), the true
    effective channel under perfect CSIT or else the feedback vector, all
    built in one pass; every decision of the block is realized in one
    `realize_rates_block` pass."""
    cfg = ctx.cfg
    block = ctx.effective(draws)
    P = np.tile(ctx.P, len(draws))  # every (draw, SNR point), in that order
    strategy = _feedback_strategy("sum-rate", cfg)
    if strategy is None:
        vectors = _by_point(ctx, block.h_hat)
    else:
        vectors = _block_feedback(ctx, strategy, block, P)[2]
    if cfg.precoder == "zf":
        users, beams, _ = zf_schedule_block(vectors, cfg.params.n_s, P)
    else:
        users, beams, _ = _SCHEDULERS[cfg.scheduler](vectors, ctx.C, cfg.params.n_s, P)
    C = None if cfg.precoder == "zf" else ctx.C
    sums = realize_rates_block(users, beams, _by_point(ctx, block.sub_h_hat), P, C=C)[1]
    return sums.reshape(len(draws), -1)


def _delta_ra_block(ctx, draws):
    """(gap samples, mean lambda^2) per SNR point for each draw in `draws`.

    Every (draw, SNR point, user) effective channel comes from the block's
    one effective-channel pass and serves the feedback search, the true
    vectors and the gap samples.  The true and the reported vectors of
    every (draw, SNR point) are scheduled in one call, and the gap samples
    of the whole block come from one `gap_samples_delta_ra` pass over the
    users either schedule picks."""
    cfg = ctx.cfg
    n_s = cfg.params.n_s
    block = ctx.effective(draws)
    P = np.tile(ctx.P, len(draws))  # every (draw, SNR point), in that order
    cdi, cqi, reported = _block_feedback(ctx, _feedback_strategy("delta-ra", cfg), block, P)
    h_hat = _by_point(ctx, block.h_hat)
    users = _SCHEDULERS[cfg.scheduler](np.concatenate([h_hat, reported]), ctx.C, n_s, np.tile(P, 2))[0]
    picked = (users[:, :, None] == np.arange(cfg.num_users)).any(axis=1)  # (2 * points, users)
    scheduled = picked[: len(P)] | picked[len(P) :]
    gaps = gap_samples_delta_ra(h_hat, cdi, cqi, scheduled, n_s, P, ctx.C, ctx.V).reshape(len(draws), -1)
    lam_means = np.mean(_lambda_sq(ctx, block).reshape(len(draws), len(ctx.P), -1), axis=2)
    return list(zip(gaps, lam_means))


_BLOCK_FNS = {"sum-rate": _sum_rate_block, "delta-ra": _delta_ra_block}


def _point_summary(samples):
    """Mean, standard error of the mean and empirical CDF ({"x": grid,
    "y": fractions} on CDF_GRID_POINTS points from min to max) of one SNR
    point's per-draw samples."""
    samples = np.asarray(samples, dtype=float)
    se = float(samples.std(ddof=1) / math.sqrt(len(samples))) if len(samples) > 1 else 0.0
    grid = np.linspace(float(samples.min()), float(samples.max()), CDF_GRID_POINTS)
    y = (samples[:, None] <= grid[None, :]).mean(axis=0)
    return float(samples.mean()), se, {"x": grid.tolist(), "y": y.tolist()}


def _result_skeleton(kind, cfg):
    return ExperimentResult(
        kind=kind,
        config=cfg.to_dict(),
        config_hash=cfg.config_hash(),
        version=__version__,
        metadata={"master_seed": cfg.master_seed, "workers": cfg.workers},
        tables=[],
        draws={},
        cdf={},
    )


def run_sum_rate_experiment(cfg):
    """Realized sum rate of the configured strategy over the SNR grid."""
    per_draw = np.array(_map_draws("sum-rate", _Context(cfg)))  # (draws, snr)
    result = _result_skeleton("sum-rate", cfg)
    result.draws["sum_rate_nats"] = per_draw.tolist()
    for s, snr in enumerate(cfg.snr_db_list):
        mean, se, result.cdf[f"snr={snr:g}"] = _point_summary(per_draw[:, s])
        result.tables.append(
            {
                "strategy": cfg.strategy,
                "snr_db": snr,
                "B": cfg.B,
                "mean_rate_nats": mean,
                "mean_rate_bits": mean / math.log(2.0),
                "stderr_nats": se,
            }
        )
    return result


def _lemma2_preconditions(cfg, C, V):
    try:
        a = frame_constant(C)
    except NotTightFrameError:
        return False, "transmit codebook is not tight"
    if abs(a - 1.0) > 1e-9 or len(C) != cfg.params.n_t:
        return False, "transmit codebook is not unitary"
    try:
        _require_subset(C, V)
    except ValueError:
        return False, "transmit codebook is not contained in the feedback codebook"
    return True, ""


def run_delta_ra_experiment(cfg):
    """Monte Carlo estimate of the worst-case rate gap across the SNR grid,
    with the SNR-bounded analytical bound attached when its preconditions
    (unitary transmit codebook contained in the feedback codebook) hold."""
    ctx = _Context(cfg)
    results = _map_draws("delta-ra", ctx)
    gaps = np.array([g for g, _ in results])  # (draws, snr)
    lams = np.array([l for _, l in results])
    result = _result_skeleton("delta-ra", cfg)
    result.draws["gap_samples_nats"] = gaps.tolist()
    bounds_ok, reason = _lemma2_preconditions(cfg, ctx.C, ctx.V)
    if not bounds_ok:
        result.metadata["bounds_omitted"] = reason
    n_t = cfg.params.n_t
    if bounds_ok:  # one stacked pass for every SNR point, each point's samples under its own seed
        point_seeds = [SeedSpec(cfg.master_seed).derive("empD", s) for s in range(len(ctx.P))]
        d_ests = empirical_D_block(cfg.B, n_t, ctx.C, ctx.V, ctx.P, cfg.num_draws, point_seeds)
    for s, snr in enumerate(cfg.snr_db_list):
        mean, se, result.cdf[f"snr={snr:g}"] = _point_summary(gaps[:, s])
        row = {
            "strategy": cfg.strategy,
            "snr_db": snr,
            "B": cfg.B,
            "delta_ra_nats": mean,
            "stderr_nats": se,
            "mean_lambda_sq": float(lams[:, s].mean()),
        }
        if bounds_ok:
            row["lemma2_bound_empirical"] = lemma2_bound([d_ests[s][0]] * n_t, n_t)
            if n_t >= 3:
                d_l3 = lemma3_bound(cfg.B, n_t, float(lams[:, s].mean()))
                row["lemma2_bound_lemma3"] = lemma2_bound([d_l3] * n_t, n_t)
                row["lemma3_valid"] = bool(cfg.B >= lemma3_validity_threshold(n_t))
        result.tables.append(row)
    return result


def run_scaling_experiment(cfg):
    """Quantization-error decay over the feedback bits of cfg.b_list, with
    the analytic curves and the fitted log2 slope of the direction-only
    error."""
    b_list = cfg.b_list
    if not b_list:
        raise ValueError("scaling experiment needs a b_list")
    if any(b >= c for b, c in zip(b_list, b_list[1:])):
        raise ValueError(f"b_list must be strictly increasing, got {list(b_list)}")
    if cfg.params.n_t < 2:
        raise ValueError(f"scaling experiment needs n_t >= 2, got n_t={cfg.params.n_t}")
    C = build_transmit_codebook(cfg)
    seed = SeedSpec(cfg.master_seed).derive("scaling")
    family_seed = SeedSpec(cfg.master_seed).derive("fbcb")

    def family(B):
        return rvq_codebook(cfg.params.n_t, B, family_seed)

    result = _result_skeleton("scaling", cfg)
    n_t = cfg.params.n_t
    params = cfg.params.with_snr_db(cfg.snr_db_list[0])
    d_hats = []
    for B in b_list:
        d_est, d_hat = empirical_D(B, n_t, C, family, params, cfg.num_draws, seed)
        d_hats.append(d_hat)
        row = {
            "B": B,
            "snr_db": cfg.snr_db_list[0],
            "D_est": d_est,
            "D_hat_est": d_hat,
            "lemma3_bound": lemma3_bound(B, n_t, params.P) if n_t >= 3 else None,
            "d_hat_bound": c_nt(n_t) * 2.0 ** (-B / (n_t - 1)) if n_t >= 3 else None,
        }
        result.tables.append(row)
    if len(b_list) >= 2:
        slope = float(np.polyfit(np.array(b_list, dtype=float), np.log2(np.array(d_hats)), 1)[0])
        result.metadata["log2_slope_d_hat"] = slope
        result.metadata["target_slope"] = -1.0 / (n_t - 1)
    else:
        result.metadata["log2_slope_d_hat"] = None
    return result


def run_contrast_experiment(cfg):
    """Labeled high-SNR contrast table: rate lost to quantized feedback for
    fixed-codebook scheduling versus zeroforcing, per SNR point.

    The fixed-codebook loss saturates as SNR grows (quantization error
    enters the rate only through bounded log-ratios), while zeroforcing on
    quantized directions becomes interference-limited and its loss keeps
    growing.
    """
    runs = {
        "fixed_perfect": cfg.replace(strategy="perfect", precoder="fixed-codebook"),
        "fixed_ra": cfg.replace(strategy="ra-full", precoder="fixed-codebook"),
        "zf_perfect": cfg.replace(strategy="perfect", precoder="zf"),
        "zf_quantized": cfg.replace(strategy="chordal", precoder="zf"),
    }
    means = {}
    for name, sub in runs.items():
        res = run_sum_rate_experiment(sub)
        means[name] = [row["mean_rate_nats"] for row in res.tables]
    result = _result_skeleton("contrast", cfg)
    for s, snr in enumerate(cfg.snr_db_list):
        result.tables.append(
            {
                "snr_db": snr,
                "B": cfg.B,
                "fixed_codebook_gap_nats": means["fixed_perfect"][s] - means["fixed_ra"][s],
                "zf_gap_nats": means["zf_perfect"][s] - means["zf_quantized"][s],
                "fixed_perfect_nats": means["fixed_perfect"][s],
                "fixed_ra_nats": means["fixed_ra"][s],
                "zf_perfect_nats": means["zf_perfect"][s],
                "zf_quantized_nats": means["zf_quantized"][s],
            }
        )
    return result


_CSV_COLUMNS = [
    "kind",
    "strategy",
    "snr_db",
    "B",
    "mean_rate_nats",
    "mean_rate_bits",
    "delta_ra_nats",
    "stderr_nats",
    "mean_lambda_sq",
    "D_est",
    "D_hat_est",
    "lemma2_bound_empirical",
    "lemma2_bound_lemma3",
    "lemma3_bound",
    "d_hat_bound",
    "lemma3_valid",
    "fixed_codebook_gap_nats",
    "zf_gap_nats",
    "fixed_perfect_nats",
    "fixed_ra_nats",
    "zf_perfect_nats",
    "zf_quantized_nats",
    "cdf_x",
    "cdf_y",
]


def emit(result, out_dir):
    """Write result.json (full metadata and aggregates) and curves.csv.

    CSV has one row per CDF grid point for experiments with distributions,
    one row per table entry otherwise; column order is fixed.
    """
    os.makedirs(out_dir, exist_ok=True)
    json_path = os.path.join(out_dir, "result.json")
    payload = {
        "kind": result.kind,
        "config": result.config,
        "config_hash": result.config_hash,
        "version": result.version,
        "metadata": result.metadata,
        "tables": result.tables,
        "cdf": result.cdf,
        "draws": result.draws,
    }
    with open(json_path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, sort_keys=True, indent=1)
        fh.write("\n")
    csv_path = os.path.join(out_dir, "curves.csv")
    with open(csv_path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=_CSV_COLUMNS, extrasaction="ignore")
        writer.writeheader()
        for row in result.tables:
            base = dict(row)
            base["kind"] = result.kind
            key = f"snr={row['snr_db']:g}" if "snr_db" in row else None
            if key and key in result.cdf:
                xs = result.cdf[key]["x"]
                ys = result.cdf[key]["y"]
                for x, y in zip(xs, ys):
                    out = dict(base)
                    out["cdf_x"] = x
                    out["cdf_y"] = y
                    writer.writerow(out)
            else:
                writer.writerow(base)
    return json_path, csv_path
