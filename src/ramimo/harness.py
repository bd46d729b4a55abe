"""Monte Carlo experiment engine, configuration, and result persistence.

Experiments are pure functions of (config, master_seed): every channel
draw derives its generator from (master_seed, draw index, user index), and
reductions run in draw order, so outputs are byte-identical across reruns
and across worker counts.
"""

import csv
import hashlib
import json
import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from . import __version__
from .bounds import c_nt, empirical_D, lemma2_bound, lemma3_bound, lemma3_validity_threshold
from .channel import SystemParams, draw_channels, mrc_effective_channel
from .channel import draw_user_channel  # noqa: F401  (perfbench/spans.py wraps this name)
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
    compute_feedback,
    cross_gram,
    feedback_vector,
    gap_samples_delta_ra,
    ra_batch_group,
    ra_feedback_for_channels,
)
from .feedback import gap_sample_delta_ra  # noqa: F401  (perfbench/spans.py wraps this name)
from .numerics import SeedSpec
from .rates import rate_with_beams  # noqa: F401  (perfbench/spans.py wraps this name)
from .scheduler import realize_rates, schedule_bruteforce_block, schedule_greedy, zf_batch_group, zf_schedule_block
from .scheduler import schedule_bruteforce, zf_decision_for, zf_schedule  # noqa: F401  (perfbench/spans.py wraps these names)

CDF_GRID_POINTS = 200

_SYSTEM_KEYS = {"n_t", "n_r", "n_s", "P", "sigma_sq"}
_TX_CODEBOOK_KINDS = ("canonical", "dft", "random-unitary", "file")
_FB_CODEBOOK_KINDS = ("rvq", "rvq-union-tx", "file")
_TOP_KEYS = {
    "system",
    "num_users",
    "num_draws",
    "snr_db_list",
    "B",
    "transmit_codebook",
    "feedback_codebook",
    "strategy",
    "scheduler",
    "precoder",
    "F",
    "rho",
    "master_seed",
    "workers",
    "b_list",
}


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
        if self.num_draws < 1:
            raise ValueError("num_draws must be >= 1")
        if self.num_users < 1:
            raise ValueError("num_users must be >= 1")
        if self.B < 0:
            raise ValueError("B must be >= 0")
        if not self.snr_db_list or not all(math.isfinite(s) for s in self.snr_db_list):
            raise ValueError("snr_db_list must be a non-empty list of finite values")
        if self.strategy not in STRATEGIES:
            raise ValueError(f"strategy must be one of {STRATEGIES}, got {self.strategy!r}")
        if self.scheduler not in ("brute", "greedy"):
            raise ValueError(f"scheduler must be 'brute' or 'greedy', got {self.scheduler!r}")
        if self.precoder not in ("fixed-codebook", "zf"):
            raise ValueError(f"precoder must be 'fixed-codebook' or 'zf', got {self.precoder!r}")
        if self.F < 1:
            raise ValueError("F must be >= 1")
        if not 0.0 <= self.rho <= 1.0:
            raise ValueError("rho must be in [0, 1]")
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        object.__setattr__(self, "snr_db_list", tuple(float(s) for s in self.snr_db_list))
        object.__setattr__(self, "b_list", tuple(int(b) for b in self.b_list))

    @classmethod
    def from_dict(cls, d):
        unknown = set(d) - _TOP_KEYS
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        system = dict(d.get("system", {}))
        unknown_sys = set(system) - _SYSTEM_KEYS
        if unknown_sys:
            raise ValueError(f"unknown system keys: {sorted(unknown_sys)}")
        params = SystemParams(
            n_t=int(system.get("n_t", 4)),
            n_r=int(system.get("n_r", 1)),
            n_s=int(system.get("n_s", 2)),
            P=float(system.get("P", 1.0)),
            sigma_sq=float(system.get("sigma_sq", 1.0)),
        )
        for name, kinds in (("transmit_codebook", _TX_CODEBOOK_KINDS), ("feedback_codebook", _FB_CODEBOOK_KINDS)):
            spec = d.get(name)
            if spec is not None:
                if "kind" not in spec:
                    raise ValueError(f"{name} spec needs a 'kind' field")
                if spec["kind"] not in kinds:
                    raise ValueError(f"{name} kind must be one of {kinds}, got {spec['kind']!r}")
                extra = set(spec) - {"kind", "path"}
                if extra:
                    raise ValueError(f"unknown {name} keys: {sorted(extra)}")
        kwargs = {k: v for k, v in d.items() if k != "system"}
        try:
            return cls(params=params, **kwargs)
        except TypeError as exc:
            raise ValueError(str(exc)) from exc

    def to_dict(self):
        return {
            "system": {
                "n_t": self.params.n_t,
                "n_r": self.params.n_r,
                "n_s": self.params.n_s,
                "P": self.params.P,
                "sigma_sq": self.params.sigma_sq,
            },
            "num_users": self.num_users,
            "num_draws": self.num_draws,
            "snr_db_list": list(self.snr_db_list),
            "B": self.B,
            "transmit_codebook": dict(self.transmit_codebook),
            "feedback_codebook": dict(self.feedback_codebook),
            "strategy": self.strategy,
            "scheduler": self.scheduler,
            "precoder": self.precoder,
            "F": self.F,
            "rho": self.rho,
            "master_seed": self.master_seed,
            "workers": self.workers,
            "b_list": list(self.b_list),
        }

    def replace(self, **kw):
        """Copy with the given top-level keys replaced; a `system` dict
        replaces the system keys it names and keeps the others."""
        d = self.to_dict()
        d["system"].update(kw.pop("system", {}))
        return SimConfig.from_dict({**d, **kw})

    def config_hash(self):
        canon = json.dumps(self.to_dict(), sort_keys=True)
        return hashlib.sha256(canon.encode("utf-8")).hexdigest()[:16]


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
    if kind == "file":
        return load_codebook(spec["path"])
    raise ValueError(f"unknown transmit codebook kind {kind!r}")


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
            return Codebook(C.vectors.copy(), kind="union")
        fill = rvq_codebook(cfg.params.n_t, int(math.ceil(math.log2(n_fill))) if n_fill > 1 else 0, seed)
        fill = Codebook(fill.vectors[:n_fill], kind="rvq")
        return concat_codebooks(C, fill, kind="union")
    if kind == "file":
        return load_codebook(spec["path"])
    raise ValueError(f"unknown feedback codebook kind {kind!r}")


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
_CHAN_KEY = SeedSpec(0).derive("chan").stream[0]  # stream word of the channel key "chan"


class _Context:
    """Per-process precomputed state shared by all draws."""

    def __init__(self, cfg):
        self.cfg = cfg
        self.C = build_transmit_codebook(cfg)
        self.V = build_feedback_codebook(cfg, self.C)
        self.phi = cross_gram(self.V, self.C)
        self.params_by_snr = [cfg.params.with_snr_db(s) for s in cfg.snr_db_list]

    def channels(self, draws):
        """User channels of each draw index in `draws`: a list of
        {user: UserChannel}, all drawn in one `draw_channels` call.  User m
        of draw i has the stream of SeedSpec(master_seed).derive("chan", i, m)."""
        cfg = self.cfg
        users = range(cfg.num_users)
        streams = [(_CHAN_KEY, i % 2**32, m) for i in draws for m in users]
        it = iter(draw_channels(cfg.params, cfg.F, cfg.rho, cfg.master_seed, streams))
        return [{m: next(it) for m in users} for _ in draws]


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


def _block_size(ctx, kind):
    """Draws per block: as many as fit in one group of the batched ra-full
    gain search, or else of the stacked zeroforcing scheduler (users x SNR
    points problems each), at least 1.  Other runs have no batched stage
    and run draw by draw."""
    cfg = ctx.cfg
    if _feedback_strategy(kind, cfg) == "ra-full":
        group = ra_batch_group(ctx.C, ctx.V, cfg.params)
    elif kind == "sum-rate" and cfg.precoder == "zf":
        group = zf_batch_group(cfg.params)
    else:
        return 1
    return max(1, group // (cfg.num_users * len(cfg.snr_db_list)))


def _map_draws(kind, ctx):
    """Per-draw results of all cfg.num_draws draws, in draw order.

    Draws run in blocks of `_block_size` consecutive indices, in this
    process or as the work items of a process pool; every draw's result is
    independent of the block it lands in and of the worker count.
    """
    cfg = ctx.cfg
    size = _block_size(ctx, kind)
    blocks = [range(lo, min(lo + size, cfg.num_draws)) for lo in range(0, cfg.num_draws, size)]
    if cfg.workers <= 1:
        per_block = [_BLOCK_FNS[kind](ctx, draws) for draws in blocks]
    else:
        chunk = max(1, len(blocks) // (cfg.workers * 8))
        with ProcessPoolExecutor(
            max_workers=cfg.workers, initializer=_init_worker, initargs=(kind, cfg.to_dict())
        ) as ex:
            per_block = list(ex.map(_worker_entry, blocks, chunksize=chunk))
    return [r for results in per_block for r in results]


def _schedule_block(vectors_per_problem, C, params_per_problem, method):
    """Fixed-codebook decision of every (vectors, params) problem: the
    brute scheduler takes them all in one stacked call, greedy one by one."""
    if method == "brute":
        return schedule_bruteforce_block(vectors_per_problem, C, params_per_problem)
    return [schedule_greedy(v, C, params) for v, params in zip(vectors_per_problem, params_per_problem)]


def _block_messages(ctx, strategy, chans, effs=None):
    """Feedback messages of a block: msgs[d][s] maps user -> message for
    the block's draw d at SNR point s.

    ra-full jobs of the whole block share one batched gain search, which
    is where nearly all of a draw's feedback time goes; the other
    strategies run job by job.  `effs`, laid out like the messages, holds
    effective channels the caller has already built; ra-full reuses them.
    """
    jobs = [(ch, params) for channels in chans for params in ctx.params_by_snr for ch in channels.values()]
    if strategy == "ra-full":
        flat_effs = None if effs is None else [e for per_draw in effs for per_snr in per_draw for e in per_snr.values()]
        flat = ra_feedback_for_channels(jobs, ctx.C, ctx.V, phi_table=ctx.phi, effs=flat_effs)
    else:
        flat = [compute_feedback(strategy, ch, ctx.C, ctx.V, params, phi_table=ctx.phi) for ch, params in jobs]
    it = iter(flat)
    return [[{m: next(it) for m in channels} for _ in ctx.params_by_snr] for channels in chans]


def _sum_rate_block(ctx, draws):
    """Realized sum rate of each draw in `draws`, shape (draws, SNR points)."""
    cfg = ctx.cfg
    chans = ctx.channels(draws)
    strategy = _feedback_strategy("sum-rate", cfg)
    if strategy is not None:
        msgs = _block_messages(ctx, strategy, chans)
    out = np.empty((len(chans), len(ctx.params_by_snr)))
    vectors = []  # vectors[s][d]: user -> vector the scheduler sees
    for s, params in enumerate(ctx.params_by_snr):
        if strategy is None:
            vectors.append([{m: mrc_effective_channel(ch, params).h_hat for m, ch in channels.items()} for channels in chans])
        else:
            vectors.append([{m: feedback_vector(msg, ctx.V, params) for m, msg in per_draw[s].items()} for per_draw in msgs])
    if cfg.precoder == "zf":
        for s, params in enumerate(ctx.params_by_snr):
            for d, (decision, _) in enumerate(zf_schedule_block(vectors[s], params)):
                out[d, s] = realize_rates(decision, chans[d], params).sum
    else:
        problems = [(s, d) for s in range(len(ctx.params_by_snr)) for d in range(len(chans))]
        decisions = _schedule_block(
            [vectors[s][d] for s, d in problems], ctx.C, [ctx.params_by_snr[s] for s, _ in problems], cfg.scheduler
        )
        for (s, d), decision in zip(problems, decisions):
            out[d, s] = realize_rates(decision, chans[d], ctx.params_by_snr[s], C=ctx.C).sum
    return out


def _delta_ra_block(ctx, draws):
    """(gap samples, mean lambda^2) per SNR point for each draw in `draws`.

    The true and the reported vectors of every (draw, SNR point) are
    scheduled in one `_schedule_block` call, and the gap samples of the
    whole block come from one `gap_samples_delta_ra` pass."""
    cfg = ctx.cfg
    chans = ctx.channels(draws)
    block_effs = [
        [{m: mrc_effective_channel(ch, params) for m, ch in channels.items()} for params in ctx.params_by_snr]
        for channels in chans
    ]
    msgs = _block_messages(ctx, _feedback_strategy("delta-ra", cfg), chans, block_effs)
    points = [(d, s, params) for d in range(len(chans)) for s, params in enumerate(ctx.params_by_snr)]
    vectors, params_list = [], []
    for d, s, params in points:
        vectors.append({m: eff.h_hat for m, eff in block_effs[d][s].items()})
        vectors.append({m: feedback_vector(msg, ctx.V, params) for m, msg in msgs[d][s].items()})
        params_list += [params, params]
    decisions = _schedule_block(vectors, ctx.C, params_list, cfg.scheduler)
    samples = [
        (block_effs[d][s], msgs[d][s], params, set(s_h.assignment.users) | set(s_v.assignment.users))
        for (d, s, params), s_h, s_v in zip(points, decisions[::2], decisions[1::2])
    ]
    gaps = np.reshape(gap_samples_delta_ra(samples, ctx.C, ctx.V), (len(chans), len(ctx.params_by_snr)))
    lam_means = [[float(np.mean([eff.lambda_sq for eff in effs.values()])) for effs in per_draw] for per_draw in block_effs]
    return [(gaps[d], np.array(lam_means[d])) for d in range(len(chans))]


_BLOCK_FNS = {"sum-rate": _sum_rate_block, "delta-ra": _delta_ra_block}


def _cdf(samples):
    samples = np.asarray(samples, dtype=float)
    lo, hi = float(samples.min()), float(samples.max())
    grid = np.linspace(lo, hi, CDF_GRID_POINTS)
    y = (samples[:, None] <= grid[None, :]).mean(axis=0)
    return grid.tolist(), y.tolist()


def _result_skeleton(kind, cfg, extra_meta=None):
    meta = {"master_seed": cfg.master_seed, "workers": cfg.workers}
    if extra_meta:
        meta.update(extra_meta)
    return ExperimentResult(
        kind=kind,
        config=cfg.to_dict(),
        config_hash=cfg.config_hash(),
        version=__version__,
        metadata=meta,
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
        samples = per_draw[:, s]
        mean = float(samples.mean())
        se = float(samples.std(ddof=1) / math.sqrt(len(samples))) if len(samples) > 1 else 0.0
        gx, gy = _cdf(samples)
        key = f"snr={snr:g}"
        result.cdf[key] = {"x": gx, "y": gy}
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
    for s, snr in enumerate(cfg.snr_db_list):
        samples = gaps[:, s]
        mean = float(samples.mean())
        se = float(samples.std(ddof=1) / math.sqrt(len(samples))) if len(samples) > 1 else 0.0
        row = {
            "strategy": cfg.strategy,
            "snr_db": snr,
            "B": cfg.B,
            "delta_ra_nats": mean,
            "stderr_nats": se,
            "mean_lambda_sq": float(lams[:, s].mean()),
        }
        if bounds_ok:
            params = cfg.params.with_snr_db(snr)
            d_est, _ = empirical_D(
                cfg.B, n_t, ctx.C, ctx.V, params, cfg.num_draws, SeedSpec(cfg.master_seed).derive("empD", s)
            )
            row["lemma2_bound_empirical"] = lemma2_bound([d_est] * n_t, n_t)
            if n_t >= 3:
                d_l3 = lemma3_bound(cfg.B, n_t, float(lams[:, s].mean()))
                row["lemma2_bound_lemma3"] = lemma2_bound([d_l3] * n_t, n_t)
                row["lemma3_valid"] = bool(cfg.B >= lemma3_validity_threshold(n_t))
        gx, gy = _cdf(samples)
        result.cdf[f"snr={snr:g}"] = {"x": gx, "y": gy}
        result.tables.append(row)
    return result


def run_scaling_experiment(cfg, B_list=None):
    """Quantization-error decay over feedback bits, with the analytic
    curves and the fitted log2 slope of the direction-only error."""
    b_list = tuple(B_list) if B_list else cfg.b_list
    if not b_list:
        raise ValueError("scaling experiment needs a b_list")
    if list(b_list) != sorted(b_list):
        raise ValueError("b_list must be increasing")
    C = build_transmit_codebook(cfg)
    seed = SeedSpec(cfg.master_seed).derive("scaling")
    family_seed = SeedSpec(cfg.master_seed).derive("fbcb")

    def family(B):
        return rvq_codebook(cfg.params.n_t, B, family_seed)

    result = _result_skeleton("scaling", cfg, extra_meta={"b_list": list(b_list)})
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
            "lemma3_bound": lemma3_bound(B, n_t, params.snr) if n_t >= 3 else None,
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
