import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from ramimo.channel import SystemParams, UserChannel, mrc_effective_channel
from ramimo.cli import main as cli_main
from ramimo.feedback import compute_feedback
from ramimo.harness import (
    SimConfig,
    _Context,
    _sum_rate_block,
    build_feedback_codebook,
    build_transmit_codebook,
    emit,
    load_config,
    run_delta_ra_experiment,
    run_scaling_experiment,
    run_sum_rate_experiment,
)
from ramimo.numerics import SeedSpec
from ramimo.scheduler import zf_schedule

E1 = np.array([1.0, 0.0], dtype=complex)
E2 = np.array([0.0, 1.0], dtype=complex)


def _cfg(**kw):
    base = {
        "system": {"n_t": 2, "n_r": 1, "n_s": 2},
        "num_users": 3,
        "num_draws": 30,
        "snr_db_list": [10.0],
        "B": 3,
        "strategy": "chordal",
        "scheduler": "greedy",
        "master_seed": 777,
    }
    base.update(kw)
    return SimConfig.from_dict(base)


def test_config_rejects_unknown_keys():
    with pytest.raises(ValueError, match="unknown config keys"):
        SimConfig.from_dict({"num_draws": 5, "frobnicate": 1})


def test_config_rejects_unknown_system_keys():
    with pytest.raises(ValueError, match="unknown system keys"):
        SimConfig.from_dict({"system": {"n_t": 2, "antennas": 9}})


def test_config_rejects_bad_strategy():
    with pytest.raises(ValueError, match="strategy"):
        _cfg(strategy="psychic")


def test_config_rejects_zero_draws():
    with pytest.raises(ValueError, match="num_draws"):
        _cfg(num_draws=0)


@pytest.mark.parametrize("key", ["num_draws", "num_users", "B", "F", "master_seed", "workers", "n_t", "n_r", "n_s"])
@pytest.mark.parametrize("value", [2.5, 4.7, True, "3"])
def test_config_rejects_non_integer_fields(key, value):
    # neither truncated nor taken as 1, and a ValueError rather than a
    # TypeError from deeper in the run
    kw = {"system": {"n_t": 4, "n_r": 1, "n_s": 2, key: value}} if key.startswith("n_") else {key: value}
    with pytest.raises(ValueError, match=f"{key} must be an integer"):
        _cfg(**kw)


@pytest.mark.parametrize("key", ["rho", "P", "sigma_sq", "snr_db_list"])
@pytest.mark.parametrize("value", [True, False, "0.5"])
def test_config_rejects_non_numeric_float_fields(key, value):
    # a boolean is neither written back as true nor read as 1.0; P and
    # sigma_sq are no config keys, since every run sets them from its SNR
    # point, so an old config that sets them fails whatever the value
    if key in ("P", "sigma_sq"):
        with pytest.raises(ValueError, match=rf"unknown system keys: \['{key}'\]"):
            _cfg(system={"n_t": 2, "n_r": 1, "n_s": 2, key: value})
        with pytest.raises(ValueError, match=rf"unknown system keys: \['{key}'\]"):
            _cfg(system={"n_t": 2, "n_r": 1, "n_s": 2, key: 1.0})
        return
    kw = {key: [10.0, value] if key == "snr_db_list" else value}
    with pytest.raises(ValueError, match=f"{key}.* must be a number"):
        _cfg(**kw)


@pytest.mark.parametrize("name", ["transmit_codebook", "feedback_codebook"])
@pytest.mark.parametrize("path", [None, 3, ["cb.txt"]])
def test_config_rejects_file_codebook_without_string_path(name, path):
    # a missing path would raise KeyError mid-run; an integer would reach
    # open() as a file descriptor
    spec = {"kind": "file"} if path is None else {"kind": "file", "path": path}
    with pytest.raises(ValueError, match=f"{name} kind 'file' needs a string 'path'"):
        _cfg(**{name: spec})


@pytest.mark.parametrize(
    "overrides, message",
    [
        ({"transmit_codebook": 5}, "transmit_codebook spec must be an object"),
        ({"transmit_codebook": "kind"}, "transmit_codebook spec must be an object"),
        ({"feedback_codebook": ["kind", "rvq"]}, "feedback_codebook spec must be an object"),
        ({"system": [1, 2]}, "system must be an object"),
        ({"feedback_codebook": {"kind": "rvq-union-tx", "path": 3}}, "feedback_codebook kind 'rvq-union-tx' takes no 'path'"),
        ({"transmit_codebook": {"kind": "dft", "path": "cb.txt"}}, "transmit_codebook kind 'dft' takes no 'path'"),
    ],
)
def test_config_rejects_malformed_objects(overrides, message):
    # a non-object value used to raise TypeError, and a path on a kind that
    # never reads one was accepted and ignored
    with pytest.raises(ValueError, match=message):
        SimConfig.from_dict({"num_draws": 5, **overrides})


@pytest.mark.parametrize("data", [5, None, [1, 2]])
def test_config_rejects_non_object_config(data):
    with pytest.raises(ValueError, match="config must be an object"):
        SimConfig.from_dict(data)


def test_config_accepts_integral_floats():
    cfg = _cfg(system={"n_t": 2.0, "n_r": 1, "n_s": 2}, num_draws=30.0, F=1.0)
    assert cfg == _cfg()
    assert type(cfg.num_draws) is int and type(cfg.params.n_t) is int


@pytest.mark.parametrize("snr_db_list", [[10.0, 10.000001], [10.0, 10.0], [0.0, 20.0, 20.000004]])
def test_config_rejects_colliding_snr_keys(snr_db_list):
    # two points with one `snr=...` key would share one CDF in result.json
    with pytest.raises(ValueError, match="snr_db_list"):
        _cfg(snr_db_list=snr_db_list)


@pytest.mark.parametrize("snr_db_list", [[4000], [-4000], [10.0, 1e6], [float("inf")], [float("nan")]])
def test_config_rejects_snr_without_finite_linear_value(snr_db_list):
    # every point needs a finite positive linear SNR 10^(s/10); the config
    # rejects one without it when it loads, not partway through a run
    with pytest.raises(ValueError, match="snr_db_list entry"):
        _cfg(snr_db_list=snr_db_list)
    assert _cfg(snr_db_list=[-3000, 3000]).snr_db_list == (-3000.0, 3000.0)


def test_config_schema_order_and_hash():
    # the schema is written once, from the dataclass fields; key order and
    # the hash of the default config stay those of the listed schema
    cfg = SimConfig.from_dict({})
    assert list(cfg.to_dict()) == [
        "system", "num_users", "num_draws", "snr_db_list", "B", "transmit_codebook", "feedback_codebook",
        "strategy", "scheduler", "precoder", "F", "rho", "master_seed", "workers", "b_list",
    ]  # fmt: skip
    assert list(cfg.to_dict()["system"]) == ["n_t", "n_r", "n_s"]
    assert cfg.config_hash() == "c45e0eb93be5ae14"


def test_config_roundtrip_and_hash():
    cfg = _cfg()
    again = SimConfig.from_dict(cfg.to_dict())
    assert again == cfg
    assert again.config_hash() == cfg.config_hash()


def test_load_config_reports_json_errors(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text("{not json")
    with pytest.raises(ValueError, match="invalid JSON"):
        load_config(p)


def test_union_codebook_contains_transmit_beams():
    cfg = _cfg(B=3, feedback_codebook={"kind": "rvq-union-tx"})
    C = build_transmit_codebook(cfg)
    V = build_feedback_codebook(cfg, C)
    assert len(V) == 8
    diffs = np.abs(V.vectors[None, :, :] - C.vectors[:, None, :]).max(axis=2)
    assert np.all(diffs.min(axis=1) < 1e-15)


def test_injected_orthogonal_channels_closed_form(monkeypatch):
    # two users on orthogonal deterministic channels, perfect CSIT:
    # the schedule must realize exactly 2 log(1 + P / 2)
    cfg = _cfg(num_users=2, num_draws=1, strategy="perfect", scheduler="brute", snr_db_list=[3.0103])
    ctx = _Context(cfg)
    H = np.array([E1[None, :].conj(), E2[None, :].conj()])  # (users, n_r, n_t); F = 1
    monkeypatch.setattr(
        ctx, "channel_stack", lambda draws: (np.concatenate([H] * len(draws)), np.concatenate([H[:, None]] * len(draws)))
    )
    out = _sum_rate_block(ctx, [0])[0]
    P = 10.0 ** (3.0103 / 10.0)
    assert out[0] == pytest.approx(2 * np.log(1 + P / 2.0), abs=1e-9)


def test_sum_rate_deterministic_rerun():
    cfg = _cfg()
    r1 = run_sum_rate_experiment(cfg)
    r2 = run_sum_rate_experiment(cfg)
    assert r1.draws == r2.draws
    assert r1.tables == r2.tables


def test_sum_rate_worker_count_invariance(tmp_path):
    cfg1 = _cfg(num_draws=24, workers=1)
    cfg2 = _cfg(num_draws=24, workers=2)
    r1 = run_sum_rate_experiment(cfg1)
    r2 = run_sum_rate_experiment(cfg2)
    assert r1.draws == r2.draws
    p1 = emit(r1, tmp_path / "w1")
    p2 = emit(r2, tmp_path / "w2")
    b1 = (tmp_path / "w1" / "curves.csv").read_bytes()
    b2 = (tmp_path / "w2" / "curves.csv").read_bytes()
    assert b1 == b2
    j1 = json.loads((tmp_path / "w1" / "result.json").read_text())
    j2 = json.loads((tmp_path / "w2" / "result.json").read_text())
    j1["config"].pop("workers")
    j2["config"].pop("workers")
    j1.pop("config_hash")
    j2.pop("config_hash")
    j1["metadata"].pop("workers")
    j2["metadata"].pop("workers")
    assert j1 == j2


def test_worker_pool_sized_to_the_blocks(monkeypatch):
    # the pool opens no more processes than there are blocks; a fake
    # executor records the size and maps in this process, so no process
    # starts, and the results and metadata.workers stay as requested
    import ramimo.harness as harness

    sizes = []

    class SerialExecutor:
        def __init__(self, max_workers, initializer, initargs):
            sizes.append(max_workers)
            initializer(*initargs)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items, chunksize=1):
            return map(fn, items)

    monkeypatch.setattr(harness, "ProcessPoolExecutor", SerialExecutor)
    monkeypatch.setattr(harness, "_WORKER_CTX", {})
    serial = run_sum_rate_experiment(_cfg(num_draws=1))
    one_block = run_sum_rate_experiment(_cfg(num_draws=1, workers=64))
    assert sizes == [1] and one_block.metadata["workers"] == 64
    assert one_block.draws == serial.draws and one_block.tables == serial.tables
    monkeypatch.setattr(harness, "_block_size", lambda n_users, n_snr: 10)
    for workers, expected in ((64, 3), (2, 2)):
        sizes.clear()
        result = run_sum_rate_experiment(_cfg(workers=workers))
        assert sizes == [expected] and result.metadata["workers"] == workers
        assert result.draws == run_sum_rate_experiment(_cfg()).draws


def test_sum_rate_draws_independent_of_block_size(monkeypatch):
    # draws run in blocks that share one feedback call; a draw's result must
    # not depend on the block it lands in (13 draws leave a partial block of
    # 3) or on the worker count
    import ramimo.harness as harness

    default = harness._block_size
    ra = dict(strategy="ra-full", scheduler="brute", B=3, feedback_codebook={"kind": "rvq-union-tx"})
    two_snr = _cfg(num_draws=13, snr_db_list=[0.0, 20.0], **ra)
    zf_ofdm = _cfg(
        system={"n_t": 4, "n_r": 2, "n_s": 2},
        num_draws=7,
        snr_db_list=[30.0],
        B=4,
        strategy="chordal",
        scheduler="brute",
        precoder="zf",
        F=8,
        rho=0.95,
        feedback_codebook={"kind": "rvq-union-tx"},
    )
    zf_perfect = _cfg(
        system={"n_t": 4, "n_r": 1, "n_s": 4},
        num_users=6,
        num_draws=37,
        snr_db_list=[0.0, 30.0],
        strategy="perfect",
        scheduler="brute",
        precoder="zf",
    )
    # chordal feedback on the stacked brute scheduler, SNR points -20..100 dB
    brute_chordal = _cfg(
        system={"n_t": 3, "n_r": 1, "n_s": 3},
        num_users=5,
        num_draws=11,
        snr_db_list=[-20.0, 30.0, 100.0],
        B=4,
        strategy="chordal",
        scheduler="brute",
        feedback_codebook={"kind": "rvq-union-tx"},
    )
    # chordal feedback, brute scheduling and realization over F = 4
    # subcarriers of two-antenna users, all stacked per block
    chordal_ofdm = brute_chordal.replace(system={"n_t": 4, "n_r": 2, "n_s": 2}, F=4, rho=0.9)
    efficient = _cfg(num_draws=9, snr_db_list=[0.0, 60.0], strategy="ra-efficient", scheduler="brute", B=3)
    configs = (
        two_snr,
        _cfg(num_draws=7, F=4, rho=0.9, **ra),
        two_snr.replace(workers=2),
        zf_ofdm,
        zf_perfect,
        brute_chordal,
        chordal_ofdm,
        efficient,
    )
    runs = []
    for cfg in configs:
        draws = []
        for size in (1, 3, 16, None):
            monkeypatch.setattr(harness, "_block_size", default if size is None else lambda n_users, n_snr, n=size: n)
            draws.append(run_sum_rate_experiment(cfg).draws)
        assert draws[0] == draws[1] == draws[2] == draws[3]
        runs.append(draws[0])
    assert len(runs[0]["sum_rate_nats"]) == 13
    assert runs[2] == runs[0]


def test_replace_applies_system_keys():
    cfg = _cfg(system={"n_t": 4, "n_r": 2, "n_s": 2})
    new = cfg.replace(system={"n_r": 1, "n_s": 4}, strategy="perfect")
    assert new.params == SystemParams(n_t=4, n_r=1, n_s=4)
    assert new.strategy == "perfect"
    assert cfg.params == SystemParams(n_t=4, n_r=2, n_s=2)
    with pytest.raises(ValueError, match="unknown system keys"):
        cfg.replace(system={"n_x": 1})


def test_replace_keeps_system_when_not_given():
    cfg = _cfg(system={"n_t": 4, "n_r": 2, "n_s": 3})
    new = cfg.replace(num_draws=5, workers=2)
    assert new.params == cfg.params
    assert new.to_dict() == {**cfg.to_dict(), "num_draws": 5, "workers": 2}


def test_delta_ra_draws_independent_of_block_size(monkeypatch):
    # a delta-ra block builds every (draw, SNR point, user) effective
    # channel once and shares it between the feedback search and the gap
    # samples; the draws must not depend on the block they land in, for
    # every feedback strategy, flat and over F = 4 subcarriers
    import ramimo.harness as harness

    default = harness._block_size
    base = SimConfig.from_dict(
        {
            "system": {"n_t": 3, "n_r": 1, "n_s": 3},
            "num_users": 3,
            "num_draws": 7,
            "snr_db_list": [0.0, 60.0, 100.0],
            "B": 4,
            "strategy": "ra-full",
            "scheduler": "brute",
            "feedback_codebook": {"kind": "rvq-union-tx"},
            "master_seed": 41,
        }
    )
    assert default(base.num_users, len(base.snr_db_list)) >= 7
    for strategy in ("chordal", "ra-full", "ra-efficient", "lemma1"):
        for F in (1, 4):
            cfg = base.replace(strategy=strategy, F=F)
            runs = []
            for size in (1, 3, None):
                monkeypatch.setattr(harness, "_block_size", default if size is None else lambda n_users, n_snr, n=size: n)
                result = run_delta_ra_experiment(cfg)
                runs.append((result.draws, result.tables))
            assert runs[0] == runs[1] == runs[2]
            # the block's effective channels and feedback are laid out (draw,
            # SNR point, user), and every row is the one its user's own call gives
            ctx = harness._Context(cfg)
            block = ctx.effective(range(3))
            h_hat, h, lam = harness._by_point(ctx, block.h_hat), harness._by_point(ctx, block.h), harness._lambda_sq(ctx, block)
            cdi, cqi, _ = harness._block_feedback(ctx, strategy, block, ctx.params_by_snr * 3)
            H, sub = ctx.channel_stack(range(3))
            chans = [UserChannel(H=h, subcarriers=s) for h, s in zip(H, sub)]
            expected = [(chans[3 * d + m], p) for d in range(3) for p in ctx.params_by_snr for m in range(3)]
            assert h_hat.shape == h.shape == (3 * 3, 3, 3) and lam.shape == cdi.shape == cqi.shape == (3 * 3, 3)
            rows = zip(h_hat.reshape(-1, 3), h.reshape(-1, 3), lam.ravel().tolist(), cdi.ravel().tolist(), cqi.ravel().tolist())
            for (uc, p), (row_h_hat, row_h, row_lam, i, q) in zip(expected, rows):
                ref = mrc_effective_channel(uc, p)
                assert np.array_equal(row_h_hat, ref.h_hat) and np.array_equal(row_h, ref.h) and row_lam == ref.lambda_sq
                msg = compute_feedback(strategy, uc, ctx.C, ctx.V, p)
                assert (i, q) == (msg.cdi_index, msg.cqi)


def _count_searches(monkeypatch):
    """Record, per ra_feedback_batch call, how many gain searches it runs."""
    import ramimo.feedback as fb

    counts = []
    batch, search = fb._ra_messages, fb.minimax_log_gain

    def counting_batch(*args, **kwargs):
        counts.append(0)
        return batch(*args, **kwargs)

    def counting_search(*args):
        counts[-1] += 1
        return search(*args)

    monkeypatch.setattr(fb, "_ra_messages", counting_batch)
    monkeypatch.setattr(fb, "minimax_log_gain", counting_search)
    return counts


def test_draws_independent_of_gain_search_groups(monkeypatch):
    # ra_feedback_batch splits a block's surviving columns into gain-search
    # chunks of at most _BATCH_ELEMENTS entries; with a small limit one
    # delta-ra block and one ra-full sum-rate block each span at least 3
    # chunks, and every draw equals its value at block sizes 1 and 3
    import ramimo.feedback as fb
    import ramimo.harness as harness

    monkeypatch.setattr(fb, "_BATCH_ELEMENTS", 1 << 9)
    default = harness._block_size
    ra = {"strategy": "ra-full", "scheduler": "brute", "B": 4, "feedback_codebook": {"kind": "rvq-union-tx"}}
    delta = _cfg(system={"n_t": 3, "n_r": 1, "n_s": 3}, snr_db_list=[0.0, 60.0, 100.0], master_seed=43, **ra)
    sum_rate = _cfg(system={"n_t": 4, "n_r": 1, "n_s": 2}, num_users=10, num_draws=27, **ra)
    for cfg, run in ((delta, run_delta_ra_experiment), (sum_rate, run_sum_rate_experiment)):
        assert cfg.num_draws > default(cfg.num_users, len(cfg.snr_db_list))
        results = []
        for n in (1, 3, None):
            monkeypatch.setattr(harness, "_block_size", default if n is None else lambda n_users, n_snr, n=n: n)
            with monkeypatch.context() as mp:
                searches = _count_searches(mp)
                result = run(cfg)
            results.append((result.draws, result.tables))
        assert searches[0] >= 3  # the first full-size block
        assert results[0] == results[1] == results[2]


@pytest.mark.parametrize("elements", [None, 1 << 10])
def test_gain_search_passes_stay_within_the_memory_cap(monkeypatch, elements):
    # at the benchmark's delta-ra and ra-full configs no excess pass of the
    # gain search sees more than _BATCH_ELEMENTS (column, configuration)
    # entries, and at the default cap one search covers a whole block,
    # which makes at most 7 excess passes: the pre-pass's upper bound,
    # x = 0 and at most 5 root rounds
    import ramimo.feedback as fb

    if elements is not None:
        monkeypatch.setattr(fb, "_BATCH_ELEMENTS", elements)
    entries, passes = [], []
    make_excess = fb._excess

    def watched_excess(r_true, noise, table):
        excess, coefficients = make_excess(r_true, noise, table)
        passes.append(0)

        def watched(x, *columns):
            entries.append(x.size * len(table))
            passes[-1] += 1
            return excess(x, *columns)

        return watched, coefficients

    monkeypatch.setattr(fb, "_excess", watched_excess)
    searches = _count_searches(monkeypatch)
    ra = {"strategy": "ra-full", "scheduler": "brute", "feedback_codebook": {"kind": "rvq-union-tx"}}
    delta = _cfg(system={"n_t": 3, "n_r": 1, "n_s": 3}, num_users=3, snr_db_list=[0.0, 20.0, 40.0, 60.0, 80.0, 100.0], B=6, num_draws=28, master_seed=107, **ra)
    sum_rate = _cfg(system={"n_t": 4, "n_r": 1, "n_s": 2}, num_users=10, snr_db_list=[10.0], B=4, num_draws=50, master_seed=109, **ra)
    for cfg, run in ((delta, run_delta_ra_experiment), (sum_rate, run_sum_rate_experiment)):
        entries.clear()
        searches.clear()
        passes.clear()
        run(cfg)
        assert len(searches) == len(passes) == 2 and entries and max(entries) <= fb._BATCH_ELEMENTS
        if elements is None:
            assert searches == [1, 1]
            assert max(passes) <= 7
        else:
            assert min(searches) >= 2


def test_harness_hands_arrays_between_stages(monkeypatch):
    # no stage of a block builds a per-row result object: with every such
    # type made unbuildable, sum-rate runs of each strategy, scheduler and
    # precoder and delta-ra runs still complete
    import ramimo.channel
    import ramimo.feedback
    import ramimo.rates
    import ramimo.scheduler
    from ramimo.feedback import STRATEGIES

    class Forbidden:
        def __init__(self, *args, **kwargs):
            raise AssertionError(f"{type(self).__name__} built on the harness path")

    names = ("EffectiveChannel", "FeedbackMessage", "ScheduleDecision", "PrecodedDecision", "RateReport")
    for module in (ramimo.channel, ramimo.feedback, ramimo.rates, ramimo.scheduler):
        for name in names:
            if hasattr(module, name):
                monkeypatch.setattr(module, name, type(name, (Forbidden,), {}))
    with pytest.raises(AssertionError, match="EffectiveChannel built"):
        mrc_effective_channel(UserChannel(H=np.ones((1, 4))), SystemParams(n_t=4))
    base = _cfg(
        system={"n_t": 4, "n_r": 2, "n_s": 2},
        num_users=4,
        num_draws=3,
        snr_db_list=[0.0, 30.0],
        scheduler="brute",
        feedback_codebook={"kind": "rvq-union-tx"},
        F=2,
    )
    for strategy in STRATEGIES:
        assert len(run_sum_rate_experiment(base.replace(strategy=strategy)).draws["sum_rate_nats"]) == 3
    run_sum_rate_experiment(base.replace(strategy="ra-full", scheduler="greedy"))
    run_sum_rate_experiment(base.replace(precoder="zf"))
    for strategy in ("ra-full", "chordal"):
        assert len(run_delta_ra_experiment(base.replace(strategy=strategy)).draws["gap_samples_nats"]) == 3


def test_block_size_rule():
    from ramimo.harness import _BLOCK_ROWS, _block_size

    criterion_9 = SimConfig.from_dict(
        {
            "system": {"n_t": 4, "n_r": 1, "n_s": 2},
            "num_users": 10,
            "snr_db_list": [10.0],
            "B": 4,
            "scheduler": "brute",
            "feedback_codebook": {"kind": "rvq-union-tx"},
            "strategy": "ra-full",
        }
    )
    criterion_7 = SimConfig.from_dict(
        {
            "system": {"n_t": 3, "n_r": 1, "n_s": 3},
            "num_users": 3,
            "snr_db_list": [0.0, 10.0, 20.0, 30.0, 40.0],
            "B": 6,
            "strategy": "ra-full",
            "scheduler": "brute",
            "feedback_codebook": {"kind": "rvq-union-tx"},
        }
    )
    # one rule for every experiment, strategy, scheduler and precoder:
    # _BLOCK_ROWS (draw, SNR point, user) rows, at least one draw
    assert _block_size(criterion_9.num_users, len(criterion_9.snr_db_list)) == 25
    assert _block_size(criterion_7.num_users, len(criterion_7.snr_db_list)) == 17
    assert _block_size(3, 6) == 14  # the benchmark's delta-ra sweep
    for cfg in (criterion_9, criterion_7):
        for kw in ({}, {"num_users": 1}, {"num_users": 500}, {"snr_db_list": [float(s) for s in range(300)]}):
            n_users, n_snr = cfg.replace(**kw).num_users, len(cfg.replace(**kw).snr_db_list)
            assert _block_size(n_users, n_snr) == max(1, _BLOCK_ROWS // (n_users * n_snr))
    assert _block_size(500, 1) == _block_size(3, 300) == 1


def test_perfect_dominates_partial():
    # exact scheduling on true channels can never lose to scheduling on
    # quantized vectors, draw by draw: every receiver realizes the MRC
    # effective channel the perfect-CSIT scheduler sees, so its predicted
    # rate is the realized one, for n_r = 1 and n_r = 2 alike
    base = dict(num_users=4, num_draws=1000, snr_db_list=[10.0], B=2, scheduler="brute")
    for n_r in (1, 2):
        system = {"n_t": 2, "n_r": n_r, "n_s": 2}
        r_perfect = run_sum_rate_experiment(_cfg(system=system, strategy="perfect", **base))
        r_chordal = run_sum_rate_experiment(_cfg(system=system, strategy="chordal", **base))
        mean_p = r_perfect.tables[0]["mean_rate_nats"]
        mean_c = r_chordal.tables[0]["mean_rate_nats"]
        assert mean_p >= mean_c
        a = np.array(r_perfect.draws["sum_rate_nats"])
        b = np.array(r_chordal.draws["sum_rate_nats"])
        assert np.all(a >= b - 1e-9)


def test_cdf_is_a_distribution():
    cfg = _cfg(num_draws=60)
    result = run_sum_rate_experiment(cfg)
    for curve in result.cdf.values():
        y = np.array(curve["y"])
        assert np.all(np.diff(y) >= 0)
        assert 0.0 <= y[0] <= 1.0
        assert y[-1] == 1.0
        assert len(y) == 200


def test_emit_round_trip(tmp_path):
    cfg = _cfg(num_draws=10)
    result = run_sum_rate_experiment(cfg)
    jpath, cpath = emit(result, tmp_path / "out")
    payload = json.loads(open(jpath).read())
    assert payload["tables"] == result.tables
    lines = open(cpath).read().splitlines()
    # header + one row per CDF grid point per snr point
    assert len(lines) == 1 + 200 * len(cfg.snr_db_list)
    rerun = emit(run_sum_rate_experiment(cfg), tmp_path / "out2")
    assert open(rerun[0], "rb").read() == open(jpath, "rb").read()
    assert open(rerun[1], "rb").read() == open(cpath, "rb").read()


def test_delta_ra_small_run_attaches_bounds():
    cfg = _cfg(
        num_users=2,
        num_draws=25,
        strategy="ra-full",
        B=4,
        feedback_codebook={"kind": "rvq-union-tx"},
        snr_db_list=[0.0, 20.0],
    )
    result = run_delta_ra_experiment(cfg)
    assert "bounds_omitted" not in result.metadata
    for row in result.tables:
        assert row["delta_ra_nats"] >= 0.0
        assert row["lemma2_bound_empirical"] >= 0.0


def test_delta_ra_dense_codebook_small_gap():
    cfg = _cfg(
        num_users=2,
        num_draws=40,
        strategy="ra-full",
        B=10,
        feedback_codebook={"kind": "rvq-union-tx"},
        snr_db_list=[10.0],
    )
    result = run_delta_ra_experiment(cfg)
    assert result.tables[0]["delta_ra_nats"] < 0.05


def test_delta_ra_omits_bounds_without_subset():
    cfg = _cfg(num_users=2, num_draws=5, strategy="ra-full", B=3, feedback_codebook={"kind": "rvq"})
    result = run_delta_ra_experiment(cfg)
    assert "bounds_omitted" in result.metadata
    assert "lemma2_bound_empirical" not in result.tables[0]


def test_scaling_requires_b_list():
    with pytest.raises(ValueError, match="b_list"):
        run_scaling_experiment(_cfg())


def test_scaling_single_b_has_no_slope():
    cfg = _cfg(system={"n_t": 3, "n_r": 1, "n_s": 2}, num_draws=50)
    result = run_scaling_experiment(cfg.replace(b_list=[4]))
    assert result.metadata["log2_slope_d_hat"] is None


def test_scaling_records_its_bit_list():
    # the bits a scaling run measures are its config's b_list, so they are
    # in result.json's config and in its hash
    cfg = _cfg(system={"n_t": 3, "n_r": 1, "n_s": 2}, num_draws=20)
    one, two = (run_scaling_experiment(cfg.replace(b_list=b)) for b in ([4], [4, 6]))
    assert one.config["b_list"] == [4] and two.config["b_list"] == [4, 6]
    assert [row["B"] for row in two.tables] == [4, 6]
    assert one.config_hash != two.config_hash


def test_scaling_reports_decreasing_estimates():
    cfg = _cfg(system={"n_t": 3, "n_r": 1, "n_s": 2}, num_draws=200)
    result = run_scaling_experiment(cfg.replace(b_list=[2, 4, 6]))
    d_hats = [row["D_hat_est"] for row in result.tables]
    assert d_hats[0] > d_hats[1] > d_hats[2]
    assert result.metadata["log2_slope_d_hat"] < 0


def test_contrast_experiment_shape_and_trend():
    from ramimo.harness import run_contrast_experiment

    cfg = _cfg(
        system={"n_t": 4, "n_r": 1, "n_s": 2},
        num_users=5,
        num_draws=150,
        strategy="ra-full",
        B=4,
        feedback_codebook={"kind": "rvq-union-tx"},
        snr_db_list=[10.0, 25.0, 40.0],
    )
    result = run_contrast_experiment(cfg)
    assert [row["snr_db"] for row in result.tables] == [10.0, 25.0, 40.0]
    gaps_zf = [row["zf_gap_nats"] for row in result.tables]
    # quantized zeroforcing becomes interference-limited: loss grows with SNR
    assert gaps_zf[0] < gaps_zf[1] < gaps_zf[2]
    for row in result.tables:
        assert row["fixed_codebook_gap_nats"] >= -0.05


def test_frequency_selective_run_smoke():
    cfg = _cfg(
        num_users=2,
        num_draws=20,
        strategy="ra-full",
        F=6,
        rho=0.9,
        feedback_codebook={"kind": "rvq-union-tx"},
        B=3,
    )
    result = run_sum_rate_experiment(cfg)
    assert result.tables[0]["mean_rate_nats"] > 0


def test_zf_schedule_selects_orthogonal_users():
    params = SystemParams(n_t=2, n_r=1, n_s=2, P=10.0)
    decision, predicted = zf_schedule({0: 2.0 * E1, 1: 2.0 * E2, 2: 1.4 * E1}, params)
    assert set(decision.users) == {0, 1}
    assert predicted > 0


def test_cli_simulate_and_codebook(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(_cfg(num_draws=5).to_dict()))
    out = tmp_path / "res"
    rc = cli_main(["simulate", "--config", str(cfg_path), "--out", str(out)])
    assert rc == 0
    assert (out / "result.json").exists()
    assert (out / "curves.csv").exists()

    cb_path = tmp_path / "cb.txt"
    assert cli_main(["codebook", "gen", str(cb_path), "--kind", "dft", "--dim", "4"]) == 0
    assert cli_main(["codebook", "check", str(cb_path)]) == 0


def test_cli_bounds_and_quantizer(tmp_path):
    out = tmp_path / "b"
    rc = cli_main(["bounds", "--out", str(out), "--n-t-list", "3", "--b-list", "4,6", "--snr-list", "10"])
    assert rc == 0
    assert (out / "bounds.csv").exists()
    rc = cli_main(["quantizer", "--bits", "2", "--out", str(tmp_path / "q"), "--probes", "20000"])
    assert rc == 0


@pytest.mark.parametrize(
    "argv, message",
    [
        (["bounds", "--n-t-list", "1"], "n_t must be >= 2"),
        (["bounds", "--n-t-list", "0"], "n_t must be >= 2"),
        (["bounds", "--b-list", "-3"], "B must be >= 0"),
        (["quantizer", "--bits", "2", "--probes", "0"], "n_probes must be >= 1"),
        (["quantizer", "--bits", "2", "--probes", "-5"], "n_probes must be >= 1"),
    ],
)
def test_cli_rejects_bad_bounds_and_quantizer_input(tmp_path, capsys, argv, message):
    # bad input is a usage error: a message, exit status 2 and no output files
    rc = cli_main([*argv, "--out", str(tmp_path / "out")])
    assert rc == 2
    assert f"error: {message}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_bare_pytest_finds_the_package(tmp_path):
    # pyproject's pytest settings put src/ on the path, so a plain
    # `python -m pytest` collects without PYTHONPATH or an installed copy
    root = Path(__file__).resolve().parent.parent
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "--collect-only", "-q", "-p", "no:cacheprovider", "tests/test_rates.py"],
        cwd=root,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_cli_seed_override(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(_cfg(num_draws=5).to_dict()))
    out1 = tmp_path / "a"
    out2 = tmp_path / "b"
    assert cli_main(["simulate", "--config", str(cfg_path), "--out", str(out1), "--seed", "1"]) == 0
    assert cli_main(["simulate", "--config", str(cfg_path), "--out", str(out2), "--seed", "2"]) == 0
    a = json.loads((out1 / "result.json").read_text())
    b = json.loads((out2 / "result.json").read_text())
    assert a["draws"] != b["draws"]


def test_cli_rejects_bad_config(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"nope": 1}))
    rc = cli_main(["simulate", "--config", str(cfg_path), "--out", str(tmp_path / "x")])
    assert rc == 2
    assert "unknown config keys" in capsys.readouterr().err


def test_cli_rejects_non_integer_config(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({**_cfg(num_draws=5).to_dict(), "num_draws": 2.5}))
    rc = cli_main(["simulate", "--config", str(cfg_path), "--out", str(tmp_path / "x")])
    assert rc == 2
    assert "error: num_draws must be an integer, got 2.5" in capsys.readouterr().err


def test_cli_rejects_file_codebook_without_path(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({**_cfg(num_draws=5).to_dict(), "transmit_codebook": {"kind": "file"}}))
    rc = cli_main(["simulate", "--config", str(cfg_path), "--out", str(tmp_path / "x")])
    assert rc == 2
    assert "error: transmit_codebook kind 'file' needs a string 'path', got None" in capsys.readouterr().err


@pytest.mark.parametrize(
    "overrides",
    [{"transmit_codebook": 5}, {"transmit_codebook": "kind"}, {"system": [1, 2]}, {"feedback_codebook": {"kind": "rvq-union-tx", "path": 3}}],
)
def test_cli_rejects_malformed_config_objects(tmp_path, capsys, overrides):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({**_cfg(num_draws=5).to_dict(), **overrides}))
    rc = cli_main(["simulate", "--config", str(cfg_path), "--out", str(tmp_path / "x")])
    assert rc == 2
    assert "error:" in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


def test_context_channels_use_derived_streams():
    # a block's channels are the per-user draws of the streams
    # SeedSpec(master_seed).derive("chan", draw, user)
    from ramimo.channel import draw_user_channel

    cfg = _cfg(num_users=3, F=4, rho=0.9, master_seed=2**33 + 5)
    draws = [0, 7, 2**32 + 1]
    H, sub = _Context(cfg).channel_stack(draws)
    for d, i in enumerate(draws):
        for m in range(cfg.num_users):
            ref = draw_user_channel(cfg.params, cfg.F, cfg.rho, SeedSpec(cfg.master_seed).derive("chan", i, m))
            assert sub[d * cfg.num_users + m].tobytes() == ref.subcarriers.tobytes()
            assert H[d * cfg.num_users + m].tobytes() == ref.H.tobytes()
