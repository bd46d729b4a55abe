import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from oracles import jumped_generator, reference_draw_channels
from ramimo.bounds import BoundsReport
from ramimo.channel import SystemParams, UserChannel, mrc_effective_channel, user_channels_block
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
    write_csv,
    write_json,
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


@pytest.mark.parametrize("name", ["transmit_codebook", "feedback_codebook"])
@pytest.mark.parametrize(
    "spec, message",
    [
        ({"kind": "file"}, "{name} kind 'file' needs a string 'path'"),
        ({"kind": "grassmannian"}, "{name} kind must be one of"),
        ({"kind": "file", "path": "cb.txt", "size": 4}, r"unknown {name} keys: \['size'\]"),
        (None, "{name} spec must be an object"),
    ],
    ids=["file-without-path", "unknown-kind", "unknown-key", "not-an-object"],
)
def test_direct_construction_validates_codebook_specs(name, spec, message):
    # SimConfig(...) itself checks its codebook specs, as from_dict and
    # replace do: a file spec without a path used to construct and then
    # fail mid-run with KeyError: 'path', and an unknown kind only when
    # its codebook was built
    with pytest.raises(ValueError, match=message.format(name=name)):
        SimConfig(SystemParams(n_t=4), **{name: spec})


def test_codebook_specs_are_read_only_copies():
    # a config keeps read-only copies of its codebook specs: a later change
    # to the caller's dict cannot bypass the checks, the frozen config's
    # spec cannot be changed, to_dict (so result.json and config_hash)
    # still gives plain dicts, and the config still pickles and deep-copies
    import copy
    import pickle

    from ramimo.codebook import dft_codebook

    spec = {"kind": "dft"}
    cfg = SimConfig(SystemParams(n_t=4), transmit_codebook=spec)
    spec["kind"] = "file"
    assert np.array_equal(build_transmit_codebook(cfg).vectors, dft_codebook(4).vectors)
    with pytest.raises(TypeError, match="read-only"):
        cfg.feedback_codebook["kind"] = "nope"
    for change in (lambda s: s.update(kind="nope"), lambda s: s.pop("kind"), lambda s: s.clear()):
        with pytest.raises(TypeError, match="read-only"):
            change(cfg.transmit_codebook)
    for twin in (pickle.loads(pickle.dumps(cfg)), copy.deepcopy(cfg)):
        assert twin == cfg and twin.to_dict() == cfg.to_dict()
        with pytest.raises(TypeError, match="read-only"):
            twin.transmit_codebook["kind"] = "nope"
    d = cfg.to_dict()
    assert type(d["transmit_codebook"]) is dict and d["transmit_codebook"] == {"kind": "dft"}
    assert type(d["feedback_codebook"]) is dict and d["feedback_codebook"] == {"kind": "rvq-union-tx"}
    d["transmit_codebook"]["kind"] = "canonical"  # a copy: the config keeps its spec
    assert cfg.transmit_codebook == {"kind": "dft"}
    assert SimConfig.from_dict(cfg.to_dict()) == cfg
    assert cfg.config_hash() == SimConfig(SystemParams(n_t=4), transmit_codebook={"kind": "dft"}).config_hash()
    assert SimConfig(SystemParams(n_t=4), transmit_codebook=cfg.transmit_codebook) == cfg


def test_config_rejects_a_power_nothing_reads():
    # a run's powers come from snr_db_list: P = 1000 used to run exactly
    # like P = 1, under the same config_hash, yet compare unequal
    with pytest.raises(ValueError, match=r"params.P must be 1.0, got 1000.0: .*snr_db_list"):
        SimConfig(SystemParams(n_t=4, P=1000.0))
    assert SimConfig(SystemParams(n_t=4, P=1.0)) == SimConfig.from_dict({})


@pytest.mark.parametrize("name", ["transmit_codebook", "feedback_codebook"])
def test_file_codebook_of_the_wrong_dimension_fails_before_any_draw(tmp_path, monkeypatch, name):
    # a dimension-3 file under n_t = 4 used to draw the channels and then
    # die inside numpy's matmul; it is refused where the codebook is built
    import ramimo.harness as harness
    from ramimo.codebook import dft_codebook, save_codebook

    def no_draws(*args, **kwargs):
        raise AssertionError("channels were drawn")

    path = tmp_path / "cb3.txt"
    save_codebook(dft_codebook(3), str(path))
    cfg = _cfg(system={"n_t": 4, "n_r": 1, "n_s": 2}, **{name: {"kind": "file", "path": str(path)}})
    monkeypatch.setattr(harness, "draw_channel_stack", no_draws)
    with pytest.raises(ValueError, match=f"^{name} file has dimension 3, but n_t = 4$"):
        run_sum_rate_experiment(cfg)


def test_serial_import_leaves_multiprocessing_out():
    # the process pool is imported only by a run with workers > 1, so
    # importing the harness does not pay for multiprocessing
    code = "import sys, ramimo.harness; print(sorted(m for m in sys.modules if m.startswith('multiprocessing')))"
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True)
    assert proc.stdout.strip() == "[]"


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
    # executor records the size and the blocks and maps in this process,
    # so no process starts, and the results and metadata.workers stay as
    # requested
    import concurrent.futures

    import ramimo.harness as harness

    sizes, blocks = [], []

    class SerialExecutor:
        def __init__(self, max_workers, initializer, initargs):
            sizes.append(max_workers)
            initializer(*initargs)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items, chunksize=1):
            blocks.append([len(draws) for draws in items])
            return map(fn, items)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialExecutor)
    monkeypatch.setattr(harness, "_WORKER_CTX", {})
    serial = run_sum_rate_experiment(_cfg(num_draws=1))
    one_block = run_sum_rate_experiment(_cfg(num_draws=1, workers=64))
    assert sizes == [1] and blocks == [[1]] and one_block.metadata["workers"] == 64
    assert one_block.draws == serial.draws and one_block.tables == serial.tables
    # with workers > 1 a block holds at most ceil(num_draws / (2 workers))
    # of the 30 draws, so every worker gets at least two blocks
    serial = run_sum_rate_experiment(_cfg())
    for workers, expected, lengths in ((2, 2, [8, 8, 8, 6]), (4, 4, [4] * 7 + [2]), (64, 30, [1] * 30)):
        sizes.clear()
        blocks.clear()
        result = run_sum_rate_experiment(_cfg(workers=workers))
        assert sizes == [expected] and blocks == [lengths] and result.metadata["workers"] == workers
        assert result.draws == serial.draws
    monkeypatch.setattr(harness, "_block_size", lambda kind, ctx: 10)
    for workers, expected in ((64, 3), (2, 2)):
        sizes.clear()
        result = run_sum_rate_experiment(_cfg(workers=workers))
        assert sizes == [expected] and result.metadata["workers"] == workers
        assert result.draws == serial.draws


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
            monkeypatch.setattr(harness, "_block_size", default if size is None else lambda kind, ctx, n=size: n)
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
    assert default("delta-ra", harness._Context(base)) >= 7
    for strategy in ("chordal", "ra-full", "ra-efficient", "lemma1"):
        for F in (1, 4):
            cfg = base.replace(strategy=strategy, F=F)
            runs = []
            for size in (1, 3, None):
                monkeypatch.setattr(harness, "_block_size", default if size is None else lambda kind, ctx, n=size: n)
                result = run_delta_ra_experiment(cfg)
                runs.append((result.draws, result.tables))
            assert runs[0] == runs[1] == runs[2]
            # the block's effective channels and feedback are laid out (draw,
            # SNR point, user), and every row is the one its user's own call gives
            ctx = harness._Context(cfg)
            block = ctx.effective(range(3))
            h_hat, h, lam = harness._by_point(ctx, block.h_hat), harness._by_point(ctx, block.h), harness._lambda_sq(ctx, block)
            cdi, cqi, _ = harness._block_feedback(ctx, strategy, block, np.tile(ctx.P, 3))
            H, sub = ctx.channel_stack(range(3))
            chans = [UserChannel(H=h, subcarriers=s) for h, s in zip(H, sub)]
            assert block.sub_h_hat.tobytes() == user_channels_block(chans).sub_h_hat.tobytes()
            points = [cfg.params.with_snr_db(snr) for snr in cfg.snr_db_list]
            expected = [(chans[3 * d + m], p) for d in range(3) for p in points for m in range(3)]
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
    for cfg, run, kind in ((delta, run_delta_ra_experiment, "delta-ra"), (sum_rate, run_sum_rate_experiment, "sum-rate")):
        assert cfg.num_draws <= default(kind, harness._Context(cfg))  # the default runs one block
        results = []
        for n in (1, 3, None):
            monkeypatch.setattr(harness, "_block_size", default if n is None else lambda kind, ctx, n=n: n)
            with monkeypatch.context() as mp:
                searches = _count_searches(mp)
                result = run(cfg)
            results.append((result.draws, result.tables))
        assert searches[0] >= 3  # the default block
        assert results[0] == results[1] == results[2]


@pytest.mark.parametrize("elements", [None, 1 << 10])
def test_gain_search_passes_stay_within_the_memory_cap(monkeypatch, elements):
    # at the benchmark's delta-ra and ra-full configs, each run one block,
    # no excess pass of the gain search sees more than _BATCH_ELEMENTS
    # (column, configuration) entries, and at the default cap one search
    # covers the whole block, which makes at most 7 excess passes: the
    # pre-pass's upper bound, the columns' single-user starts and at most
    # 5 further root rounds
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
        assert len(searches) == len(passes) == 1 and entries and max(entries) <= fb._BATCH_ELEMENTS
        if elements is None:
            assert searches == [1]
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
    from ramimo.harness import _BLOCK_ENTRIES, _block_size, _Context

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
    deltara_sweep = criterion_7.replace(snr_db_list=[0.0, 20.0, 40.0, 60.0, 80.0, 100.0])
    zf_ofdm = criterion_9.replace(strategy="chordal", precoder="zf", snr_db_list=[30.0], F=8, rho=0.95)

    def size(kind, cfg, **kw):
        return _block_size(kind, _Context(cfg.replace(**kw)))

    # one rule for every experiment, strategy, scheduler and precoder:
    # _BLOCK_ENTRIES entries of the widest per-row array over the block's
    # (draw, SNR point, user) rows, at least one draw
    assert _BLOCK_ENTRIES == 1 << 16
    assert size("sum-rate", criterion_9) == 409  # |V| = |configurations| = 16: 4,090 rows
    assert size("delta-ra", criterion_7) == 68  # |V| = 64: 1,020 rows
    assert size("delta-ra", deltara_sweep) == 56  # 1,008 rows
    assert size("sum-rate", zf_ofdm) == 204  # F n_r n_t = 32: 2,040 rows
    # every benchmark call is one block
    assert (size("sum-rate", criterion_9), size("sum-rate", zf_ofdm), size("delta-ra", deltara_sweep)) >= (50, 150, 25)
    # |V| = 256 (B = 8) keeps 256 rows
    assert size("delta-ra", criterion_7, B=8) == 256 // 15
    assert size("sum-rate", criterion_9, B=8) == 256 // 10
    # F = 8 zf on two receive antennas: F n_r n_t = 64
    assert size("sum-rate", zf_ofdm, system={"n_r": 2}) == 102
    # ra-full true rates over F = 4 subcarriers: F |configurations| = 64,
    # a width chordal feedback does not hold
    assert size("sum-rate", criterion_9, F=4) == 102
    assert size("sum-rate", criterion_9, F=4, strategy="chordal") == 409
    # delta-ra under perfect CSIT runs ra-full feedback; sum-rate runs none
    assert size("delta-ra", criterion_9, strategy="perfect", F=8) == 51
    assert size("sum-rate", criterion_9, strategy="perfect", F=8) == 204
    # with workers > 1 at most ceil(num_draws / (2 workers)) draws
    assert size("sum-rate", criterion_9, workers=2, num_draws=1000) == 250
    assert size("sum-rate", criterion_9, workers=3, num_draws=5000) == 409
    assert size("sum-rate", criterion_9, workers=64, num_draws=7) == 1
    assert size("sum-rate", criterion_9, num_users=500) == 8
    assert size("delta-ra", criterion_7, B=8, snr_db_list=[float(s) for s in range(300)]) == 1


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


@pytest.mark.parametrize("b_list", [[4, 4], [6, 4], [4, 6, 6]])
def test_scaling_rejects_repeated_or_decreasing_bits(b_list):
    # a repeated B would leave the log2 slope a fit through fewer distinct
    # points than the list claims
    cfg = _cfg(system={"n_t": 3, "n_r": 1, "n_s": 2}, num_draws=5)
    with pytest.raises(ValueError, match="b_list must be strictly increasing"):
        run_scaling_experiment(cfg.replace(b_list=b_list))


def test_cli_scaling_rejects_one_transmit_antenna(tmp_path, capsys):
    # the target slope -1 / (n_t - 1) needs n_t >= 2: a usage error, not a
    # ZeroDivisionError traceback
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(_cfg(system={"n_t": 1, "n_r": 1, "n_s": 1}, num_draws=5).to_dict()))
    rc = cli_main(["scaling", "--config", str(cfg_path), "--b-list", "4,6", "--out", str(tmp_path / "out")])
    assert rc == 2
    assert "error: scaling experiment needs n_t >= 2, got n_t=1" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


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


@pytest.mark.parametrize("command", ["codebook", "simulate"])
def test_cli_rejects_an_oversized_codebook(tmp_path, capsys, monkeypatch, command):
    # B = 40 is a usage error, exit status 2 and no output, before any
    # generator is made: nothing is allocated
    def no_draws(self):
        raise AssertionError("a generator was made")

    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({**_cfg(num_draws=5).to_dict(), "B": 40}))
    monkeypatch.setattr(SeedSpec, "generator", no_draws)
    out = tmp_path / "out"
    if command == "codebook":
        rc = cli_main(["codebook", "gen", str(out), "--kind", "rvq", "--bits", "40"])
    else:
        rc = cli_main(["simulate", "--config", str(cfg_path), "--out", str(out)])
    assert rc == 2
    assert "error: a 2^40 x " in capsys.readouterr().err
    assert not out.exists()


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
        (["bounds", "--snr-list", "4000"], "snr_db_list entry 4000.0 dB has no finite positive linear SNR"),
        (["bounds", "--snr-list", "10,nan"], "snr_db_list entry nan dB has no finite positive linear SNR"),
    ],
)
def test_cli_rejects_bad_bounds_and_quantizer_input(tmp_path, capsys, argv, message):
    # bad input is a usage error: a message, exit status 2 and no output files
    rc = cli_main([*argv, "--out", str(tmp_path / "out")])
    assert rc == 2
    assert f"error: {message}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["bounds", "--seed", "1"],
        ["bounds", "--workers", "2"],
        ["bounds", "--bits"],
        ["scaling", "--b-list", "4,6", "--workers", "2"],
        ["scaling", "--b-list", "4,6", "--bits"],
    ],
)
def test_cli_refuses_flags_its_subcommand_does_not_read(tmp_path, capsys, argv):
    # bounds reads no seed, worker count or unit, and scaling no worker
    # count or unit: these flags are usage errors, not silently ignored
    with pytest.raises(SystemExit) as exc:
        cli_main([*argv, "--out", str(tmp_path / "out")])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_cli_bounds_files_carry_every_report_field(tmp_path):
    out = tmp_path / "b"
    assert cli_main(["bounds", "--out", str(out), "--n-t-list", "2,3", "--b-list", "4", "--snr-list", "0,10"]) == 0
    header = (out / "bounds.csv").read_text().splitlines()[0]
    assert header == (
        "n_t,B,snr_db,n_s,mean_lambda_sq,c_nt,D_bound,lemma2_bound,theorem1_bound,jindal_gap,ra_nt3_gap,validity"
    )
    rows = json.loads((out / "bounds.json").read_text())
    assert [(row["n_t"], row["snr_db"]) for row in rows] == [(2, 0.0), (2, 10.0), (3, 0.0), (3, 10.0)]
    for row in rows:
        assert set(row) == {f.name for f in dataclasses.fields(BoundsReport)} | {"snr_db"}


def test_writers_format(tmp_path):
    # JSON: sorted keys, indent 1, exactly one final newline; CSV: the
    # header, then each row's columns, other keys ignored
    path = write_json(tmp_path / "new", "x.json", {"b": [1, 2], "a": {"d": None, "c": 1.5}})
    assert open(path, encoding="utf-8").read() == '{\n "a": {\n  "c": 1.5,\n  "d": null\n },\n "b": [\n  1,\n  2\n ]\n}\n'
    path = write_csv(tmp_path / "new", "x.csv", ["y", "x"], [{"x": 1, "y": 2, "z": 3}, {"x": 4}])
    assert open(path, "rb").read() == b"y,x\r\n2,1\r\n,4\r\n"


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


@pytest.mark.parametrize("F, n_r", [(1, 1), (1, 2), (4, 2)])
def test_context_channels_of_first_users_do_not_depend_on_user_count(F, n_r):
    # user m's channel is the same bits whether a draw has U or U + 2 users
    few = _cfg(system={"n_t": 4, "n_r": n_r, "n_s": 2}, num_users=3, F=F, rho=0.9)
    more = few.replace(num_users=5)
    draws = [0, 1, 2**32 + 9]
    H_few, sub_few = _Context(few).channel_stack(draws)
    H_more, sub_more = _Context(more).channel_stack(draws)
    keep = (np.arange(len(draws))[:, None] * 5 + np.arange(3)).ravel()
    assert H_more[keep].tobytes() == H_few.tobytes()
    assert sub_more[keep].tobytes() == sub_few.tobytes()


def test_context_channels_use_derived_streams():
    # a block's channels are, draw by draw, the users drawn in order from
    # the "chan" family SeedSpec(master_seed).derive("chan") jumped draw times
    cfg = _cfg(num_users=3, F=4, rho=0.9, master_seed=2**33 + 5)
    draws = [0, 7, 2**32 + 1]
    H, sub = _Context(cfg).channel_stack(draws)
    family = SeedSpec(cfg.master_seed).derive("chan")
    for d, i in enumerate(draws):
        ref = reference_draw_channels(cfg.params, cfg.F, cfg.rho, jumped_generator(family, i), cfg.num_users)
        for m, (ref_H, ref_sub) in enumerate(ref):
            assert sub[d * cfg.num_users + m].tobytes() == ref_sub.tobytes()
            assert H[d * cfg.num_users + m].tobytes() == ref_H.tobytes()
