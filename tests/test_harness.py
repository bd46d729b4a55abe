import json

import numpy as np
import pytest

from ramimo.channel import SystemParams, UserChannel
from ramimo.cli import main as cli_main
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
    # the schedule must realize exactly 2 log(1 + P / (2 sigma^2))
    cfg = _cfg(num_users=2, num_draws=1, strategy="perfect", scheduler="brute", snr_db_list=[3.0103])
    ctx = _Context(cfg)
    fixed = {0: UserChannel(H=E1[None, :].conj()), 1: UserChannel(H=E2[None, :].conj())}
    monkeypatch.setattr(ctx, "channels", lambda draws: [fixed for _ in draws])
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
    configs = (
        two_snr,
        _cfg(num_draws=7, F=4, rho=0.9, **ra),
        two_snr.replace(workers=2),
        zf_ofdm,
        zf_perfect,
        brute_chordal,
    )
    runs = []
    for cfg in configs:
        draws = []
        for size in (1, 3, 16, None):
            monkeypatch.setattr(harness, "_block_size", default if size is None else lambda ctx, kind, n=size: n)
            draws.append(run_sum_rate_experiment(cfg).draws)
        assert draws[0] == draws[1] == draws[2] == draws[3]
        runs.append(draws[0])
    assert len(runs[0]["sum_rate_nats"]) == 13
    assert runs[2] == runs[0]


def test_replace_applies_system_keys():
    cfg = _cfg(system={"n_t": 4, "n_r": 2, "n_s": 2, "P": 3.0})
    new = cfg.replace(system={"n_r": 1, "n_s": 4}, strategy="perfect")
    assert new.params == SystemParams(n_t=4, n_r=1, n_s=4, P=3.0, sigma_sq=1.0)
    assert new.strategy == "perfect"
    assert cfg.params == SystemParams(n_t=4, n_r=2, n_s=2, P=3.0, sigma_sq=1.0)
    with pytest.raises(ValueError, match="unknown system keys"):
        cfg.replace(system={"n_x": 1})


def test_replace_keeps_system_when_not_given():
    cfg = _cfg(system={"n_t": 4, "n_r": 2, "n_s": 3, "P": 3.0, "sigma_sq": 0.5})
    new = cfg.replace(num_draws=5, workers=2)
    assert new.params == cfg.params
    assert new.to_dict() == {**cfg.to_dict(), "num_draws": 5, "workers": 2}


def test_delta_ra_draws_independent_of_block_size(monkeypatch):
    # a delta-ra block builds every (draw, SNR point, user) effective
    # channel once and shares it between the feedback search and the gap
    # samples; the draws must not depend on the block they land in
    import ramimo.harness as harness

    default = harness._block_size
    cfg = SimConfig.from_dict(
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
    runs = []
    for size in (1, 3, None):
        monkeypatch.setattr(harness, "_block_size", default if size is None else lambda ctx, kind, n=size: n)
        result = run_delta_ra_experiment(cfg)
        runs.append((result.draws, result.tables))
    assert default(harness._Context(cfg), "delta-ra") >= 7
    assert runs[0] == runs[1] == runs[2]
    # the prebuilt effective channels reach the jobs they belong to
    ctx = harness._Context(cfg)
    chans = ctx.channels(range(3))
    effs = [
        [{m: harness.mrc_effective_channel(ch, p) for m, ch in channels.items()} for p in ctx.params_by_snr]
        for channels in chans
    ]
    assert harness._block_messages(ctx, "ra-full", chans, effs) == harness._block_messages(ctx, "ra-full", chans)


def test_block_size_rule():
    from ramimo.feedback import ra_batch_group
    from ramimo.harness import _block_size

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
    assert _block_size(_Context(criterion_9), "sum-rate") > 1
    zf = criterion_9.replace(strategy="chordal", precoder="zf", F=8)
    assert _block_size(_Context(zf), "sum-rate") > 1
    assert _block_size(_Context(zf.replace(strategy="perfect", snr_db_list=[0.0, 30.0])), "sum-rate") > 1
    ctx = _Context(criterion_7)
    group = ra_batch_group(ctx.C, ctx.V, criterion_7.params)
    assert _block_size(ctx, "delta-ra") == max(1, group // (criterion_7.num_users * len(criterion_7.snr_db_list)))
    for cfg in (criterion_9, criterion_7):
        for kw in ({}, {"num_users": 1}, {"num_users": 500}, {"strategy": "perfect"}, {"strategy": "chordal"}):
            ctx = _Context(cfg.replace(**kw))
            assert _block_size(ctx, "sum-rate") >= 1
            assert _block_size(ctx, "delta-ra") >= 1


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
    result = run_scaling_experiment(cfg, B_list=[4])
    assert result.metadata["log2_slope_d_hat"] is None


def test_scaling_reports_decreasing_estimates():
    cfg = _cfg(system={"n_t": 3, "n_r": 1, "n_s": 2}, num_draws=200)
    result = run_scaling_experiment(cfg, B_list=[2, 4, 6])
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


def test_context_channels_use_derived_streams():
    # a block's channels are the per-user draws of the streams
    # SeedSpec(master_seed).derive("chan", draw, user)
    from ramimo.channel import draw_user_channel

    cfg = _cfg(num_users=3, F=4, rho=0.9, master_seed=2**33 + 5)
    draws = [0, 7, 2**32 + 1]
    for i, channels in zip(draws, _Context(cfg).channels(draws)):
        for m, uc in channels.items():
            ref = draw_user_channel(cfg.params, cfg.F, cfg.rho, SeedSpec(cfg.master_seed).derive("chan", i, m))
            assert uc.subcarriers.tobytes() == ref.subcarriers.tobytes()
            assert uc.H.tobytes() == ref.H.tobytes()
