import numpy as np
import pytest

from ramimo.codebook import (
    Codebook,
    NotTightFrameError,
    canonical_onb,
    concat_codebooks,
    dft_codebook,
    frame_constant,
    load_codebook,
    random_unitary,
    rvq_codebook,
    save_codebook,
)
from ramimo.numerics import SeedSpec


def test_canonical_onb():
    cb = canonical_onb(2)
    assert np.array_equal(cb.vectors, np.eye(2, dtype=complex))


def test_dft_codebook_dim2():
    cb = dft_codebook(2)
    expected = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
    assert np.allclose(cb.vectors, expected, atol=1e-12)


def test_random_unitary_gram_is_identity():
    cb = random_unitary(4, SeedSpec(5).derive("u"))
    gram = cb.vectors @ cb.vectors.conj().T
    assert np.max(np.abs(gram - np.eye(4))) < 1e-10


def test_rvq_sizes():
    assert rvq_codebook(3, 0, SeedSpec(1)).size == 1
    cb = rvq_codebook(4, 4, SeedSpec(1))
    assert cb.size == 16
    assert np.allclose(np.linalg.norm(cb.vectors, axis=1), 1.0, atol=1e-12)


def test_rvq_nested_in_b():
    small = rvq_codebook(3, 4, SeedSpec(9))
    big = rvq_codebook(3, 6, SeedSpec(9))
    assert np.array_equal(big.vectors[: small.size], small.vectors)


def test_rvq_isotropy():
    # pairwise squared alignment of uniform directions has mean 1/n_t
    n_t = 4
    cb = rvq_codebook(n_t, 10, SeedSpec(33))
    v = cb.vectors
    g = np.abs(v @ v.conj().T) ** 2
    off = g[~np.eye(len(v), dtype=bool)]
    assert np.mean(off) == pytest.approx(1.0 / n_t, abs=0.02)


def test_rvq_refuses_an_oversized_codebook_before_drawing(monkeypatch):
    # 2^40 x 4 entries would ask numpy for 64 TiB; the cap refuses it
    # before any generator is made, so nothing is allocated
    from ramimo.codebook import RVQ_MAX_ENTRIES

    def no_draws(self):
        raise AssertionError("rvq_codebook drew from a generator")

    monkeypatch.setattr(SeedSpec, "generator", no_draws)
    for n_t, B in ((4, 40), (1, 25), (4, 23), (2, 10**9)):
        with pytest.raises(ValueError, match="cap of rvq_codebook"):
            rvq_codebook(n_t, B, SeedSpec(1))
    assert 4 << 22 == RVQ_MAX_ENTRIES
    with pytest.raises(AssertionError, match="drew"):  # at the cap it draws
        rvq_codebook(4, 22, SeedSpec(1))


def test_frame_constant_onb():
    assert frame_constant(canonical_onb(3)) == pytest.approx(1.0, abs=1e-12)
    assert frame_constant(dft_codebook(4)) == pytest.approx(1.0, abs=1e-9)


def test_frame_constant_union_of_two_onbs():
    cb = concat_codebooks(canonical_onb(2), dft_codebook(2))
    assert frame_constant(cb) == pytest.approx(2.0, abs=1e-12)


def test_frame_constant_rejects_non_tight():
    vecs = np.array([[1, 0], [1, 0], [0, 1]], dtype=complex)
    with pytest.raises(NotTightFrameError) as err:
        frame_constant(Codebook(vecs))
    # sum w w^H = diag(2, 1); best A = 3/2, deviation 1/2
    assert err.value.max_deviation == pytest.approx(0.5, abs=1e-12)


def test_tightness_invariant_under_unitary_rotation():
    cb = concat_codebooks(canonical_onb(2), dft_codebook(2))
    Q = random_unitary(2, SeedSpec(3).derive("rot")).vectors
    rotated = Codebook(cb.vectors @ Q.conj().T)
    assert frame_constant(rotated) == pytest.approx(2.0, abs=1e-10)


def test_save_load_round_trip(tmp_path):
    cb = rvq_codebook(3, 3, SeedSpec(17))
    path = tmp_path / "cb.txt"
    save_codebook(cb, path)
    loaded = load_codebook(path)
    assert loaded == cb  # bit-exact per Codebook.__eq__


def test_save_format_record_count(tmp_path):
    path = tmp_path / "onb.txt"
    save_codebook(canonical_onb(2), path)
    lines = [l for l in path.read_text().splitlines() if l.strip()]
    assert lines[0] == "dim=2 size=2"
    assert len(lines) == 3
    assert all(len(l.split()) == 2 for l in lines[1:])


def test_load_rejects_non_unit_vector(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("dim=2 size=1\n0.9+0.0j 0.0+0.0j\n")
    with pytest.raises(ValueError, match="norm"):
        load_codebook(path)


def test_load_reports_line_and_field(tmp_path):
    path = tmp_path / "broken.txt"
    path.write_text("dim=2 size=1\n1.0+0.0j oops\n")
    with pytest.raises(ValueError, match="field 2"):
        load_codebook(path)


def test_load_respects_comments(tmp_path):
    path = tmp_path / "c.txt"
    path.write_text("# a comment\ndim=2 size=1\n# another\n1.0+0.0j 0.0+0.0j\n")
    cb = load_codebook(path)
    assert cb.size == 1


def test_load_size_mismatch(tmp_path):
    path = tmp_path / "m.txt"
    path.write_text("dim=2 size=2\n1.0+0.0j 0.0+0.0j\n")
    with pytest.raises(ValueError, match="size=2"):
        load_codebook(path)


def test_codebook_rejects_non_unit():
    with pytest.raises(ValueError):
        Codebook(np.array([[0.5, 0.0]], dtype=complex))


def test_matrix_text_round_trip(tmp_path):
    # a unit-norm matrix with full-precision entries survives the text format bit for bit
    rng = np.random.default_rng(8)
    mat = rng.standard_normal((2, 3)) + 1j * rng.standard_normal((2, 3))
    cb = Codebook(mat / np.linalg.norm(mat, axis=1, keepdims=True))
    path = tmp_path / "mat.txt"
    save_codebook(cb, path)
    back = load_codebook(path)
    assert back.vectors.tobytes() == cb.vectors.tobytes()
