"""Construction, validation, and persistence of beamforming codebooks.

A codebook is an ordered list of unit-norm vectors in C^{n_t}.  The same
type serves as transmit codebook (beams the base station may assign) and
feedback codebook (quantization directions users report against).

File format (UTF-8 text):
    # optional comment lines
    dim=<n_t> size=<N>
    <re><+/-><im>j <re><+/-><im>j ...      one codeword per line

Entries use Python float repr, so save -> load round-trips bit-exactly.
"""

from dataclasses import dataclass

import numpy as np

from .numerics import sample_complex_gaussian_matrix

UNIT_NORM_TOL = 1e-10
FRAME_TOL = 1e-9
# complex entries (2^B * n_t) of the largest random codebook `rvq_codebook`
# draws, 256 MiB: a larger one is refused before anything is allocated
RVQ_MAX_ENTRIES = 1 << 24


class NotTightFrameError(ValueError):
    """Raised when a codebook fails the tight-frame test.

    Carries the maximum entrywise deviation of sum_w w w^H from A*I.
    """

    def __init__(self, max_deviation):
        self.max_deviation = float(max_deviation)
        super().__init__(f"codebook is not a tight frame (max deviation {max_deviation:.3e})")


@dataclass(frozen=True)
class Codebook:
    vectors: np.ndarray  # (size, dim) complex, rows unit norm

    def __post_init__(self):
        v = np.ascontiguousarray(np.asarray(self.vectors, dtype=complex))
        if v.ndim != 2 or v.shape[0] < 1 or v.shape[1] < 1:
            raise ValueError(f"codebook must be a (size, dim) array, got shape {v.shape}")
        if not np.all(np.isfinite(v)):
            raise ValueError("codebook entries must be finite")
        norms = np.linalg.norm(v, axis=1)
        bad = np.where(np.abs(norms - 1.0) > UNIT_NORM_TOL)[0]
        if bad.size:
            raise ValueError(
                f"codeword {bad[0]} has norm {norms[bad[0]]:.12g}, expected 1 within {UNIT_NORM_TOL}"
            )
        v.setflags(write=False)
        object.__setattr__(self, "vectors", v)

    @property
    def size(self):
        return self.vectors.shape[0]

    @property
    def dim(self):
        return self.vectors.shape[1]

    def __len__(self):
        return self.size

    def __getitem__(self, i):
        return self.vectors[i]

    def __eq__(self, other):
        if not isinstance(other, Codebook):
            return NotImplemented
        return self.vectors.shape == other.vectors.shape and bool(
            np.array_equal(self.vectors, other.vectors)
        )

    def __hash__(self):
        return hash((self.vectors.shape, self.vectors.tobytes()))


def canonical_onb(n_t):
    """Standard basis {e_1, ..., e_{n_t}}."""
    if n_t < 1:
        raise ValueError("n_t must be >= 1")
    return Codebook(np.eye(n_t, dtype=complex))


def dft_codebook(n_t):
    """Columns of the unitary DFT matrix, w_k[j] = exp(2*pi*i*j*k/n_t)/sqrt(n_t)."""
    if n_t < 1:
        raise ValueError("n_t must be >= 1")
    j, k = np.meshgrid(np.arange(n_t), np.arange(n_t), indexing="ij")
    mat = np.exp(2j * np.pi * j * k / n_t) / np.sqrt(n_t)
    vecs = mat.T.copy()  # row k = k-th DFT vector
    return Codebook(vecs)


def random_unitary(n_t, seed):
    """Haar-random orthonormal basis of C^{n_t} (rows of the codebook)."""
    g = sample_complex_gaussian_matrix(n_t, n_t, seed)
    q, r = np.linalg.qr(g)
    # Fix phases so the distribution is Haar and the result deterministic.
    d = np.diagonal(r)
    q = q * (d / np.abs(d))
    return Codebook(q.T.copy())


def rvq_codebook(n_t, B, seed):
    """2^B directions drawn uniformly on the complex unit sphere.

    Vectors are drawn sequentially from one stream, so for a fixed seed the
    codebooks are nested: rvq(B) is the prefix of rvq(B + 1).
    """
    if B < 0:
        raise ValueError("B must be >= 0")
    if B >= RVQ_MAX_ENTRIES.bit_length() or n_t << B > RVQ_MAX_ENTRIES:
        raise ValueError(f"a 2^{B} x {n_t} codebook exceeds the {RVQ_MAX_ENTRIES}-entry cap of rvq_codebook")
    n = 2**B
    # one flat stream, real/imag interleaved per vector, so a longer codebook
    # from the same seed extends a shorter one instead of reshuffling it
    rng = seed.generator()
    flat = rng.standard_normal(2 * n * n_t).reshape(n, 2, n_t)
    g = (flat[:, 0, :] + 1j * flat[:, 1, :]) / np.sqrt(2.0)
    norms = np.linalg.norm(g, axis=1, keepdims=True)
    norms[norms == 0] = 1.0
    return Codebook(g / norms)


def concat_codebooks(a, b):
    """Codebook containing a's vectors followed by b's (duplicates allowed)."""
    if a.dim != b.dim:
        raise ValueError(f"dimension mismatch: {a.dim} vs {b.dim}")
    return Codebook(np.vstack([a.vectors, b.vectors]))


def frame_constant(cb, tol=FRAME_TOL):
    """Frame constant A with sum_w |<w, f>|^2 = A ||f||^2 for all f.

    Checked through the Gram operator: the identity holds for every f
    iff sum_w w w^H = A * I with A = size/dim.  Raises NotTightFrameError
    (carrying the max deviation) if the codebook is not tight within tol.
    """
    v = cb.vectors
    gram = v.T @ v.conj()  # sum over codewords of w w^H
    a = cb.size / cb.dim
    dev = float(np.max(np.abs(gram - a * np.eye(cb.dim))))
    if dev > tol:
        raise NotTightFrameError(dev)
    return float(a)


def _format_complex(z):
    re = repr(float(z.real))
    im = float(z.imag)
    sign = "+" if (im >= 0 or np.isnan(im)) else "-"
    return f"{re}{sign}{repr(abs(im))}j"


def _parse_records(path):
    header = None
    rows = []
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if header is None:
                fields = dict()
                for tok in line.split():
                    if "=" not in tok:
                        raise ValueError(f"{path}:{lineno}: malformed header field {tok!r}")
                    key, val = tok.split("=", 1)
                    try:
                        fields[key] = int(val)
                    except ValueError as exc:
                        raise ValueError(f"{path}:{lineno}: header field {key}={val!r} is not an integer") from exc
                if "dim" not in fields or "size" not in fields:
                    raise ValueError(f"{path}:{lineno}: header must declare dim=<n> size=<N>")
                header = fields
                continue
            entries = []
            for col, tok in enumerate(line.split(), start=1):
                try:
                    entries.append(complex(tok))
                except ValueError as exc:
                    raise ValueError(f"{path}:{lineno}: field {col}: cannot parse complex value {tok!r}") from exc
            if len(entries) != header["dim"]:
                raise ValueError(
                    f"{path}:{lineno}: expected {header['dim']} entries, got {len(entries)}"
                )
            rows.append(entries)
    if header is None:
        raise ValueError(f"{path}: missing header line")
    if len(rows) != header["size"]:
        raise ValueError(f"{path}: header declares size={header['size']} but found {len(rows)} records")
    arr = np.array(rows, dtype=complex)
    norms = np.linalg.norm(arr, axis=1)
    bad = np.where(np.abs(norms - 1.0) > UNIT_NORM_TOL)[0]
    if bad.size:
        raise ValueError(f"{path}: record {bad[0] + 1} has norm {norms[bad[0]]:.12g}, not unit within {UNIT_NORM_TOL}")
    return arr


def load_codebook(path):
    return Codebook(_parse_records(path))


def save_codebook(cb, path):
    """Write a codebook in the textual format described in the module docstring."""
    lines = [f"dim={cb.vectors.shape[1]} size={cb.vectors.shape[0]}"]
    for row in cb.vectors:
        lines.append(" ".join(_format_complex(z) for z in row))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
