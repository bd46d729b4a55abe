"""Codebook construction, tight-frame checking, and file persistence.

Run:  python demos/codebooks_and_frames.py
"""

import os
import tempfile

import numpy as np

from ramimo import (
    NotTightFrameError,
    SeedSpec,
    canonical_onb,
    concat_codebooks,
    dft_codebook,
    frame_constant,
    load_codebook,
    random_unitary,
    rvq_codebook,
    save_codebook,
)
from ramimo.codebook import Codebook


def describe(name, cb):
    try:
        a = frame_constant(cb)
        frame = f"tight frame, A = {a:g}" + (" (unitary)" if abs(a - 1) < 1e-9 else "")
    except NotTightFrameError as exc:
        frame = f"not tight (deviation {exc.max_deviation:.2e})"
    print(f"{name:>28}: {cb.size:>3} vectors in C^{cb.dim}, {frame}")


def main():
    onb = canonical_onb(4)
    dft = dft_codebook(4)
    haar = random_unitary(4, SeedSpec(1).derive("demo"))
    union = concat_codebooks(onb, dft)
    rvq = rvq_codebook(4, 4, SeedSpec(1).derive("rvq"))

    describe("canonical basis", onb)
    describe("DFT basis", dft)
    describe("Haar-random basis", haar)
    describe("union of two bases", union)
    describe("16-point random directions", rvq)

    # random directions are isotropic: mean squared alignment is 1/n_t
    g = np.abs(rvq.vectors @ rvq.vectors.conj().T) ** 2
    off = g[~np.eye(len(rvq), dtype=bool)]
    print(f"\nmean pairwise |<v_i, v_j>|^2 of random directions: {off.mean():.4f} "
          f"(isotropic value {1 / rvq.dim:.4f})")

    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "rvq.txt")
        save_codebook(rvq, path)
        back = load_codebook(path)
    print(f"save -> load round trip bit-exact: {back == rvq}")

    # duplicates are allowed (unions may repeat codewords)
    dup = Codebook(np.vstack([onb.vectors, onb.vectors[:1]]))
    describe("basis plus duplicate", dup)


if __name__ == "__main__":
    main()
