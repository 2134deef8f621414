"""Randomized low-rank approximation: Nystrom for PSD operators and its
widened variant for indefinite ones.

All sketches draw from the pinned generator, so a fixed (operator, rank,
seed) triple reproduces bitwise.  The operator's ``apply`` gets the whole
(n, width) Gaussian test matrix in one call, so it must take a block as well
as a vector.  Operator application counts are exact and part of the
contract, one per column: ``nystrom`` applies the operator r + oversample
times, ``nystrom_indefinite`` ceil(width_factor * r) times.
"""

import math
import warnings
from dataclasses import dataclass

import numpy as np

from . import rng
from .bregman import LowRank, compress
from .dense_kernels import sym_eig
from .eigsolve import LinearOperator
from .errors import RankCollapse


@dataclass
class SketchParams:
    """oversample widens the PSD sketch additively; width_factor the
    indefinite sketch multiplicatively."""

    oversample: int = 60
    width_factor: float = 1.5
    seed: int = 0


def _nystrom_core(op: LinearOperator, r: int, width: int, seed: int) -> LowRank:
    """Both sketches at rank r and the given width; rank 0 needs no sketch."""
    if r < 0:
        raise ValueError("rank must be nonnegative")
    n = op.dimension
    if r == 0:
        return LowRank.empty(n)
    omega = rng.normal_matrix(seed, n, width)  # the Gaussian test matrix
    sample = op.apply(omega)  # one block: exactly `width` applications
    core = omega.T @ sample
    del omega  # from here on the sketch holds its image, then the image and half
    # the operator's roundoff makes the core asymmetric by more than sym_eig's
    # check allows on ill-conditioned problems (1.1e-12 relative on a 100x100
    # Laplacian with 1e-6 anisotropy), so average it here
    core_eig = sym_eig((core + core.T) / 2.0)

    # truncate the core by magnitude before pseudo-inverting
    by_magnitude = np.argsort(-np.abs(core_eig.values), kind="stable")[:r]
    vals = core_eig.values[by_magnitude]
    vecs = core_eig.vectors[:, by_magnitude]
    scale = np.abs(core_eig.values).max() if len(core_eig.values) else 0.0
    threshold = n * np.finfo(np.float64).eps * scale
    usable = np.abs(vals) > threshold
    if int(usable.sum()) < r:
        warnings.warn(
            f"sketch core supports rank {int(usable.sum())} of the requested {r}",
            RankCollapse,
            stacklevel=3,
        )
    vals = vals[usable]
    vecs = vecs[:, usable]
    if vals.size == 0:
        return LowRank.empty(n)

    # with half = sample * vecs * diag(|vals|^{-1/2}), the Nystrom
    # reconstruction is half * diag(sign(vals)) * half^T; compress it to eigen form
    half = sample @ (vecs / np.sqrt(np.abs(vals)))
    del sample  # compress needs half alone
    return compress(half, np.sign(vals))


def nystrom(op: LinearOperator, r: int, params: SketchParams | None = None) -> LowRank:
    """Nystrom approximation of a PSD operator, in eigenvalue form.

    Sketch width is r + oversample and the operator is applied exactly that
    many times.  If the core supports fewer than r directions the result has
    the achievable rank and a RankCollapse warning is issued.
    """
    params = params or SketchParams()
    return _nystrom_core(op, r, r + params.oversample, params.seed)


def nystrom_indefinite(op: LinearOperator, r: int, params: SketchParams | None = None) -> LowRank:
    """Nystrom for symmetric indefinite operators.

    Uses a multiplicatively widened sketch of ceil(width_factor * r) columns
    and truncates the core by magnitude, which preserves the sign of each
    kept direction.
    """
    params = params or SketchParams()
    return _nystrom_core(op, r, math.ceil(params.width_factor * r), params.seed)
