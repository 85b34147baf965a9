"""The numpy kernels behind the pipeline's array passes: border
exclusion, confusion pair counting, the per-pixel refinement transform, the
prior solver's loss, gradient and Hessian, and the synthesizer's Voronoi
fill, an exact nearest-seed search pruned tile by tile.
benchmarks/bench_kernels.py times them at segmentation scale; tests check
each against a plain-Python loop oracle.
"""

from __future__ import annotations

import numpy as np

# Read by perfbench/harness.py, which records it in every result.
BACKEND = "numpy"


# ---------------------------------------------------------------------------
# border detection + Chebyshev dilation
# ---------------------------------------------------------------------------

def border_excluded(labels: np.ndarray, radius: int) -> np.ndarray:
    """Bool mask of pixels within Chebyshev distance `radius` of a border
    pixel. A border pixel has an 8-connected neighbor with a different label.
    """
    h, w = labels.shape
    padded = np.pad(labels, 1, mode="edge")
    border = np.zeros((h, w), dtype=bool)
    for di in (-1, 0, 1):
        for dj in (-1, 0, 1):
            if di == 0 and dj == 0:
                continue
            border |= labels != padded[1 + di:1 + di + h, 1 + dj:1 + dj + w]
    if radius == 0:
        return border
    out = border.copy()
    for d in range(1, radius + 1):
        out[d:, :] |= border[:-d, :]
        out[:-d, :] |= border[d:, :]
    full = out.copy()
    for d in range(1, radius + 1):
        full[:, d:] |= out[:, :-d]
        full[:, :-d] |= out[:, d:]
    return full


# ---------------------------------------------------------------------------
# confusion count accumulation
# ---------------------------------------------------------------------------

def pair_counts(gt, pred, included, n_labels, void_id):
    """counts[c, l] = included pixels with ground truth l (!= void) and
    prediction c."""
    sel = included & (gt != void_id)
    g = gt[sel].astype(np.int64)
    p = pred[sel].astype(np.int64)
    flat = np.bincount(p * n_labels + g, minlength=n_labels * n_labels)
    return flat.reshape(n_labels, n_labels).astype(np.int64)


# ---------------------------------------------------------------------------
# per-pixel refinement transform
# ---------------------------------------------------------------------------

# Pixels per block of a per-pixel pass: a 4096 x 20 float64 block (640 KiB)
# stays in L2, where a whole-map float64 temporary of a 512x512x20 map
# (40 MiB) does not. Shared by every blocked per-pixel pass.
PIXEL_BLOCK = 4096


def apply_refinement(matrix, probs):
    """Per-pixel linear transform: out[i, j] = matrix @ probs[i, j].

    probs is HxWxL float32; computation runs in float64, PIXEL_BLOCK pixels
    at a time, and the result is cast back to float32.
    """
    h, w, n = probs.shape
    flat = probs.reshape(-1, n)
    out = np.empty((h, w, n), dtype=np.float32)
    flat_out = out.reshape(-1, n)
    transform = matrix.T
    for start in range(0, h * w, PIXEL_BLOCK):
        stop = start + PIXEL_BLOCK
        flat_out[start:stop] = flat[start:stop].astype(np.float64) @ transform
    return out


# ---------------------------------------------------------------------------
# refinement log-loss and its prior gradient
# ---------------------------------------------------------------------------

def sample_evidence(matrix, gt, probs):
    """Per-sample evidence A[i, c] = probs[i, c] * matrix[c, gt[i]], the part
    of the loss that does not depend on the prior; build it once per solve.

    Returns an (N, L) view of a label-major (L, N) contiguous array, which
    makes the loss kernels' matrix-vector products up to about twice as
    fast as on an (N, L) contiguous array.
    """
    return np.multiply(matrix[:, gt], probs.T, order="C").T


# The loss kernels take one image, or images stacked on leading axes:
# weights (..., L), gt (..., N) and evidence (..., N, L), a view of
# label-major (..., L, N) evidence like sample_evidence's, where gt's and
# evidence's leading axes broadcast against weights'. So (B, L) weights take
# one prior per image, and (B, K, L) weights with (B, 1, N) gt and
# (B, 1, N, L) evidence try K priors on each image. Images with fewer samples
# are padded with zero evidence, and eps is then an array of clamp floors,
# broadcast like gt, that is 1 at the padding: a padded sample adds
# -log(1) = 0 to its image's loss and, never above its floor, nothing to the
# gradient or Hessian.

def _scores(matrix, weights, evidence, out=None):
    """s = evidence @ (1 / m) per image, with m = matrix @ weights; returns
    (m, s)."""
    m = weights @ matrix.T
    if weights.ndim == 1:
        return m, np.dot(evidence, 1.0 / m, out=out)
    s = np.matmul(evidence, (1.0 / m)[..., None], out=None if out is None else out[..., None])
    return m, s[..., 0]


def _flat_labels(gt, weights):
    """gt as indices into the flattened weights: label l of the prior at
    flat position p is p * L + l."""
    if weights.ndim == 1:
        return gt
    n_labels = weights.shape[-1]
    return gt + n_labels * np.arange(weights.size // n_labels).reshape(weights.shape[:-1] + (1,))


def loss_value(matrix, weights, gt, evidence, eps, scores=None):
    """Negative log-loss of refined ground-truth probabilities.

    matrix[c, l] = P(C=c | l), weights = prior, gt = sample labels (N,),
    evidence = sample_evidence(matrix, gt, probs) (N, L). With the output
    marginal m = matrix @ weights, sample i's refined ground-truth
    probability is weights[gt_i] * s_i, where s = evidence @ (1 / m). Terms
    below eps are clamped. A float64 (N,) `scores` buffer, when given,
    receives s. Stacked images give an array of losses, one per prior.
    """
    _, s = _scores(matrix, weights, evidence, scores)
    refined = weights.take(_flat_labels(gt, weights)) * s
    loss = -np.log(np.maximum(refined, eps)).sum(axis=-1)
    return float(loss) if loss.ndim == 0 else loss


def loss_grad(matrix, weights, gt, evidence, eps, scores=None):
    """Loss together with d(loss)/d(weights), including the dependence of
    the output marginal on the prior. Clamped samples contribute zero
    gradient. `scores`, when given, holds s for these weights as filled in
    by loss_value, and is not recomputed."""
    m, s = _scores(matrix, weights, evidence) if scores is None else (weights @ matrix.T, scores)
    labels = _flat_labels(gt, weights)
    refined = weights.take(labels) * s
    loss = -np.log(np.maximum(refined, eps)).sum(axis=-1)
    live = refined > eps
    counts = np.bincount(labels[live], minlength=weights.size).reshape(weights.shape)
    direct = counts / np.maximum(weights, 1e-300)
    inv_s = np.divide(1.0, s, out=np.zeros_like(s), where=live)
    v = np.matmul(inv_s[..., None, :], evidence)[..., 0, :] / (m * m)
    grad = -direct + v @ matrix
    return (float(loss) if loss.ndim == 0 else loss), grad


# Elements of the scaled evidence A^T / s that loss_hessian forms at a
# time, in blocks of whole images: 256 KiB of float64, so a group of stacked
# images needs no temporary the size of its evidence.
HESSIAN_BLOCK = 1 << 15


def loss_hessian(matrix, weights, gt, evidence, eps, scores=None):
    """Second derivative of the loss in the prior, an (L, L) matrix over the
    live (unclamped) samples:

        H = diag(n / w^2) + Q^T Q - 2 M^T diag(v / m) M,

    where n counts live samples per label (the diagonal term is 0 where
    w = 0), Q[i, l] = sum_c A[i, c] M[c, l] / (s_i m_c^2) and v is the
    vector loss_grad builds. With P = M^T / m^2 and B = A^T / s (live
    samples only), Q^T = P @ B, so Q^T Q = P (B B^T) P^T: one O(N * L^2)
    product on the label-major evidence, the rest is L x L. `scores` as in
    loss_grad. The solver calls it once per Newton iteration, and (B, L)
    weights on B stacked images give a (B, L, L) stack.
    """
    single = weights.ndim == 1
    if single:  # a stack of one
        weights, gt, evidence = weights[None], gt[None], evidence[None]
        scores = None if scores is None else scores[None]
    n_labels = weights.shape[-1]
    m, s = _scores(matrix, weights, evidence) if scores is None else (weights @ matrix.T, scores)
    labels = _flat_labels(gt, weights)
    live = weights.take(labels) * s > eps
    counts = np.bincount(labels[live], minlength=weights.size).reshape(weights.shape)
    direct = np.divide(counts, weights * weights, out=np.zeros(weights.shape), where=weights > 0)
    inv_s = np.divide(1.0, s, out=np.zeros_like(s), where=live)
    inv_m2 = 1.0 / (m * m)
    p = matrix.T * inv_m2[:, None, :]
    v = np.matmul(inv_s[:, None, :], evidence)[:, 0, :] * inv_m2
    gram = np.empty(weights.shape + (n_labels,))
    block = max(1, HESSIAN_BLOCK // evidence[0].size)
    for start in range(0, weights.shape[0], block):
        images = slice(start, start + block)
        scaled = np.swapaxes(evidence[images], 1, 2) * inv_s[images, None, :]
        np.matmul(scaled, np.swapaxes(scaled, 1, 2), out=gram[images])
    hess = p @ gram @ np.swapaxes(p, 1, 2) - 2.0 * ((matrix.T * (v / m)[:, None, :]) @ matrix)
    hess.reshape(len(hess), -1)[:, ::n_labels + 1] += direct
    return hess[0] if single else hess


# ---------------------------------------------------------------------------
# Voronoi fill for the synthesizer
# ---------------------------------------------------------------------------

# Elements of a float64 pixel x seed distance block: at 2 MiB the block and
# its argmin pass stay in cache.
SEED_BLOCK = 1 << 18

# Edge in pixels of a nearest_seed tile. Tiles of 16 and 64 were slower at
# 512x512 with 114 seeds.
SEED_TILE = 32


def nearest_seed(height, width, seed_r, seed_c, seed_class):
    """Label each pixel by the class of its nearest seed (squared Euclidean,
    lowest seed index on ties).

    The map goes in SEED_TILE x SEED_TILE tiles, each searched over the
    seeds that can win in it. Over a tile, a seed's computed distance
    dr2 + dc2 is at least the sum of its smallest row and column terms and
    at most the sum of its largest: the bounds add the same float64 terms,
    and rounding is monotone. The seed with the smallest upper bound is
    within that bound at every pixel, so a seed whose lower bound exceeds it
    is strictly farther everywhere and never even ties. argmin over the
    other seeds, in ascending index order, gives the labels of the whole
    matrix bit for bit. A tile's rows are split to keep its block within
    SEED_BLOCK elements (or one tile row, if that is larger). Seed
    coordinates must be finite.
    """
    out = np.empty((height, width), dtype=np.int32)
    rows = np.arange(height, dtype=np.float64)
    cols = np.arange(width, dtype=np.float64)
    dc2 = (cols[:, None] - seed_c[None, :]) ** 2
    col_starts = np.arange(0, width, SEED_TILE)
    col_lo = np.minimum.reduceat(dc2, col_starts, axis=0)
    col_hi = np.maximum.reduceat(dc2, col_starts, axis=0)
    for r0 in range(0, height, SEED_TILE):
        dr2 = (rows[r0:r0 + SEED_TILE, None] - seed_r[None, :]) ** 2
        lower = dr2.min(axis=0) + col_lo
        upper = (dr2.max(axis=0) + col_hi).min(axis=1)
        keep = lower <= upper[:, None]
        for t, c0 in enumerate(col_starts):
            idx = np.flatnonzero(keep[t])
            tile_dc2 = dc2[c0:c0 + SEED_TILE, idx]
            step = max(1, SEED_BLOCK // (tile_dc2.shape[0] * idx.size))
            for i0 in range(0, dr2.shape[0], step):
                i1 = min(i0 + step, dr2.shape[0])
                d2 = dr2[i0:i1, idx][:, None, :] + tile_dc2[None, :, :]
                out[r0 + i0:r0 + i1, c0:c0 + SEED_TILE] = seed_class[idx[d2.argmin(axis=2)]]
    return out
