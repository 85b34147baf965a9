"""The numpy kernels behind the pipeline's array passes: border
exclusion, confusion pair counting, the per-pixel refinement transform, the
prior solver's loss, gradient and Hessian, and the synthesizer's Voronoi
fill. benchmarks/bench_kernels.py times them at segmentation scale; tests
check each against a plain-Python loop oracle.
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


def loss_value(matrix, weights, gt, evidence, eps, scores=None):
    """Negative log-loss of refined ground-truth probabilities.

    matrix[c, l] = P(C=c | l), weights = prior, gt = sample labels (N,),
    evidence = sample_evidence(matrix, gt, probs) (N, L). With the output
    marginal m = matrix @ weights, sample i's refined ground-truth
    probability is weights[gt_i] * s_i, where s = evidence @ (1 / m). Terms
    below eps are clamped. A float64 (N,) `scores` buffer, when given,
    receives s.
    """
    s = np.dot(evidence, 1.0 / (matrix @ weights), out=scores)
    refined = weights[gt] * s
    return float(-np.log(np.maximum(refined, eps)).sum())


def loss_grad(matrix, weights, gt, evidence, eps, scores=None):
    """Loss together with d(loss)/d(weights), including the dependence of
    the output marginal on the prior. Clamped samples contribute zero
    gradient. `scores`, when given, holds s for these weights as filled in
    by loss_value, and is not recomputed."""
    n_labels = weights.shape[0]
    m = matrix @ weights
    s = np.dot(evidence, 1.0 / m) if scores is None else scores
    refined = weights[gt] * s
    loss = float(-np.log(np.maximum(refined, eps)).sum())
    live = refined > eps
    counts = np.bincount(gt[live], minlength=n_labels).astype(np.float64)
    direct = counts / np.maximum(weights, 1e-300)
    inv_s = np.divide(1.0, s, out=np.zeros_like(s), where=live)
    v = (inv_s @ evidence) / (m * m)
    grad = -direct + matrix.T @ v
    return loss, grad


def loss_hessian(matrix, weights, gt, evidence, eps, scores=None):
    """Second derivative of the loss in the prior, an (L, L) matrix over the
    live (unclamped) samples:

        H = diag(n / w^2) + Q^T Q - 2 M^T diag(v / m) M,

    where n counts live samples per label (the diagonal term is 0 where
    w = 0), Q[i, l] = sum_c A[i, c] M[c, l] / (s_i m_c^2) and v is the
    vector loss_grad builds. With P = M^T / m^2 and B = A^T / s (live
    samples only), Q^T = P @ B, so Q^T Q = P (B B^T) P^T: one O(N * L^2)
    product on the label-major evidence, the rest is L x L. `scores` as in
    loss_grad. The solver calls it once per Newton iteration.
    """
    n_labels = weights.shape[0]
    m = matrix @ weights
    s = np.dot(evidence, 1.0 / m) if scores is None else scores
    live = weights[gt] * s > eps
    counts = np.bincount(gt[live], minlength=n_labels).astype(np.float64)
    direct = np.divide(counts, weights * weights, out=np.zeros(n_labels), where=weights > 0)
    scaled = evidence.T * np.divide(1.0, s, out=np.zeros_like(s), where=live)
    inv_m2 = 1.0 / (m * m)
    p = matrix.T * inv_m2
    v = scaled.sum(axis=1) * inv_m2
    hess = p @ (scaled @ scaled.T) @ p.T - 2.0 * ((matrix.T * (v / m)) @ matrix)
    hess[np.diag_indices(n_labels)] += direct
    return hess


# ---------------------------------------------------------------------------
# Voronoi fill for the synthesizer
# ---------------------------------------------------------------------------

# Elements of a float64 row block of pixel x seed distances: at 2 MiB the
# block and its argmin pass stay in cache.
SEED_BLOCK = 1 << 18


def nearest_seed(height, width, seed_r, seed_c, seed_class):
    """Label each pixel by the class of its nearest seed (squared Euclidean,
    lowest seed index on ties). Row blocks bound the distance matrix to
    SEED_BLOCK elements (or one row, if that is larger)."""
    out = np.empty((height, width), dtype=np.int32)
    cols = np.arange(width, dtype=np.float64)
    dc2 = (cols[:, None] - seed_c[None, :]) ** 2
    block = max(1, SEED_BLOCK // max(width * seed_r.shape[0], 1))
    for r0 in range(0, height, block):
        r1 = min(r0 + block, height)
        rows = np.arange(r0, r1, dtype=np.float64)
        dr2 = (rows[:, None] - seed_r[None, :]) ** 2
        d2 = dr2[:, None, :] + dc2[None, :, :]
        out[r0:r1] = seed_class[d2.argmin(axis=2)]
    return out
