"""Hot inner loops, jitted with numba when available.

Every kernel has a vectorized pure-numpy twin. Set CONFLENS_PURE_NUMPY=1
(or install without numba) to force the numpy path; `BACKEND` reports which
one is active. benchmarks/bench_kernels.py times the two side by side.
"""

from __future__ import annotations

import os

import numpy as np


def _env_flag(name: str) -> bool:
    return os.environ.get(name, "").strip().lower() in {"1", "true", "yes", "on"}


PURE_NUMPY = _env_flag("CONFLENS_PURE_NUMPY")

try:
    from numba import njit

    HAVE_NUMBA = True
except ImportError:  # pragma: no cover - exercised via CONFLENS_PURE_NUMPY
    njit = None
    HAVE_NUMBA = False

USE_NUMBA = HAVE_NUMBA and not PURE_NUMPY
BACKEND = "numba" if USE_NUMBA else "numpy"


# ---------------------------------------------------------------------------
# border detection + Chebyshev dilation
# ---------------------------------------------------------------------------

def border_excluded_numpy(labels: np.ndarray, radius: int) -> np.ndarray:
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


def _border_excluded_loop(labels, radius):
    h, w = labels.shape
    border = np.zeros((h, w), dtype=np.bool_)
    for i in range(h):
        for j in range(w):
            v = labels[i, j]
            hit = False
            for ii in range(max(i - 1, 0), min(i + 1, h - 1) + 1):
                for jj in range(max(j - 1, 0), min(j + 1, w - 1) + 1):
                    if labels[ii, jj] != v:
                        hit = True
                        break
                if hit:
                    break
            border[i, j] = hit
    if radius == 0:
        return border
    rows = np.zeros((h, w), dtype=np.bool_)
    for i in range(h):
        for j in range(w):
            for ii in range(max(i - radius, 0), min(i + radius, h - 1) + 1):
                if border[ii, j]:
                    rows[i, j] = True
                    break
    full = np.zeros((h, w), dtype=np.bool_)
    for i in range(h):
        for j in range(w):
            for jj in range(max(j - radius, 0), min(j + radius, w - 1) + 1):
                if rows[i, jj]:
                    full[i, j] = True
                    break
    return full


# ---------------------------------------------------------------------------
# confusion count accumulation
# ---------------------------------------------------------------------------

def pair_counts_numpy(gt, pred, included, n_labels, void_id):
    """counts[c, l] = included pixels with ground truth l (!= void) and
    prediction c."""
    sel = included & (gt != void_id)
    g = gt[sel].astype(np.int64)
    p = pred[sel].astype(np.int64)
    flat = np.bincount(p * n_labels + g, minlength=n_labels * n_labels)
    return flat.reshape(n_labels, n_labels).astype(np.int64)


def _pair_counts_loop(gt, pred, included, n_labels, void_id):
    counts = np.zeros((n_labels, n_labels), dtype=np.int64)
    h, w = gt.shape
    for i in range(h):
        for j in range(w):
            if included[i, j] and gt[i, j] != void_id:
                counts[pred[i, j], gt[i, j]] += 1
    return counts


# ---------------------------------------------------------------------------
# per-pixel refinement transform
# ---------------------------------------------------------------------------

# Pixels per block of a per-pixel pass: a 4096 x 20 float64 block (640 KiB)
# stays in L2, where a whole-map float64 temporary of a 512x512x20 map
# (40 MiB) does not. Shared by every blocked per-pixel pass.
PIXEL_BLOCK = 4096


def apply_refinement_numpy(matrix, probs):
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


def _apply_refinement_loop(matrix, probs):
    h, w, n = probs.shape
    out = np.empty((h, w, n), dtype=np.float32)
    for i in range(h):
        for j in range(w):
            for l in range(n):
                acc = 0.0
                for c in range(n):
                    acc += matrix[l, c] * probs[i, j, c]
                out[i, j, l] = acc
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


def loss_value_numpy(matrix, weights, gt, evidence, eps, scores=None):
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


def loss_grad_numpy(matrix, weights, gt, evidence, eps, scores=None):
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
    loss_grad. The solver calls it once per Newton iteration, so it has no
    jitted twin.
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


def _loss_value_loop(matrix, weights, gt, evidence, eps, scores=None):
    n_labels = weights.shape[0]
    n = gt.shape[0]
    m = np.zeros(n_labels)
    for c in range(n_labels):
        acc = 0.0
        for l in range(n_labels):
            acc += matrix[c, l] * weights[l]
        m[c] = acc
    loss = 0.0
    for i in range(n):
        s = 0.0
        for c in range(n_labels):
            s += evidence[i, c] / m[c]
        if scores is not None:
            scores[i] = s
        refined = weights[gt[i]] * s
        if refined > eps:
            loss -= np.log(refined)
        else:
            loss -= np.log(eps)
    return loss


def _loss_grad_loop(matrix, weights, gt, evidence, eps, scores=None):
    n_labels = weights.shape[0]
    n = gt.shape[0]
    m = np.zeros(n_labels)
    for c in range(n_labels):
        acc = 0.0
        for l in range(n_labels):
            acc += matrix[c, l] * weights[l]
        m[c] = acc
    loss = 0.0
    counts = np.zeros(n_labels)
    v = np.zeros(n_labels)
    for i in range(n):
        g = gt[i]
        if scores is None:
            s = 0.0
            for c in range(n_labels):
                s += evidence[i, c] / m[c]
        else:
            s = scores[i]
        refined = weights[g] * s
        if refined > eps:
            loss -= np.log(refined)
            counts[g] += 1.0
            for c in range(n_labels):
                v[c] += evidence[i, c] / s
        else:
            loss -= np.log(eps)
    grad = np.empty(n_labels)
    for l in range(n_labels):
        direct = counts[l] / weights[l] if weights[l] > 0 else 0.0
        acc = 0.0
        for c in range(n_labels):
            acc += matrix[c, l] * v[c] / (m[c] * m[c])
        grad[l] = -direct + acc
    return loss, grad


# ---------------------------------------------------------------------------
# Voronoi fill for the synthesizer
# ---------------------------------------------------------------------------

def nearest_seed_numpy(height, width, seed_r, seed_c, seed_class):
    """Label each pixel by the class of its nearest seed (squared Euclidean,
    lowest seed index on ties). Row blocks bound the distance matrix size."""
    out = np.empty((height, width), dtype=np.int32)
    cols = np.arange(width, dtype=np.float64)
    dc2 = (cols[:, None] - seed_c[None, :]) ** 2
    block = max(1, int(2**22 // max(width * seed_r.shape[0], 1)))
    for r0 in range(0, height, block):
        r1 = min(r0 + block, height)
        rows = np.arange(r0, r1, dtype=np.float64)
        dr2 = (rows[:, None] - seed_r[None, :]) ** 2
        d2 = dr2[:, None, :] + dc2[None, :, :]
        out[r0:r1] = seed_class[d2.argmin(axis=2)]
    return out


def _nearest_seed_loop(height, width, seed_r, seed_c, seed_class):
    out = np.empty((height, width), dtype=np.int32)
    k = seed_r.shape[0]
    for i in range(height):
        for j in range(width):
            best = np.inf
            arg = 0
            for s in range(k):
                dr = i - seed_r[s]
                dc = j - seed_c[s]
                d2 = dr * dr + dc * dc
                if d2 < best:
                    best = d2
                    arg = s
            out[i, j] = seed_class[arg]
    return out


if USE_NUMBA:
    border_excluded_numba = njit(cache=True)(_border_excluded_loop)
    pair_counts_numba = njit(cache=True)(_pair_counts_loop)
    apply_refinement_numba = njit(cache=True)(_apply_refinement_loop)
    loss_value_numba = njit(cache=True)(_loss_value_loop)
    loss_grad_numba = njit(cache=True)(_loss_grad_loop)
    nearest_seed_numba = njit(cache=True)(_nearest_seed_loop)

    border_excluded = border_excluded_numba
    pair_counts = pair_counts_numba
    apply_refinement = apply_refinement_numba
    loss_value = loss_value_numba
    loss_grad = loss_grad_numba
    nearest_seed = nearest_seed_numba
else:
    border_excluded_numba = None
    pair_counts_numba = None
    apply_refinement_numba = None
    loss_value_numba = None
    loss_grad_numba = None
    nearest_seed_numba = None

    border_excluded = border_excluded_numpy
    pair_counts = pair_counts_numpy
    apply_refinement = apply_refinement_numpy
    loss_value = loss_value_numpy
    loss_grad = loss_grad_numpy
    nearest_seed = nearest_seed_numpy


def warmup():
    """Trigger JIT compilation of every kernel on tiny inputs."""
    labels = np.zeros((3, 3), dtype=np.int32)
    labels[1, 1] = 1
    border_excluded(labels, 1)
    pair_counts(labels, labels, np.ones((3, 3), dtype=bool), 2, -1)
    matrix = np.eye(2)
    apply_refinement(matrix, np.full((2, 2, 2), 0.5, dtype=np.float32))
    gt = np.zeros(4, dtype=np.int64)
    evidence = sample_evidence(matrix, gt, np.full((4, 2), 0.5))
    weights = np.full(2, 0.5)
    scores = np.empty(4)
    loss_value(matrix, weights, gt, evidence, 1e-10)
    loss_value(matrix, weights, gt, evidence, 1e-10, scores)
    loss_grad(matrix, weights, gt, evidence, 1e-10)
    loss_grad(matrix, weights, gt, evidence, 1e-10, scores)
    nearest_seed(2, 2, np.array([0.5]), np.array([0.5]), np.array([0], dtype=np.int32))
