"""The numpy kernels behind the pipeline's array passes: border
exclusion, confusion pair counting, the per-pixel refinement transform, the
prior solver's loss, gradient and Hessian, and the synthesizer's Voronoi
fill, an exact nearest-seed search pruned tile by tile.
benchmarks/bench_kernels.py times them at segmentation scale, along with
the map check every map load runs (data._check_probs); tests check each
against a plain-Python loop oracle.
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
    labels is H x W, or a B x H x W stack of equal-shape maps, each masked on
    its own: only H and W are padded, so no border crosses two maps.
    """
    h, w = labels.shape[-2:]
    padded = np.pad(labels, [(0, 0)] * (labels.ndim - 2) + [(1, 1), (1, 1)], mode="edge")
    border = np.zeros(labels.shape, dtype=bool)
    for di in (-1, 0, 1):
        for dj in (-1, 0, 1):
            if di == 0 and dj == 0:
                continue
            border |= labels != padded[..., 1 + di:1 + di + h, 1 + dj:1 + dj + w]
    if radius == 0:
        return border
    # a shift by max(h, w) or more leaves nothing of the map, so a larger
    # radius would only add empty shifts
    radius = min(radius, max(h, w))
    out = border.copy()
    for d in range(1, radius + 1):
        out[..., d:, :] |= border[..., :-d, :]
        out[..., :-d, :] |= border[..., d:, :]
    full = out.copy()
    for d in range(1, radius + 1):
        full[..., d:] |= out[..., :-d]
        full[..., :-d] |= out[..., d:]
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


def _pixel_blocks(n_images: int, pixels: int):
    """(images, pixels) slice pairs that cover a stack of n_images maps of
    `pixels` pixels each in blocks of about PIXEL_BLOCK pixels: whole maps,
    PIXEL_BLOCK // pixels of them at a time, or PIXEL_BLOCK-pixel runs of
    one map when a map is larger than a block. A map's pixels are cut the
    same way whatever the stack holds, so a per-pixel pass over the blocks
    gives the bits of the same pass over each map alone."""
    if pixels <= PIXEL_BLOCK:
        step = PIXEL_BLOCK // pixels
        return [(slice(i, i + step), slice(None)) for i in range(0, n_images, step)]
    return [(slice(i, i + 1), slice(start, start + PIXEL_BLOCK))
            for i in range(n_images) for start in range(0, pixels, PIXEL_BLOCK)]


def apply_refinement(matrix, probs):
    """Per-pixel linear transform: out[i, j] = matrix @ probs[i, j].

    probs is H x W x L float32 with an L x L matrix, or a B x H x W x L stack
    with one matrix per map, B x L x L. Computation runs in float64 over
    _pixel_blocks, as one batched product per block, and the result is cast
    back to float32.

    A matrix with an all-zero column loses the mass its map puts on that
    output, so that map's pixels are then divided by their sum, and a pixel
    left with no mass becomes uniform over the matrix's nonzero rows. A 0/1
    diagonal matrix thus masks its map to the diagonal's support and
    rescales it. Maps whose matrix has no zero column are only multiplied.
    """
    h, w, n = probs.shape[-3:]
    stack = probs.reshape(-1, h * w, n)
    out = np.empty(probs.shape, dtype=np.float32)
    flat_out = out.reshape(stack.shape)
    matrices = matrix.reshape(-1, n, n)
    transform = np.swapaxes(matrices, 1, 2)
    lossy = ~matrices.any(axis=1).all(axis=1)
    rows = matrices.any(axis=2)
    fallback = rows / rows.sum(axis=1, keepdims=True)
    for images, pixels in _pixel_blocks(len(stack), h * w):
        vals = np.matmul(stack[images, pixels].astype(np.float64), transform[images])
        rescale = lossy[images, None, None]
        if rescale.any():
            sums = vals.sum(axis=-1, keepdims=True)
            degenerate = (sums <= 0.0) & rescale
            # x / 1 is x, so the other maps in the block keep their bits
            vals /= np.where(degenerate | ~rescale, 1.0, sums)
            np.copyto(vals, fallback[images, None, :], where=degenerate)
        flat_out[images, pixels] = vals
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
# one prior per image, and, in loss_value, (B, K, L) weights with (B, 1, N)
# gt and (B, 1, N, L) evidence try K priors on each image. Images with fewer
# samples are padded with zero evidence, and eps is then an array of clamp
# floors, broadcast like gt, that is 1 at the padding: a padded sample adds
# -log(1) = 0 to its image's loss and, never above its floor, nothing to the
# gradient or Hessian. Every product of a prior, or of a per-image vector,
# with a matrix runs per row through _rowwise, so an image's results have
# the bits of the same image passed alone as a stack of one; padding an
# image to another width can still change the last bits of its sums.

def _rowwise(a, b):
    """a @ b for each row of a (..., K), against b (K, J) or a stack of them
    that broadcasts against a's rows, as one product per row: a row's bits do
    not depend on the rows beside it, as they can in one 2-D product."""
    return np.matmul(a[..., None, :], b)[..., 0, :]


def _forward(matrix, weights, gt, evidence):
    """The output marginals m = matrix @ weights, the scores
    s = evidence @ (1 / m), gt as indices into the flattened weights (label
    l of the prior at flat position p is p * L + l), and the refined
    ground-truth probabilities weights[gt] * s in a new (..., N) buffer that
    the caller may overwrite."""
    m = _rowwise(weights, matrix.T)
    s = np.matmul(evidence, (1.0 / m)[..., None])[..., 0]
    n_labels = weights.shape[-1]
    labels = gt + n_labels * np.arange(weights.size // n_labels).reshape(weights.shape[:-1] + (1,))
    refined = weights.take(labels)
    refined *= s
    return m, s, labels, refined


def loss_value(matrix, weights, gt, evidence, eps):
    """Negative log-loss of refined ground-truth probabilities.

    matrix[c, l] = P(C=c | l), weights = prior, gt = sample labels (N,),
    evidence = sample_evidence(matrix, gt, probs) (N, L). With the output
    marginal m = matrix @ weights, sample i's refined ground-truth
    probability is weights[gt_i] * s_i, where s = evidence @ (1 / m). Terms
    below eps are clamped. Stacked images give an array of losses, one per
    prior.
    """
    refined = _forward(matrix, weights, gt, evidence)[3]
    np.maximum(refined, eps, out=refined)
    np.log(refined, out=refined)
    loss = -refined.sum(axis=-1)
    return float(loss) if loss.ndim == 0 else loss


def _gradient(matrix, weights, gt, evidence, eps):
    """loss_grad's gradient at (B, L) stacked weights, and the terms its
    Hessian reuses: the output marginals m, the live samples per label,
    where a sample is live if its refined probability is above eps, 1 / s
    on the live samples, 0 elsewhere, and u = (1 / s) @ evidence. s and the
    flat labels are freed before u is formed, and before the Hessian."""
    m, s, labels, inv_s = _forward(matrix, weights, gt, evidence)  # inv_s then holds 1 / s
    live = inv_s > eps
    counts = np.bincount(labels[live], minlength=weights.size).reshape(weights.shape)
    inv_s.fill(0.0)
    np.divide(1.0, s, out=inv_s, where=live)
    del s, labels, live
    u = _rowwise(inv_s, evidence)
    grad = -(counts / np.maximum(weights, 1e-300)) + _rowwise(u / (m * m), matrix)
    return grad, m, counts, inv_s, u


# Elements of the scaled evidence A^T / s that loss_grad forms at a time,
# in blocks of whole images: 256 KiB of float64, so a group of stacked
# images needs no temporary the size of its evidence.
HESSIAN_BLOCK = 1 << 15


def loss_grad(matrix, weights, gt, evidence, eps):
    """The gradient and Hessian of loss_value's loss in the prior, including
    the dependence of the output marginal on the prior, from one pass over
    the samples: s, the live samples (those of _gradient) and u are
    computed once for both. Clamped samples contribute to neither.

    With n the live samples per label, u = sum over live samples of A_i / s_i
    and M = matrix, the gradient is -n / w + M^T (u / m^2), and the (L, L)
    Hessian is

        H = diag(n / w^2) + Q^T Q - 2 M^T diag(v / m) M,

    where the diagonal term is 0 where w = 0, Q[i, l] = sum_c A[i, c]
    M[c, l] / (s_i m_c^2) and v = u / m^2. With P = M^T / m^2 and B = A^T / s
    (live samples only), Q^T = P @ B, so Q^T Q = P (B B^T) P^T: one
    O(N * L^2) product on the label-major evidence, the rest is L x L.
    weights are (L,), giving an (L,) gradient and an (L, L) Hessian, or
    (B, L) on B stacked images, giving (B, L) and (B, L, L). The solver
    calls it once per Newton iteration.
    """
    single = weights.ndim == 1
    if single:  # a stack of one
        weights, gt, evidence = weights[None], gt[None], evidence[None]
    n_labels = weights.shape[-1]
    grad, m, counts, inv_s, u = _gradient(matrix, weights, gt, evidence, eps)
    direct = np.divide(counts, weights * weights, out=np.zeros(weights.shape), where=weights > 0)
    inv_m2 = 1.0 / (m * m)
    p = matrix.T * inv_m2[:, None, :]
    v = u * inv_m2
    gram = np.empty(weights.shape + (n_labels,))
    block = max(1, HESSIAN_BLOCK // evidence[0].size)
    for start in range(0, weights.shape[0], block):
        images = slice(start, start + block)
        scaled = np.swapaxes(evidence[images], 1, 2) * inv_s[images, None, :]
        np.matmul(scaled, np.swapaxes(scaled, 1, 2), out=gram[images])
    hess = p @ gram @ np.swapaxes(p, 1, 2) - 2.0 * ((matrix.T * (v / m)[:, None, :]) @ matrix)
    hess.reshape(len(hess), -1)[:, ::n_labels + 1] += direct
    return (grad[0], hess[0]) if single else (grad, hess)


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
