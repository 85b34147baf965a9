"""Plain-Python loop oracles for the numpy kernels in conflens.kernels, and
the whole-map formula of the probability-map sum check.

Each loop computes its kernel one pixel, pair or sample at a time, in the
most direct form of its definition. tests/test_kernels.py compares every
kernel with its loop on small random inputs, and tests/test_data.py compares
validate_probability_map with sum_check_formula. nearest_seed_formula is the
unpruned distance matrix that the tiled kernels.nearest_seed must reproduce.
solve_prior_sequential solves one image's prior at a time, the oracle of the
lockstep solver in conflens.priors.
"""

import numpy as np

from conflens import kernels, priors


def border_excluded_loop(labels, radius):
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


def pair_counts_loop(gt, pred, included, n_labels, void_id):
    counts = np.zeros((n_labels, n_labels), dtype=np.int64)
    h, w = gt.shape
    for i in range(h):
        for j in range(w):
            if included[i, j] and gt[i, j] != void_id:
                counts[pred[i, j], gt[i, j]] += 1
    return counts


def apply_refinement_loop(matrix, probs):
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


def loss_value_loop(matrix, weights, gt, evidence, eps, scores=None):
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


def loss_grad_loop(matrix, weights, gt, evidence, eps, scores=None):
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


def nearest_seed_loop(height, width, seed_r, seed_c, seed_class):
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


def nearest_seed_formula(height, width, seed_r, seed_c, seed_class):
    """Class of the nearest seed at every pixel from the whole pixel x seed
    matrix of float64 (row - r)**2 + (col - c)**2, lowest index on ties."""
    rows, cols = np.mgrid[0:height, 0:width].astype(np.float64)
    d2 = (rows[..., None] - seed_r) ** 2 + (cols[..., None] - seed_c) ** 2
    return seed_class[d2.argmin(axis=2)].astype(np.int32)


def sum_check_formula(values, tol):
    """Every site of an H x W x L map whose float64 channel sum deviates
    from 1 by more than tol, or is NaN, as ((row, col), deviation) in
    row-major order, computed over the whole map at once."""
    sums = values.sum(axis=2, dtype=np.float64)
    dev = np.abs(sums - 1.0)
    bad = np.argwhere(~(dev <= tol))
    return [((int(i), int(j)), float(dev[i, j])) for i, j in bad]


# ---------------------------------------------------------------------------
# sequential prior solver: one image at a time, on the single-image kernels
# ---------------------------------------------------------------------------

def newton_direction(w, grad, hess):
    """The projected-Newton direction of one image, or None: the
    single-image form of conflens.priors._newton_directions."""
    support = w > priors._ZERO_WEIGHT
    idx = (support | (grad < grad[support].mean())).nonzero()[0]
    if idx.size < 2:
        return None
    basis = priors._sum_zero_basis(idx.size)
    reduced = basis.T @ hess[np.ix_(idx, idx)] @ basis
    if not np.isfinite(reduced).all():
        return None
    lam, vecs = np.linalg.eigh(reduced)
    mag = np.abs(lam)
    top = mag.max()
    if not top > 0:
        return None
    coef = (vecs.T @ (basis.T @ grad[idx])) / np.maximum(mag, 1e-8 * top)
    direction = np.zeros_like(w)
    direction[idx] = -(basis @ (vecs @ coef))
    return direction


def first_decrease(matrix, gt, evidence, opts, w, loss, direction, t, t_min, scores):
    """Backtrack project_to_simplex(w + t * direction), halving t from the
    given value while t >= t_min, to the first strict loss decrease.
    Returns (candidate or None, its loss, the last t tried); `scores` keeps
    the candidate's s for loss_grad."""
    while t >= t_min:
        cand = priors.project_to_simplex(w + t * direction)
        cand_loss = kernels.loss_value(matrix, cand, gt, evidence, opts.epsilon, scores)
        if cand_loss < loss:
            return cand, cand_loss, t
        t *= 0.5
    return None, loss, t


def descend(matrix, gt, evidence, start, opts):
    """Monotone projected Newton descent of one image, the sequential form
    of conflens.priors._descend. Returns (weights, loss, iterations).

    Each iteration backtracks along the Newton direction from t = 1 down to
    1e-6. If that gives no decrease, or there is no Newton direction, it
    takes a projected-gradient step instead, backtracking from a step
    length that halves on each rejection and doubles after each accepted
    gradient step. It stops when no step decreases the loss, when the
    decrease falls below loss_tolerance, or after max_iters iterations.
    """
    w = start
    loss, grad = kernels.loss_grad(matrix, w, gt, evidence, opts.epsilon)
    step = 1.0 / max(gt.shape[0], 1)
    scores = np.empty(gt.shape[0])
    known = None
    iterations = 0
    for _ in range(opts.max_iters):
        iterations += 1
        hess = kernels.loss_hessian(matrix, w, gt, evidence, opts.epsilon, known)
        direction = newton_direction(w, grad, hess)
        cand = None
        if direction is not None:
            cand, cand_loss, _ = first_decrease(matrix, gt, evidence, opts, w, loss, direction,
                                                1.0, priors._NEWTON_MIN_STEP, scores)
        if cand is None:
            cand, cand_loss, step = first_decrease(
                matrix, gt, evidence, opts, w, loss, -grad, step, opts.step_tolerance, scores)
            if cand is None:
                break
            step *= 2.0
        drop = loss - cand_loss
        w = cand
        loss, grad = kernels.loss_grad(matrix, w, gt, evidence, opts.epsilon, scores)
        known = scores
        if drop < opts.loss_tolerance:
            break
    return w, loss, iterations


def solve_prior_sequential(matrix, gt, probs, opts):
    """The unconstrained prior of one image, solved on its own: descend from
    opts.init and, if uniform then scores better, again from uniform.
    Returns (weights, loss, iterations of each descent)."""
    n = matrix.shape[0]
    hist = np.bincount(gt, minlength=n).astype(np.float64)
    hist /= hist.sum()
    uniform = np.full(n, 1.0 / n)
    evidence = kernels.sample_evidence(matrix, gt, probs)
    w, loss, iters = descend(matrix, gt, evidence, uniform if opts.init == "uniform" else hist,
                             opts)
    iterations = (iters,)
    if kernels.loss_value(matrix, uniform, gt, evidence, opts.epsilon) < loss:
        w2, loss2, iters2 = descend(matrix, gt, evidence, uniform, opts)
        iterations += (iters2,)
        if loss2 < loss:
            w, loss = w2, loss2
    return w / w.sum(), loss, iterations
