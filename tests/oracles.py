"""Plain-Python loop oracles for the numpy kernels in conflens.kernels, and
the whole-map formula of the probability-map sum check.

Each loop computes its kernel one pixel, pair or sample at a time, in the
most direct form of its definition. tests/test_kernels.py compares every
kernel with its loop on small random inputs, and tests/test_data.py compares
validate_probability_map with sum_check_formula.
"""

import numpy as np


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


def sum_check_formula(values, tol):
    """Every site of an H x W x L map whose float64 channel sum deviates
    from 1 by more than tol, or is NaN, as ((row, col), deviation) in
    row-major order, computed over the whole map at once."""
    sums = values.sum(axis=2, dtype=np.float64)
    dev = np.abs(sums - 1.0)
    bad = np.argwhere(~(dev <= tol))
    return [((int(i), int(j)), float(dev[i, j])) for i, j in bad]
