import numpy as np
import pytest

from conflens import (
    LabelSet,
    ProbabilityMap,
    SynthSpec,
    build_refinement_matrix,
    generate_dataset,
    identity_confusion,
    load_manifest,
    refine_map,
)


def mixed_confusion(n: int, diag: float = 0.7) -> np.ndarray:
    """Column-stochastic test matrix with a dominant diagonal and one
    strong off-diagonal confusion per class."""
    T = np.full((n, n), (1.0 - diag) * 0.4 / max(n - 2, 1))
    for l in range(n):
        T[l, l] = diag
        T[(l + 1) % n, l] = (1.0 - diag) * 0.6 + T[(l + 1) % n, l]
    T[:, :] /= T.sum(axis=0, keepdims=True)
    return T


def labelbank(values, present):
    """The labelbank transform of an H x W x L float32 map, or of a stack
    with one present set per map: refine_map by the identity confusion and
    a binary prior over the present classes."""
    n = values.shape[-1]
    sets = present if values.ndim == 4 else [present]
    weights = np.zeros((len(sets), n))
    for row, classes in zip(weights, sets):
        row[list(classes)] = 1.0 / max(len(classes), 1)
    R = build_refinement_matrix(identity_confusion(LabelSet(size=n)),
                                weights if values.ndim == 4 else weights[0])
    return refine_map(R, ProbabilityMap(values)).values


def dense_loss_grad(matrix, weights, gt, probs, eps):
    """The O(N*L^2) loss and gradient that the evidence kernels replaced:
    every call forms (probs / m) @ matrix and reads its ground-truth column.
    Returns (loss, grad, number of clamped samples)."""
    n_labels = weights.shape[0]
    m = matrix @ weights
    s = ((probs / m) @ matrix)[np.arange(gt.shape[0]), gt]
    refined = weights[gt] * s
    loss = float(-np.log(np.maximum(refined, eps)).sum())
    live = refined > eps
    counts = np.bincount(gt[live], minlength=n_labels).astype(np.float64)
    direct = counts / np.maximum(weights, 1e-300)
    col_of_gt = matrix[:, gt].T
    v = (probs[live] * col_of_gt[live] / s[live, None]).sum(axis=0) / (m * m)
    return loss, -direct + matrix.T @ v, int((~live).sum())


@pytest.fixture(scope="session")
def small_spec() -> SynthSpec:
    return SynthSpec(
        n_classes=4,
        height=24,
        width=24,
        n_estimation=8,
        n_evaluation=8,
        region_scale=8.0,
        true_confusion=mixed_confusion(4),
        sharpness=3.0,
        seed=71,
        min_classes_per_image=2,
        max_classes_per_image=3,
    )


@pytest.fixture(scope="session")
def small_dataset(small_spec, tmp_path_factory):
    """A generated dataset shared across tests: (spec, manifest, directory)."""
    out = tmp_path_factory.mktemp("smallset")
    manifest = generate_dataset(small_spec, out)
    return small_spec, manifest, out


@pytest.fixture(scope="session")
def labels4() -> LabelSet:
    return LabelSet(size=4)
