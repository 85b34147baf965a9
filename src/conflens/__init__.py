"""conflens: confusion-aware Bayesian refinement of per-pixel label
probabilities."""

from .confusion import (
    ConfusionModel,
    CountMatrix,
    PixelMask,
    accumulate_counts,
    border_mask,
    identity_confusion,
    load_confusion,
    merge_counts,
    normalize_confusion,
    save_confusion,
)
from .data import (
    LabelMap,
    LabelSet,
    Manifest,
    ManifestRecord,
    ProbabilityMap,
    load_label_map,
    load_manifest,
    load_probability_map,
    save_label_map,
    save_manifest,
    save_probability_map,
    validate_probability_map,
)
from .errors import ConflensError, DataError, SegtFormatError, UsageError
from .metrics import (
    EvalReport,
    MetricAccumulator,
    mean_iou,
    pixel_accuracy,
    render_matrix_heatmap,
    write_pgm,
)
from .priors import (
    Prior,
    PriorBank,
    SampleSet,
    SolveReport,
    SolverOptions,
    binary_prior,
    global_prior,
    histogram_prior,
    load_prior_bank,
    project_to_simplex,
    refinement_loss,
    refinement_loss_gradient,
    sample_set,
    save_prior_bank,
    solve_unconstrained_prior,
    uniform_prior,
)
from .refine import (
    RefinementMatrix,
    argmax_labels,
    build_refinement_matrix,
    labelbank_mask,
    output_marginal,
    refine_map,
)
from .segt import load_tensor, read_header, store_tensor
from .synth import (
    SynthSpec,
    bayes_optimal_accuracy,
    eval_confusion_matrix,
    generate_dataset,
    reference_spec,
    true_confusion,
)

__version__ = "0.1.0"
