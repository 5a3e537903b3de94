"""Reference-shifted robust risk minimization and two-tower contrastive
training, small enough to verify every gradient and solver against an
independent oracle."""

from .baselines import (
    SelectionOutcome,
    distillation_grad_s,
    infonce_grad_s,
    jest_select,
)
from .contrastive import global_objective, loss_variance, recall_at_1
from .data import (
    EmbeddingCache,
    PairedDataset,
    build_reference_cache,
    generate_synthetic,
    load_cache,
    load_dataset,
    save_cache,
    save_dataset,
)
from .encoder import (
    TwoTowerModel,
    init_model,
    load_model,
    save_model,
)
from .experiments import (
    ScalingPoint,
    best_error_per_compute,
    data_efficiency_sweep,
    fit_scaling_law,
)
from .report import ExperimentReport
from .risk import (
    chi2_dro_risk,
    cvar_topk,
    drrho_shift,
    kl_constrained_risk,
    kl_regularized_risk,
    softmax_weights,
)
from .trainer import (
    TrainConfig,
    TrainerState,
    gradient_estimator,
    init_trainer_state,
    optimizer_step,
    tau_gradient,
    train,
    update_u,
)

__version__ = "0.1.0"
