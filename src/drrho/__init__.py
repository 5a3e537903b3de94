"""Reference-shifted robust risk minimization and two-tower contrastive
training, small enough to verify every gradient and solver against an
independent oracle."""

from .baselines import (
    SelectionOutcome,
    combined_objective,
    distillation_grad_s,
    distillation_loss,
    infonce_grad_s,
    infonce_loss,
    jest_select,
)
from .contrastive import (
    AnchorLossBundle,
    drrho_anchor_loss,
    gcl_anchor_loss,
    global_objective,
    pairwise_loss,
    rho_pairwise_loss,
)
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
    embed,
    embed_batch,
    init_model,
    load_model,
    save_model,
    similarity_batch,
    similarity_grad,
)
from .experiments import (
    ScalingPoint,
    best_error_per_compute,
    data_efficiency_sweep,
    fit_scaling_law,
    loss_variance,
    recall_at_1,
)
from .report import ExperimentReport
from .risk import (
    LossVector,
    RiskSpec,
    chi2_dro_risk,
    cvar_topk,
    drrho_shift,
    evaluate_risk,
    kl_constrained_risk,
    kl_regularized_risk,
    softmax_weights,
)
from .trainer import (
    TrainConfig,
    TrainerState,
    gradient_estimator,
    init_trainer_state,
    load_checkpoint,
    optimizer_step,
    save_checkpoint,
    tau_gradient,
    train,
    update_u,
)

__version__ = "0.1.0"
