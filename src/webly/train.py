"""SGD-with-momentum training and the three experimental arms.

An arm is a recipe of one or two training stages: BL1 trains on the clean
corpus only; BL2 pretrains on the flattened web corpus with plain weighted
cross-entropy, then fine-tunes on clean data; the noise-corrected arm first
trains an oracle on clean data, estimates the transition matrix from the web
corpus with it, pretrains on web data with the modulated loss, then fine-tunes
on clean data.  Every stage is deterministic given its config: the shuffle
order and dropout masks derive from (shuffle_seed, epoch, batch) alone.

A stage updates one flat parameter vector in place (``ModelParams.flat``),
with the gradient and momentum in the same layout.  Dropout is the model's
setting.  Parameters, the transition, the class weights and the dataset are
checked when they are built; the step loop checks only that the updated
parameters are finite.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace

import numpy as np

from .data import Dataset, WebCorpus, flatten_web
from .errors import DivergenceError, ValidationError
from .loss import median_frequency_weights, modulated_cross_entropy
from .model import ModelConfig, ModelParams, backward, forward, init_params
from .noise import TransitionMatrix, estimate_transition

ARM_BL1 = "BL1"
ARM_BL2 = "BL2"
ARM_PROPOSED = "Proposed"
ARMS = (ARM_BL1, ARM_BL2, ARM_PROPOSED)


@dataclass
class TrainConfig:
    epochs: int
    batch_size: int
    learning_rate_init: float = 0.01
    momentum: float = 0.9
    lr_decay_factor: float = 0.5
    lr_decay_every: int = 10
    shuffle_seed: int = 0

    def __post_init__(self):
        if self.epochs < 0:
            raise ValidationError("epochs must be >= 0")
        if self.batch_size < 1:
            raise ValidationError("batch_size must be >= 1")
        if self.learning_rate_init <= 0:
            raise ValidationError("learning_rate_init must be positive")
        if not 0.0 <= self.momentum < 1.0:
            raise ValidationError("momentum must lie in [0, 1)")
        if not 0.0 < self.lr_decay_factor < 1.0:
            raise ValidationError("lr_decay_factor must lie in (0, 1)")
        if self.lr_decay_every < 1:
            raise ValidationError("lr_decay_every must be >= 1")
        if self.shuffle_seed < 0:
            raise ValidationError("shuffle_seed must be >= 0")


@dataclass
class StageResult:
    params: ModelParams
    log: list[dict]
    wall_seconds: float
    config: TrainConfig


@dataclass
class ArmResult:
    """Provenance bundle for a finished arm: every stage, the transition used,
    the oracle (when one was trained), and web-access counter snapshots."""

    arm: str
    stages: list[StageResult]
    transition: TransitionMatrix | None
    oracle: ModelParams | None
    web_access_log: list[tuple[str, int]]

    @property
    def final_params(self) -> ModelParams:
        return self.stages[-1].params


def effective_lr(cfg: TrainConfig, epoch: int) -> float:
    """Step-decayed rate: lr_init * factor ** floor(epoch / every)."""
    return cfg.learning_rate_init * cfg.lr_decay_factor ** (epoch // cfg.lr_decay_every)


def sgd_momentum_step(theta: np.ndarray, grad: np.ndarray, velocity: np.ndarray,
                      lr: float, momentum: float) -> None:
    """Classic momentum update in place: v <- momentum*v - lr*g; theta <- theta + v.

    Raises DivergenceError when the updated ``theta`` is not all finite; a
    non-finite gradient always makes it so.
    """
    velocity *= momentum
    velocity -= lr * grad
    theta += velocity
    if not np.isfinite(theta).all():
        raise DivergenceError("divergence detected: non-finite parameter")


def train_stage(init: ModelParams, ds: Dataset, cfg: TrainConfig,
                transition: TransitionMatrix | None = None,
                renormalize: bool = False) -> StageResult:
    """Run one stage of mini-batch SGD over the dataset.

    ``transition`` selects the loss: None trains with plain weighted
    cross-entropy (the modulated loss with the identity), otherwise the
    transition-modulated loss.  Class weights are median-frequency balanced
    from this dataset's labels, computed once at stage start.  ``init`` is
    copied, never changed.  Velocity starts at zero.  Deterministic given the
    config.
    """
    if len(ds) == 0:
        raise ValidationError("cannot train on an empty dataset")
    if ds.feature_dim != init.config.input_dim or ds.num_classes != init.config.num_classes:
        raise ValidationError("dataset dims do not match model config")
    weights = median_frequency_weights(ds.label_counts())
    if transition is None:
        transition = TransitionMatrix(entries=np.eye(ds.num_classes), provenance={})
    elif transition.k != ds.num_classes:
        raise ValidationError(
            f"transition k={transition.k} != num_classes {ds.num_classes}"
        )

    start = time.perf_counter()
    x = ds.X
    y = ds.y
    n = len(ds)
    params = init.copy()
    velocity = np.zeros_like(params.flat)
    log: list[dict] = []
    for epoch in range(cfg.epochs):
        lr = effective_lr(cfg, epoch)
        epoch_start = time.perf_counter()
        order = np.random.default_rng((cfg.shuffle_seed, epoch)).permutation(n)
        loss_sum = 0.0
        for batch_idx, lo in enumerate(range(0, n, cfg.batch_size)):
            sel = order[lo:lo + cfg.batch_size]
            posteriors, cache = forward(
                params, x[sel], train=True,
                dropout_seed=(cfg.shuffle_seed, epoch, batch_idx),
            )
            report = modulated_cross_entropy(posteriors, y[sel], transition,
                                             weights, renormalize=renormalize)
            grad = backward(cache, report.logit_grads)
            # A non-finite loss or gradient makes the updated theta non-finite.
            try:
                sgd_momentum_step(params.flat, grad, velocity, lr, cfg.momentum)
            except DivergenceError as exc:
                raise DivergenceError(
                    f"{exc} at epoch {epoch}, batch {batch_idx}"
                ) from None
            loss_sum += float(report.per_example.sum())
        eval_posteriors, _ = forward(params, x, train=False)
        train_acc = float((eval_posteriors.argmax(axis=1) == y).mean())
        log.append({
            "epoch": epoch,
            "lr": lr,
            "mean_loss": loss_sum / n,
            "train_accuracy": train_acc,
            "elapsed_s": time.perf_counter() - epoch_start,
        })
    return StageResult(params=params, log=log,
                       wall_seconds=time.perf_counter() - start,
                       config=replace(cfg))


def run_arm(arm: str, clean_train: Dataset, web: WebCorpus | None,
            cfg_web: TrainConfig, cfg_clean: TrainConfig,
            model_cfg: ModelConfig,
            transition_override: TransitionMatrix | None = None,
            renormalize: bool = False) -> tuple[ModelParams, ArmResult]:
    """Execute one experimental arm end to end.

    ``transition_override`` is a diagnostic hook that replaces the estimated
    transition in the noise-corrected arm (and skips oracle training); forcing
    the identity there must reproduce BL2 exactly.
    """
    if arm not in ARMS:
        raise ValidationError(f"unknown arm {arm!r}; expected one of {ARMS}")
    access_log: list[tuple[str, int]] = []

    def snapshot(phase: str) -> None:
        access_log.append((phase, web.access_count if web is not None else 0))

    snapshot("start")
    if arm == ARM_BL1:
        stage = train_stage(init_params(model_cfg), clean_train, cfg_clean)
        snapshot("after_clean_stage")
        result = ArmResult(arm=arm, stages=[stage], transition=None,
                           oracle=None, web_access_log=access_log)
        return stage.params, result

    if web is None:
        raise ValidationError(f"arm {arm} requires a web corpus")

    transition = None
    oracle = None
    if arm == ARM_PROPOSED:
        if transition_override is not None:
            transition = transition_override
        else:
            oracle_stage = train_stage(init_params(model_cfg), clean_train,
                                       cfg_clean)
            oracle = oracle_stage.params
            transition = estimate_transition(oracle, web)
        snapshot("after_estimation")

    web_flat = flatten_web(web)
    stage1 = train_stage(init_params(model_cfg), web_flat, cfg_web,
                         transition=transition,
                         renormalize=renormalize and transition is not None)
    snapshot("after_web_stage")
    stage2 = train_stage(stage1.params, clean_train, cfg_clean)
    snapshot("after_clean_stage")
    result = ArmResult(arm=arm, stages=[stage1, stage2], transition=transition,
                       oracle=oracle, web_access_log=access_log)
    return stage2.params, result
