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
checked when they are built, and their fit once at stage start.  A batch is
one fused step (dropout, layers, loss on the transition rows and class
weights gathered once per epoch, backward, update) that checks only that the
updated parameters are finite.

The arms of one seed train together (``run_seed``): BL1's stage is also the
oracle, and stages that share the dataset, configs and loss form run in
lockstep as one (M, P) parameter stack, each member bit-identical to its
stage run alone.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace

import numpy as np

from .data import Dataset, WebCorpus, check_fields, flatten_web, integer, real
from .errors import DivergenceError, ValidationError, WeblyError
from .loss import (median_frequency_weights, modulated_cross_entropy,
                   modulated_cross_entropy_rows)
from .model import (ModelConfig, ModelParams, backward, dropout_masks, forward_layers,
                    init_params, predict, seeded_rng)
from .noise import TransitionMatrix, estimate_transition

ARM_BL1 = "BL1"
ARM_BL2 = "BL2"
ARM_PROPOSED = "Proposed"
ARMS = (ARM_BL1, ARM_BL2, ARM_PROPOSED)


TRAIN_RULES = {
    "epochs": integer(0),
    "batch_size": integer(1),
    "learning_rate_init": real(lambda v: v > 0, "> 0"),
    "momentum": real(lambda v: 0 <= v < 1, "in [0, 1)"),
    "lr_decay_factor": real(lambda v: 0 < v < 1, "in (0, 1)"),
    "lr_decay_every": integer(1),
    "shuffle_seed": integer(0),
}


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
        check_fields(vars(self), TRAIN_RULES)


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

    The arrays are one vector, or (M, P) stacks with one row per member.
    Raises DivergenceError when the updated ``theta`` is not all finite; every
    row is updated first, and the error's ``members`` lists the rows that are
    not finite.  A non-finite gradient always makes its row so.
    """
    velocity *= momentum
    velocity -= lr * grad
    theta += velocity
    if not np.isfinite(theta).all():
        bad = ~np.isfinite(theta).all(axis=-1)
        raise DivergenceError("divergence detected: non-finite parameter",
                              members=tuple(np.flatnonzero(bad).tolist()))


def train_stage(init, ds: Dataset, cfg: TrainConfig, transition=None,
                renormalize: bool = False):
    """Run one stage of mini-batch SGD over the dataset.

    ``transition`` selects the loss: None trains with plain weighted
    cross-entropy (the modulated loss with the identity), otherwise the
    transition-modulated loss.  Class weights are median-frequency balanced
    from this dataset's labels, computed once at stage start.  ``init`` is
    copied, never changed.  Velocity starts at zero.  Deterministic given the
    config.  Returns a StageResult, or raises DivergenceError.

    ``init`` may instead be a list of models of one config, trained in
    lockstep, with ``transition`` a list of one entry per member.  Every step
    then draws one shuffle order, batch and set of dropout masks for the whole
    stack, and each member's numbers are those it gets alone.  The result is
    a list holding, per member, its StageResult or the DivergenceError that
    took it out of the stack while the others trained on.
    """
    solo = isinstance(init, ModelParams)
    members = [init] if solo else list(init)
    transitions = [transition] if solo else list(transition)
    if len(transitions) != len(members):
        raise ValidationError(f"{len(members)} models but {len(transitions)} transitions")
    if len(ds) == 0:
        raise ValidationError("cannot train on an empty dataset")
    # a single model trains as a plain vector: a stack of one costs more per step
    params = members[0].copy() if len(members) == 1 else ModelParams.stack(members)
    if ds.feature_dim != params.config.input_dim or ds.num_classes != params.config.num_classes:
        raise ValidationError("dataset dims do not match model config")
    weights = median_frequency_weights(ds.label_counts())
    k = ds.num_classes
    for t in transitions:
        if t is not None and t.k != k:
            raise ValidationError(f"transition k={t.k} != num_classes {k}")
    entries = [np.eye(k) if t is None else t.entries for t in transitions]
    member_t = TransitionMatrix(
        entries=entries[0] if len(entries) == 1 else np.stack(entries), provenance={})

    start = time.perf_counter()
    x = ds.X
    y = ds.y
    n = len(ds)
    velocity = np.zeros_like(params.flat)
    rows = list(range(len(members)))       # member trained by each stack row
    logs: list[list[dict]] = [[] for _ in members]
    outcome: list = [None] * len(members)
    for epoch in range(cfg.epochs):
        lr = effective_lr(cfg, epoch)
        epoch_start = time.perf_counter()
        order = seeded_rng((cfg.shuffle_seed, epoch)).permutation(n)
        x_epoch, y_epoch = x[order], y[order]
        # each example's transition row and class weight, sliced per batch
        t_epoch, w_epoch = member_t.entries[..., y_epoch, :], weights.w[y_epoch]
        loss_sum = np.zeros(params.flat.shape[:-1])
        for batch_idx, lo in enumerate(range(0, n, cfg.batch_size)):
            hi = lo + cfg.batch_size
            x_batch = x_epoch[lo:hi]  # one fused step: the Dataset checked its rows
            masks = dropout_masks(params.config, len(x_batch),
                                  (cfg.shuffle_seed, epoch, batch_idx))
            posteriors, cache = forward_layers(params, x_batch, masks)
            report = (modulated_cross_entropy(posteriors, y_epoch[lo:hi], member_t, weights,
                                              renormalize=True) if renormalize
                      else modulated_cross_entropy_rows(posteriors, t_epoch[..., lo:hi, :],
                                                        w_epoch[lo:hi]))
            grad = backward(cache, report.logit_grads)
            batch_loss = report.per_example.sum(axis=-1)
            # A non-finite loss or gradient makes the updated theta non-finite.
            try:
                sgd_momentum_step(params.flat, grad, velocity, lr, cfg.momentum)
            except DivergenceError as exc:
                for r in exc.members:
                    outcome[rows[r]] = DivergenceError(
                        f"{exc} at epoch {epoch}, batch {batch_idx}")
                keep = [r for r in range(len(rows)) if r not in exc.members]
                rows = [rows[r] for r in keep]
                if not rows:
                    break
                params = ModelParams._from_flat(params.config, params.flat[keep])
                velocity, loss_sum, batch_loss = velocity[keep], loss_sum[keep], batch_loss[keep]
                member_t = TransitionMatrix(entries=member_t.entries[keep], provenance={})
                t_epoch = t_epoch[keep]
            loss_sum += batch_loss
        if not rows:
            break
        train_acc = (predict(params, ds).argmax(axis=-1) == y).mean(axis=-1)
        elapsed = time.perf_counter() - epoch_start
        for member, mean_loss, acc in zip(rows, np.atleast_1d(loss_sum / n),
                                          np.atleast_1d(train_acc)):
            logs[member].append({
                "epoch": epoch,
                "lr": lr,
                "mean_loss": float(mean_loss),
                "train_accuracy": float(acc),
                "elapsed_s": elapsed,
            })
    wall_seconds = time.perf_counter() - start
    for member, member_params in zip(rows, params.unstack()):
        outcome[member] = StageResult(params=member_params, log=logs[member],
                                      wall_seconds=wall_seconds, config=replace(cfg))
    if not solo:
        return outcome
    if isinstance(outcome[0], DivergenceError):
        raise outcome[0]
    return outcome[0]


def _stack_stages(jobs: dict) -> dict:
    """Train one stage per arm, stacking the stages that share the dataset,
    TrainConfig, ModelConfig and loss form.

    ``jobs`` maps an arm to (init, dataset, TrainConfig, transition or None,
    renormalize); the result maps it to its StageResult or the toolkit error
    that failed its stack or itself.
    """
    groups: list[tuple[tuple, list[str]]] = []
    for arm, (init, ds, cfg, _, renorm) in jobs.items():
        key = (ds, cfg, init.config, renorm)
        for other, arms in groups:
            if other[0] is ds and other[1:] == key[1:]:
                arms.append(arm)
                break
        else:
            groups.append((key, [arm]))
    results = {}
    for (ds, cfg, _, renorm), arms in groups:
        try:
            outcome = train_stage([jobs[a][0] for a in arms], ds, cfg,
                                  [jobs[a][3] for a in arms], renorm)
        except WeblyError as exc:
            outcome = [exc] * len(arms)
        results.update(zip(arms, outcome))
    return results


def run_seed(arms, clean_train: Dataset, web: WebCorpus | None,
             cfg_web: TrainConfig, cfg_clean: TrainConfig, model_cfg: ModelConfig,
             transition_override: TransitionMatrix | None = None,
             renormalize: bool = False) -> dict:
    """Train the given arms of one seed together; map each arm to
    (final params, ArmResult) or to the toolkit error that failed it.

    The clean-only stage is trained once: it is BL1's stage and the
    noise-corrected arm's oracle, so its failure fails both.  The transition
    is estimated from it, then the web stages of BL2 and the noise-corrected
    arm run as one lockstep stack, and their clean fine-tunes as another
    (see ``train_stage``).  Stages stack when they share the dataset,
    TrainConfig, ModelConfig and loss form; with ``renormalize`` the two web
    stages differ in loss form and train one after the other.  A member that
    diverges fails only its own arm.  Every arm's numbers are those it gets
    alone.

    ``transition_override`` is a diagnostic hook that replaces the estimated
    transition in the noise-corrected arm (and skips oracle training when no
    BL1 arm needs the clean stage); forcing the identity there must reproduce
    BL2 exactly.
    """
    for arm in arms:
        if arm not in ARMS:
            raise ValidationError(f"unknown arm {arm!r}; expected one of {ARMS}")
    failed: dict[str, WeblyError] = {}
    access_logs: dict[str, list[tuple[str, int]]] = {arm: [] for arm in arms}

    def live(*names):
        return [arm for arm in arms if arm in names and arm not in failed]

    def snapshot(phase: str, names) -> None:
        for arm in names:
            access_logs[arm].append((phase, web.access_count if web is not None else 0))

    snapshot("start", arms)
    if web is None:
        for arm in live(ARM_BL2, ARM_PROPOSED):
            failed[arm] = ValidationError(f"arm {arm} requires a web corpus")

    oracle_arms = live(ARM_BL1) + (live(ARM_PROPOSED) if transition_override is None else [])
    clean_stage = None
    if oracle_arms:
        try:
            clean_stage = train_stage(init_params(model_cfg), clean_train, cfg_clean)
        except WeblyError as exc:
            failed.update(dict.fromkeys(oracle_arms, exc))
        snapshot("after_clean_stage", live(ARM_BL1))

    transition = transition_override
    if live(ARM_PROPOSED):
        if transition is None:
            try:
                transition = estimate_transition(clean_stage.params, web)
            except WeblyError as exc:
                failed[ARM_PROPOSED] = exc
        snapshot("after_estimation", live(ARM_PROPOSED))

    web_arms = live(ARM_BL2, ARM_PROPOSED)
    stages: dict[str, list[StageResult]] = {arm: [] for arm in web_arms}
    if web_arms:
        web_flat = flatten_web(web)
        init = init_params(model_cfg)
        jobs = {arm: (init, web_flat, cfg_web, None, False) for arm in web_arms}
        if ARM_PROPOSED in jobs:
            jobs[ARM_PROPOSED] = (init, web_flat, cfg_web, transition, renormalize)
        for phase in ("after_web_stage", "after_clean_stage"):
            for arm, result in _stack_stages(jobs).items():
                if isinstance(result, WeblyError):
                    failed[arm] = result
                else:
                    stages[arm].append(result)
            snapshot(phase, live(*web_arms))
            jobs = {arm: (stages[arm][-1].params, clean_train, cfg_clean, None, False)
                    for arm in live(*web_arms)}

    outcome: dict = {}
    for arm in arms:
        if arm in failed:
            outcome[arm] = failed[arm]
            continue
        is_proposed = arm == ARM_PROPOSED
        arm_stages = [clean_stage] if arm == ARM_BL1 else stages[arm]
        result = ArmResult(
            arm=arm, stages=arm_stages,
            transition=transition if is_proposed else None,
            oracle=clean_stage.params if is_proposed and transition_override is None else None,
            web_access_log=access_logs[arm])
        outcome[arm] = (result.final_params, result)
    return outcome


def run_arm(arm: str, clean_train: Dataset, web: WebCorpus | None,
            cfg_web: TrainConfig, cfg_clean: TrainConfig,
            model_cfg: ModelConfig,
            transition_override: TransitionMatrix | None = None,
            renormalize: bool = False) -> tuple[ModelParams, ArmResult]:
    """Execute one experimental arm end to end: ``run_seed`` with that arm
    alone, raising the toolkit error that failed it."""
    outcome = run_seed([arm], clean_train, web, cfg_web, cfg_clean, model_cfg,
                       transition_override=transition_override,
                       renormalize=renormalize)[arm]
    if isinstance(outcome, WeblyError):
        raise outcome
    return outcome
