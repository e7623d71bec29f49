"""SGD-with-momentum training and the three experimental arms.

An arm is a recipe of one or two training stages: BL1 trains on the clean
corpus only; BL2 pretrains on the flattened web corpus with plain weighted
cross-entropy, then fine-tunes on clean data; the noise-corrected arm first
trains an oracle on clean data, estimates the transition matrix from the web
corpus with it, pretrains on web data with the modulated loss, then fine-tunes
on clean data.  Every stage is deterministic given its config: an epoch's
shuffle order is the stream of ``np.random.default_rng((shuffle_seed,
epoch))`` and a step's dropout masks that of ``(shuffle_seed, epoch,
batch)``, all seeded at stage start (``model.pcg64_states``).

Every stage trains a lockstep stack of models of one config: one (M, P)
parameter array (``ModelParams.stack``), with the gradient and momentum in
the same layout, and a lone model is a stack of one.  Dropout is the model's
setting.  Parameters, the transition, the class weights and the dataset are
checked when they are built, and their fit once at stage start.  A batch is
one fused step on a workspace allocated once per stage for the full batches
(``model.ForwardCache``; a ragged last batch has a second one): dropout
drawn into it, layers, loss on the transition rows and class weight terms
gathered once per epoch, backward straight into its packed gradient, and the
update, with nothing allocated per step but a few small temporaries.  It
checks only that the updated parameters are finite.

The arms of one seed train together (``run_seed``): BL1's stage is also the
oracle, and in each later phase the arms' stages that share the dataset,
configs and loss form run as one stack, each member bit-identical to its
stage run alone.  The stack keeps its shape for the whole stage: a member
that diverges records its error, and its rows of the parameters and the
velocity are set to zero so that the stack stays finite.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .data import Dataset, WebCorpus, check_fields, flatten_web, integer, real
from .errors import DivergenceError, ValidationError, WeblyError
from .loss import (median_frequency_weights, modulated_cross_entropy,
                   modulated_cross_entropy_rows)
from .model import (ForwardCache, ModelConfig, ModelParams, backward, forward_layers,
                    init_params, pcg64_states, predict, rewind)
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

    The arrays are one vector, or (M, P) stacks with one row per member;
    ``grad`` is left as it is.  Raises DivergenceError when the updated
    ``theta`` is not all finite; every row is updated first, and the error's
    ``members`` lists the rows that are not finite.  A non-finite gradient
    always makes its row so.
    """
    momentum_update(theta, lr * grad, velocity, momentum)


def momentum_update(theta: np.ndarray, step: np.ndarray, velocity: np.ndarray,
                    momentum: float) -> None:
    """``sgd_momentum_step`` given ``step`` = lr * grad (a training step
    scales its gradient buffer in place)."""
    velocity *= momentum
    velocity -= step
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
    lockstep, with ``transition`` a list of one entry per member.  The result
    is then a list holding, per member, its StageResult or its first
    DivergenceError.  Every stage trains as such a stack, a lone model as a
    stack of one: each step draws one shuffle order, batch and set of dropout
    masks for the whole stack, and each member's numbers are those it gets
    alone.  A diverged member stays in the stack, restarted from zero
    parameters and velocity and no longer logged, until every member has
    diverged.
    """
    solo = isinstance(init, ModelParams)
    members = [init] if solo else list(init)
    transitions = [transition] if solo else list(transition)
    if len(transitions) != len(members):
        raise ValidationError(f"{len(members)} models but {len(transitions)} transitions")
    if len(ds) == 0:
        raise ValidationError("cannot train on an empty dataset")
    params = ModelParams.stack(members)
    if ds.feature_dim != params.config.input_dim or ds.num_classes != params.config.num_classes:
        raise ValidationError("dataset dims do not match model config")
    weights = median_frequency_weights(ds.label_counts())
    k = ds.num_classes
    for t in transitions:
        if t is not None and t.k != k:
            raise ValidationError(f"transition k={t.k} != num_classes {k}")
    member_t = TransitionMatrix(
        entries=np.stack([np.eye(k) if t is None else t.entries for t in transitions]),
        provenance={})

    x = ds.X
    y = ds.y
    n = len(ds)
    # every epoch's shuffle and every step's dropout stream, seeded up front;
    # one reused generator is rewound to each
    epochs, starts = range(cfg.epochs), range(0, n, cfg.batch_size)
    shuffle_states = pcg64_states((cfg.shuffle_seed, e) for e in epochs)
    mask_states = pcg64_states((cfg.shuffle_seed, e, b) for e in epochs
                               for b in range(len(starts))).reshape(len(epochs), len(starts), 4)
    rng = np.random.Generator(np.random.PCG64())
    # per batch its workspace: one for the full batches, a second for a ragged last one
    rows, last = min(n, cfg.batch_size), n - starts[-1]
    full = ForwardCache(params, rows, train=True, grads=True)
    step_caches = [full] * (len(starts) - 1) + [
        full if last == rows else ForwardCache(params, last, train=True, grads=True)]
    velocity = np.zeros_like(params.flat)
    logs: list[list[dict]] = [[] for _ in members]
    outcome: list = [None] * len(members)
    for epoch in epochs:
        lr = effective_lr(cfg, epoch)
        epoch_start = time.perf_counter()
        order = rewind(rng, shuffle_states[epoch]).permutation(n)
        x_epoch, y_epoch = x[order], y[order]
        # each example's transition row and class weight terms, sliced per batch
        t_epoch, w_epoch = member_t.entries[:, y_epoch, :], weights.w[y_epoch]
        neg_w, w_over_b = -w_epoch, w_epoch / cfg.batch_size
        w_over_b[starts[-1]:] = w_epoch[starts[-1]:] / last
        loss_sum = np.zeros(len(members))
        for batch_idx, lo in enumerate(starts):
            hi, cache = lo + cfg.batch_size, step_caches[batch_idx]  # one fused step
            cache.draw_masks(rewind(rng, mask_states[epoch, batch_idx]))
            posteriors = forward_layers(cache, x_epoch[lo:hi])
            report = (modulated_cross_entropy(posteriors, y_epoch[lo:hi], member_t, weights,
                                              renormalize=True) if renormalize
                      else modulated_cross_entropy_rows(
                          posteriors, t_epoch[:, lo:hi, :], neg_w[lo:hi], w_over_b[lo:hi],
                          cache.per_example, cache.logit_grads))
            grad = backward(cache, report.logit_grads)
            grad *= lr
            # A non-finite loss or gradient makes the updated theta non-finite.
            try:
                momentum_update(params.flat, grad, velocity, cfg.momentum)
            except DivergenceError as exc:
                for r in exc.members:
                    outcome[r] = outcome[r] or DivergenceError(
                        f"{exc} at epoch {epoch}, batch {batch_idx}")
                if None not in outcome:
                    break
                # a diverged member trains on from zero, unlogged, so the stack stays finite
                params.flat[list(exc.members)] = velocity[list(exc.members)] = 0.0
            loss_sum += report.per_example.sum(axis=-1)
        if None not in outcome:
            break
        train_acc = (predict(params, ds).argmax(axis=-1) == y).mean(axis=-1)
        elapsed = time.perf_counter() - epoch_start
        for log, result, mean_loss, acc in zip(logs, outcome, loss_sum / n, train_acc):
            if result is None:
                log.append({
                    "epoch": epoch,
                    "lr": lr,
                    "mean_loss": float(mean_loss),
                    "train_accuracy": float(acc),
                    "elapsed_s": elapsed,
                })
    outcome = [result or StageResult(params=member_params, log=log)
               for result, member_params, log in zip(outcome, params.unstack(), logs)]
    if solo and isinstance(outcome[0], DivergenceError):
        raise outcome[0]
    return outcome[0] if solo else outcome


def run_seed(arms, clean_train: Dataset, web: WebCorpus | None,
             cfg_web: TrainConfig, cfg_clean: TrainConfig, model_cfg: ModelConfig,
             transition_override: TransitionMatrix | None = None,
             renormalize: bool = False, web_fingerprint: str | None = None) -> dict:
    """Train the given arms of one seed together; map each arm to
    (final params, ArmResult) or to the toolkit error that failed it.

    The clean-only stage is trained once: it is BL1's stage and the
    noise-corrected arm's oracle, so its failure fails both.  The transition
    is estimated from it, taking ``web_fingerprint``, if given, as the
    corpus's ``fingerprint``.  Then each phase (web pretrain, clean fine-tune)
    stacks the live web arms' stages into one ``train_stage`` call per loss
    form: they share the dataset, TrainConfig and ModelConfig, and with
    ``renormalize`` the noise-corrected arm's web stage differs in loss form
    and trains on its own.  A member that diverges fails only its own arm, and
    a web corpus that cannot be flattened only the web arms.  Every arm's
    numbers are those it gets alone, and its ``web_access_log`` counts the
    corpus's reads from this call's start.

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
    start = getattr(web, "access_count", 0)

    def live(*names):
        return [arm for arm in arms if arm in names and arm not in failed]

    def snapshot(phase: str, names) -> None:
        for arm in names:
            access_logs[arm].append((phase, getattr(web, "access_count", 0) - start))

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
                transition = estimate_transition(clean_stage.params, web, web_fingerprint)
            except WeblyError as exc:
                failed[ARM_PROPOSED] = exc
        snapshot("after_estimation", live(ARM_PROPOSED))

    web_arms = live(ARM_BL2, ARM_PROPOSED)
    stages: dict[str, list[StageResult]] = {arm: [] for arm in web_arms}
    phases = []  # each with its dataset, config and the arms on the modulated loss
    if web_arms:
        try:
            phases = [("after_web_stage", flatten_web(web), cfg_web, {ARM_PROPOSED: transition}),
                      ("after_clean_stage", clean_train, cfg_clean, {})]
            params = dict.fromkeys(web_arms, init_params(model_cfg))
        except WeblyError as exc:
            failed.update(dict.fromkeys(web_arms, exc))
    for phase, ds, cfg, modulated in phases:
        groups: dict[bool, list[str]] = {}  # one stack per loss form
        for arm in live(*web_arms):
            groups.setdefault(renormalize and arm in modulated, []).append(arm)
        for renorm, group in groups.items():
            try:
                results = train_stage([params[arm] for arm in group], ds, cfg,
                                      [modulated.get(arm) for arm in group], renorm)
            except WeblyError as exc:
                results = [exc] * len(group)
            for arm, result in zip(group, results):
                if isinstance(result, WeblyError):
                    failed[arm] = result
                else:
                    stages[arm].append(result)
                    params[arm] = result.params
        snapshot(phase, live(*web_arms))

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
