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

Every stage trains a lockstep stack of models of one config, seeds aside:
one (M, P) parameter array (``ModelParams.stack``), with the gradient and
momentum in the same layout, and a lone model is a stack of one.  A stack
holds the members of one or more seeds (``SeedStack``), as many per seed:
each seed brings its dataset, shuffle stream and dropout stream, and the
stack is viewed as (S, A, P), or (A, P) for one seed, so that each seed's A
members share its batch and masks by broadcasting.
Dropout is the model's setting.  Parameters, the transition, the class
weights and the dataset are checked when they are built, and their fit once
at stage start.  A batch is one fused step on a workspace allocated once per
stage for the full batches (``model.ForwardCache``; a ragged last batch has a
second one): dropout drawn into it, layers, loss on the transition rows and
class weight terms gathered once per epoch, backward straight into its packed
gradient, and the update, with nothing allocated per step but a few small
temporaries.  Each epoch writes every seed's shuffled rows into one buffer
allocated once per stage, one copy per seed however many members it has,
and a step's batch is a slice of it.  It checks only that the
updated parameters are finite.

The arms of every seed of a run train together (``run_seeds``): BL1's stage
is also the oracle, and each stage of the plan runs the members of all seeds
whose datasets share one size, whose configs and loss form agree and which
bring as many members as one stack, each member bit-identical to its stage
run alone.  The stack keeps its
shape for the whole stage: a member that diverges records its error, and its
rows of the parameters and the velocity are set to zero so that the stack
stays finite.
"""

from __future__ import annotations

import time
from collections import Counter
from dataclasses import dataclass, replace

import numpy as np

from .data import Dataset, WebCorpus, check_fields, flatten_web, integer, real
from .errors import DivergenceError, ValidationError, WeblyError
from .loss import (median_frequency_weights, modulated_cross_entropy_rows,
                   renormalized_cross_entropy_rows)
# perfbench/tracing.py wraps train.modulated_cross_entropy as its loss.call span,
# and its selftest requires the name; train_stage calls the _rows forms, so the
# span records no call in training.
from .loss import modulated_cross_entropy  # noqa: F401
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


@dataclass
class SeedStack:
    """The seeds of a cross-seed stage: per seed its dataset and the shuffle
    seed of its streams, and per member of the stack the index of its seed.
    The datasets share one size, feature dim and class count; ``len`` is one
    dataset's rows."""

    datasets: list[Dataset]
    shuffle_seeds: list[int]
    member_seeds: list[int]

    def __len__(self) -> int:
        return len(self.datasets[0])


def train_stage(init, ds, cfg: TrainConfig, transition=None, renormalize: bool = False):
    """Run one stage of mini-batch SGD over the dataset.

    ``transition`` selects the loss: None trains with plain weighted
    cross-entropy (the modulated loss with the identity), otherwise the
    transition-modulated loss.  Class weights are median-frequency balanced
    from this dataset's labels, computed once at stage start.  ``init`` is
    copied, never changed.  Velocity starts at zero.  Deterministic given the
    config.  Returns a StageResult, or raises DivergenceError.

    ``init`` may instead be a list of models of one config (seeds aside),
    trained in lockstep, with ``transition`` a list of one entry per member.
    The result is then a list holding, per member, its StageResult or its
    first DivergenceError.  Every stage trains as such a stack, a lone model
    as a stack of one, and ``ds`` as a ``SeedStack``, a Dataset as one seed
    with ``cfg.shuffle_seed``, whose seeds each have as many members: each
    epoch draws one shuffle order per seed and each step one set of dropout
    masks per seed, each seed's members share its (1, B, D) batch and its
    masks, and each member's numbers are those it gets alone.  A diverged member stays in the stack,
    restarted from zero parameters and velocity and no longer logged, until
    every member has diverged.
    """
    solo = isinstance(init, ModelParams)
    members = [init] if solo else list(init)
    transitions = [transition] if solo else list(transition)
    if isinstance(ds, Dataset):
        ds = SeedStack([ds], [cfg.shuffle_seed], [0] * len(members))
    if not len(transitions) == len(ds.member_seeds) == len(members):
        raise ValidationError(f"{len(members)} models but {len(transitions)} transitions "
                              f"and {len(ds.member_seeds)} member seeds")
    counts = [list(ds.member_seeds).count(s) for s in range(len(ds.datasets))]
    if sum(counts) != len(members) or len(set(counts)) != 1:
        raise ValidationError(f"member seeds {ds.member_seeds} do not give each of "
                              f"{len(ds.datasets)} seeds as many members")
    n = len(ds)
    if n == 0:
        raise ValidationError("cannot train on an empty dataset")
    # the members in seed order, viewed as (S, A, P): each seed's A members
    # share its batch and masks along the member axis
    order = np.argsort(ds.member_seeds, kind="stable")
    params = ModelParams.stack([members[i] for i in order])
    k = params.config.num_classes
    for d in ds.datasets:
        if len(d) != n:
            raise ValidationError(f"stacked datasets of {n} and {len(d)} rows")
        if d.feature_dim != params.config.input_dim or d.num_classes != k:
            raise ValidationError("dataset dims do not match model config")
    weights = np.stack([median_frequency_weights(d.label_counts()).w for d in ds.datasets])
    for t in transitions:
        if t is not None and t.k != k:
            raise ValidationError(f"transition k={t.k} != num_classes {k}")
    # The stack's lead axes: (S, A), or (A,) for one seed, since numpy
    # charges every call of the step for each axis of its arrays.  Each
    # per-epoch array is built as (S, A or 1, n, ...) and viewed with them.
    seeds, size = len(ds.datasets), params.flat.shape[-1]
    lead = (counts[0],) if seeds == 1 else (seeds, counts[0])
    grouped = ModelParams._from_flat(params.config, params.flat.reshape(*lead, size))
    seed_models = [ModelParams._from_flat(params.config, flat)
                   for flat in params.flat.reshape(seeds, -1, size)]
    entries = np.stack([np.eye(k) if transitions[i] is None else transitions[i].entries
                        for i in order]).reshape(seeds, -1, k, k)
    seed_at, member_at = np.arange(seeds)[:, None, None], np.arange(counts[0])[:, None]
    labels = np.stack([d.y for d in ds.datasets])
    x_epoch = np.empty((seeds, n, params.config.input_dim))  # each seed's shuffled rows
    x_view = x_epoch.reshape(*lead[:-1], 1, n, params.config.input_dim)
    # every epoch's shuffle and every step's dropout stream per seed, seeded
    # up front; one reused generator is rewound to each
    epochs, starts = range(cfg.epochs), range(0, n, cfg.batch_size)
    shuffle_states = pcg64_states((seed, e) for e in epochs for seed in ds.shuffle_seeds
                                  ).reshape(len(epochs), seeds, 4)
    mask_states = pcg64_states((seed, e, b) for e in epochs for b in range(len(starts))
                               for seed in ds.shuffle_seeds
                               ).reshape(len(epochs), len(starts), seeds, 4)
    rng = np.random.Generator(np.random.PCG64())
    # per batch its workspace: one for the full batches, a second for a ragged last one
    rows, last = min(n, cfg.batch_size), n - starts[-1]
    full = ForwardCache(grouped, rows, train=True, grads=True)
    step_caches = [full] * (len(starts) - 1) + [
        full if last == rows else ForwardCache(grouped, last, train=True, grads=True)]
    velocity = np.zeros_like(params.flat)
    logs: list[list[dict]] = [[] for _ in members]
    outcome: list = [None] * len(members)
    for epoch in epochs:
        lr = effective_lr(cfg, epoch)
        epoch_start = time.perf_counter()
        orders = np.stack([rewind(rng, state).permutation(n)
                           for state in shuffle_states[epoch].tolist()])
        for d, seed_order, seed_rows in zip(ds.datasets, orders, x_epoch):
            d.X.take(seed_order, axis=0, out=seed_rows, mode="clip")
        # each example's labels, class weight terms and each member's
        # transition rows, sliced per batch
        y_epoch = labels[seed_at, orders[:, None]]
        t_epoch = entries[seed_at, member_at, y_epoch].reshape(*lead, n, k)
        w_epoch = weights[seed_at, y_epoch].reshape(*lead[:-1], 1, n)
        y_epoch = y_epoch.reshape(w_epoch.shape)
        neg_w, w_over_b = -w_epoch, w_epoch / cfg.batch_size
        w_over_b[..., starts[-1]:] = w_epoch[..., starts[-1]:] / last
        loss_sum = np.zeros(lead)
        for batch_idx, (lo, states) in enumerate(zip(starts, mask_states[epoch].tolist())):
            hi, cache = lo + cfg.batch_size, step_caches[batch_idx]  # one fused step
            for seed, state in enumerate(states):
                cache.draw_masks(rewind(rng, state), seed)
            posteriors = forward_layers(cache, x_view[..., lo:hi, :])
            report = (renormalized_cross_entropy_rows(
                          posteriors, entries.reshape(*lead, k, k), y_epoch[..., lo:hi],
                          t_epoch[..., lo:hi, :], neg_w[..., lo:hi], w_over_b[..., lo:hi])
                      if renormalize
                      else modulated_cross_entropy_rows(
                          posteriors, t_epoch[..., lo:hi, :], neg_w[..., lo:hi],
                          w_over_b[..., lo:hi], cache.per_example, cache.logit_grads))
            grad = backward(cache, report.logit_grads).reshape(params.flat.shape)
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
        train_acc = np.concatenate([  # each seed's members on its dataset
            (predict(seed_params, d).argmax(axis=-1) == d.y).mean(axis=-1)
            for seed_params, d in zip(seed_models, ds.datasets)])
        elapsed = time.perf_counter() - epoch_start
        for log, result, mean_loss, acc in zip(logs, outcome, loss_sum.ravel() / n, train_acc):
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
    outcome = [outcome[i] for i in np.argsort(order)]  # back in the members' order
    if solo and isinstance(outcome[0], DivergenceError):
        raise outcome[0]
    return outcome[0] if solo else outcome


@dataclass
class SeedInputs:
    """What one seed of ``run_seeds`` trains on: its clean split, web corpus
    (or None), stage and model configs, and the corpus's fingerprint if the
    caller holds it."""

    clean_train: Dataset
    web: WebCorpus | None
    cfg_web: TrainConfig
    cfg_clean: TrainConfig
    model_cfg: ModelConfig
    web_fingerprint: str | None = None


def run_seed(arms, clean_train: Dataset, web: WebCorpus | None,
             cfg_web: TrainConfig, cfg_clean: TrainConfig, model_cfg: ModelConfig,
             transition_override: TransitionMatrix | None = None,
             renormalize: bool = False, web_fingerprint: str | None = None) -> dict:
    """Train the given arms of one seed together: ``run_seeds`` of that seed."""
    seed = SeedInputs(clean_train, web, cfg_web, cfg_clean, model_cfg, web_fingerprint)
    return run_seeds(arms, [seed], transition_override, renormalize)[0]


def run_seeds(arms, seeds: list[SeedInputs],
              transition_override: TransitionMatrix | None = None,
              renormalize: bool = False) -> list[dict]:
    """Train the given arms of every seed together; per seed, map each arm
    to (final params, ArmResult) or to the toolkit error that failed it.

    The clean-only stage is trained once per seed: it is BL1's stage and the
    noise-corrected arm's oracle, so its failure fails both.  The transition
    is then estimated per seed from it, taking the seed's
    ``web_fingerprint``, if given, as the corpus's ``fingerprint``.  Then each
    phase (web pretrain, clean fine-tune) trains the live web arms.  Every
    stage trains the members of all seeds whose datasets share one size,
    whose configs agree but for their seeds, and which bring as many live
    arms, as one stack per loss form (``train_stage`` on a ``SeedStack``):
    with ``renormalize`` the noise-corrected arm's web stage differs in loss
    form and stacks apart.  A member that diverges fails only its own arm of
    its seed, a web corpus that cannot be flattened only the web arms of its
    seed, and any other toolkit error of a stack only the seed it belongs to
    (the stack's seeds are then trained one by one).  Every arm's numbers are those it gets alone, and its
    ``web_access_log`` counts the corpus reads made for its seed from this
    call's start, also when seeds share one corpus object.

    ``transition_override`` is a diagnostic hook that replaces the estimated
    transition in the noise-corrected arm (and skips oracle training when no
    BL1 arm needs the clean stage); forcing the identity there must reproduce
    BL2 exactly.
    """
    for arm in arms:
        if arm not in ARMS:
            raise ValidationError(f"unknown arm {arm!r}; expected one of {ARMS}")
    webs, reads = [seed.web for seed in seeds], [0] * len(seeds)
    failed: list[dict[str, WeblyError]] = [{} for _ in seeds]
    access_logs = [{arm: [] for arm in arms} for _ in seeds]
    order = range(len(seeds))

    def live(s, *names):
        return [arm for arm in arms if arm in names and arm not in failed[s]]

    def snapshot(phase: str, *names) -> None:
        for s in order:
            for arm in live(s, *names):
                access_logs[s][arm].append((phase, reads[s]))

    def read(s, fn, *args):
        """``fn(*args)``, which reads seed s's corpus, counting its reads."""
        before = webs[s].access_count
        try:
            return fn(*args)
        finally:
            reads[s] += webs[s].access_count - before

    def train(members, data, cfg_of, init_of, transition_of=lambda s, arm: None) -> dict:
        """Map each (seed, arm) member to its stage result or error, in one
        ``train_stage`` call per stack of seeds whose data and configs fit and
        that bring as many members.  A stack of several seeds that raises a
        toolkit error trains again seed by seed, so that the error fails only
        its own seed's members."""
        keyed = []
        for s, arm in members:  # configs are unhashable: key by their repr
            d, renorm = data[s], renormalize and transition_of(s, arm) is not None
            keyed.append(((len(d), d.feature_dim, d.num_classes, renorm,
                           repr(replace(cfg_of(s), shuffle_seed=0)),
                           repr(replace(seeds[s].model_cfg, init_seed=0))), s, arm))
        per_seed, stacks = Counter((key, s) for key, s, _ in keyed), {}
        for key, s, arm in keyed:
            stacks.setdefault((*key, per_seed[key, s]), []).append((s, arm))
        results, todo = {}, [(key[3], stack) for key, stack in stacks.items()]
        while todo:
            renorm, stack = todo.pop(0)
            on = list(dict.fromkeys(s for s, _ in stack))
            try:
                got = train_stage([init_of(*member) for member in stack],
                                  SeedStack([data[s] for s in on],
                                            [cfg_of(s).shuffle_seed for s in on],
                                            [on.index(s) for s, _ in stack]),
                                  cfg_of(on[0]), [transition_of(*member) for member in stack],
                                  renorm)
            except WeblyError as exc:
                if len(on) > 1:
                    todo += [(renorm, [m for m in stack if m[0] == s]) for s in on]
                    continue
                got = [exc] * len(stack)
            results.update(zip(stack, got))
        return results

    snapshot("start", *arms)
    for s in order:
        if webs[s] is None:
            for arm in live(s, ARM_BL2, ARM_PROPOSED):
                failed[s][arm] = ValidationError(f"arm {arm} requires a web corpus")

    oracle_arms = [live(s, ARM_BL1) + (live(s, ARM_PROPOSED) if transition_override is None
                                       else []) for s in order]
    clean, clean_stage = [seed.clean_train for seed in seeds], [None] * len(seeds)
    for (s, _), result in train([(s, ARM_BL1) for s in order if oracle_arms[s]], clean,
                                lambda s: seeds[s].cfg_clean,
                                lambda s, _: init_params(seeds[s].model_cfg)).items():
        if isinstance(result, WeblyError):
            failed[s].update(dict.fromkeys(oracle_arms[s], result))
        else:
            clean_stage[s] = result
    snapshot("after_clean_stage", ARM_BL1)

    transition = [transition_override] * len(seeds)
    for s in order:
        if live(s, ARM_PROPOSED) and transition[s] is None:
            try:
                transition[s] = read(s, estimate_transition, clean_stage[s].params,
                                     webs[s], seeds[s].web_fingerprint)
            except WeblyError as exc:
                failed[s][ARM_PROPOSED] = exc
    snapshot("after_estimation", ARM_PROPOSED)

    flat, params = [None] * len(seeds), {}
    for s in order:
        web_arms = live(s, ARM_BL2, ARM_PROPOSED)
        if web_arms:
            try:
                flat[s] = read(s, flatten_web, webs[s])
                params.update(dict.fromkeys([(s, arm) for arm in web_arms],
                                            init_params(seeds[s].model_cfg)))
            except WeblyError as exc:
                failed[s].update(dict.fromkeys(web_arms, exc))
    stages: dict[tuple, list[StageResult]] = {member: [] for member in params}
    for phase, data, cfg_of, transition_of in (
            ("after_web_stage", flat, lambda s: seeds[s].cfg_web,
             lambda s, arm: transition[s] if arm == ARM_PROPOSED else None),
            ("after_clean_stage", clean, lambda s: seeds[s].cfg_clean, lambda s, arm: None)):
        members = [(s, arm) for s, arm in params if arm not in failed[s]]
        for (s, arm), result in train(members, data, cfg_of, lambda *member: params[member],
                                      transition_of).items():
            if isinstance(result, WeblyError):
                failed[s][arm] = result
            else:
                stages[s, arm].append(result)
                params[s, arm] = result.params
        snapshot(phase, ARM_BL2, ARM_PROPOSED)

    outcomes = [{} for _ in seeds]
    for s, arm in ((s, arm) for s in order for arm in arms):
        if arm in failed[s]:
            outcomes[s][arm] = failed[s][arm]
            continue
        is_proposed = arm == ARM_PROPOSED
        result = ArmResult(
            arm=arm, stages=[clean_stage[s]] if arm == ARM_BL1 else stages[s, arm],
            transition=transition[s] if is_proposed else None,
            oracle=clean_stage[s].params if is_proposed and transition_override is None else None,
            web_access_log=access_logs[s][arm])
        outcomes[s][arm] = (result.final_params, result)
    return outcomes


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
