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

Every stage trains a lockstep stack of models of one config, seeds aside: one
(M, P) parameter array (``ModelParams.stack``) viewed as (S, A, P), A members
for each of S seeds (one included), with the gradient and momentum alike.
Each seed brings its dataset, shuffle stream and dropout stream, and its A
members share its batch and masks by broadcasting.  Parameters, transitions,
class weights and datasets are checked when built, their fit once at stage
start.  A batch is one fused step on a workspace allocated once per stage
(``model.ForwardCache``; a ragged last batch has a second one): dropout
drawn into it, layers, the loss's gradient on the transition rows and class
weights gathered once per epoch, backward into its packed gradient, and the
update (``sgd_momentum_step``), allocating only the scaled gradient and a few
small temporaries.  The step leaves each example's labeled-class score in a
buffer, and the epoch finishes the logged loss from it in a few calls.  Each
epoch writes every seed's shuffled rows into one buffer, a step's batch is a
slice of it, and the epoch's accuracy is scored on those rows on one more
workspace, in equal blocks of at most ``max(2, EVAL_BLOCK // seeds)`` rows,
as ``predict`` would.  Only the updated parameters are checked for finiteness.

The arms of every seed of a run train together under the run's configs,
offset by the seed (``run_seeds``), each (seed, arm) cell an ArmResult filled
phase by phase: BL1's stage is also the oracle, and each stage of the plan
stacks the members of all seeds whose datasets share one size and loss form
and which bring as many members, each bit-identical to its stage alone.  A
member that diverges, or whose seed's dataset or own transition does not fit
at stage start, records its error and keeps its place as zero rows.
"""

from __future__ import annotations

import time
from collections import Counter
from dataclasses import dataclass, field, replace

import numpy as np

from .data import Dataset, WebCorpus, check_fields, flatten_web, integer, real
from .errors import DivergenceError, ValidationError, WeblyError
from .loss import example_losses, median_frequency_weights, modulated_cross_entropy_rows
# perfbench/tracing.py wraps this name as its loss.call span (its selftest needs it);
# train_stage calls the _rows form, so the span records no call in training.
from .loss import modulated_cross_entropy  # noqa: F401
from .model import (EVAL_BLOCK, ForwardCache, ModelConfig, ModelParams, backward,
                    forward_layers, init_params, pcg64_states, rewind)
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
    stages: list[StageResult] = field(default_factory=list)
    transition: TransitionMatrix | None = None
    oracle: ModelParams | None = None
    web_access_log: list[tuple[str, int]] = field(default_factory=list)

    @property
    def final_params(self) -> ModelParams:
        return self.stages[-1].params


def effective_lr(cfg: TrainConfig, epoch: int) -> float:
    """Step-decayed rate: lr_init * factor ** floor(epoch / every)."""
    return cfg.learning_rate_init * cfg.lr_decay_factor ** (epoch // cfg.lr_decay_every)


def sgd_momentum_step(theta: np.ndarray, grad: np.ndarray, velocity: np.ndarray,
                      lr: float, momentum: float) -> None:
    """Classic momentum update in place: v <- momentum*v - lr*g; theta <- theta + v.

    The arrays are one vector, or (..., P) stacks with one row per member;
    ``grad`` is left as it is.  Raises DivergenceError when the updated
    ``theta`` is not all finite; every row is updated first, and the error's
    ``members`` lists the rows not finite, in C order.  A non-finite
    gradient always makes its row so.
    """
    velocity *= momentum
    velocity -= lr * grad
    theta += velocity
    if not np.isfinite(theta).all():
        bad = ~np.isfinite(theta).all(axis=-1)
        raise DivergenceError("divergence detected: non-finite parameter",
                              members=tuple(np.flatnonzero(bad).tolist()))


@dataclass
class SeedStack:
    """The seeds of a cross-seed stage: per seed its dataset and the shuffle
    seed of its streams.  Its members come seed by seed, as many per seed.
    The datasets share one size, feature dim and class count; ``len`` is one
    dataset's rows."""

    datasets: list[Dataset]
    shuffle_seeds: list[int]

    def __len__(self) -> int:
        return len(self.datasets[0])


@np.errstate(over="ignore", invalid="ignore")  # a divergence is its member's error
def train_stage(init, ds, cfg: TrainConfig, transition=None, renormalize: bool = False):
    """Run one stage of mini-batch SGD over the dataset.

    ``transition`` selects the loss: None trains with plain weighted
    cross-entropy (the modulated loss with the identity), otherwise the
    transition-modulated loss, renormalized with ``renormalize`` over column
    sums gathered once per stage.  Class weights are median-frequency balanced
    from this dataset's labels, computed once at stage start.  ``init`` is
    copied, never changed.  Velocity starts at zero.  Deterministic given the
    config.  Returns a StageResult, or raises the WeblyError that failed it.

    ``init`` may instead be a list of models of one config (seeds aside),
    trained in lockstep, with ``transition`` a list of one entry per member.
    The result is then a list holding, per member, its StageResult (under
    its own config) or its first error: a DivergenceError, or the
    ValidationError of its seed's dataset lacking a class or of its
    transition's k.  Every stage trains as such a stack, a lone model as a
    stack of one, and ``ds`` as a ``SeedStack``, a Dataset as one seed with
    ``cfg.shuffle_seed``, whose members come seed by seed, as many per
    seed: each seed's members share its shuffle orders, batches and dropout
    masks, and get the numbers each gets alone.  A failed member
    stays in the stack, trained on from zero parameters and velocity with
    identity rows and unit weights, unlogged, until every member has failed
    (at stage start, no epoch runs).  A fault of the whole call raises.
    """
    solo = isinstance(init, ModelParams)
    members = [init] if solo else list(init)
    transitions = [transition] if solo else list(transition)
    if isinstance(ds, Dataset):
        ds = SeedStack([ds], [cfg.shuffle_seed])
    seeds = len(ds.datasets)
    if len(transitions) != len(members) or len(members) % seeds:
        raise ValidationError(f"{len(members)} members and {len(transitions)} transitions "
                              f"for {seeds} seeds: need one transition per member and as "
                              f"many members per seed")
    n = len(ds)
    if n == 0:
        raise ValidationError("cannot train on an empty dataset")
    params = ModelParams.stack(members)
    k = params.config.num_classes
    for d in ds.datasets:
        if len(d) != n:
            raise ValidationError(f"stacked datasets of {n} and {len(d)} rows")
        if d.feature_dim != params.config.input_dim or d.num_classes != k:
            raise ValidationError("dataset dims do not match model config")
    # a seed missing a class fails its members, a transition of another k its own member
    size, per_seed = params.flat.shape[-1], len(members) // seeds
    outcome: list = [None] * len(members)
    weights = np.ones((seeds, k))
    for s, d in enumerate(ds.datasets):
        try:
            weights[s] = median_frequency_weights(d.label_counts()).w
        except ValidationError as exc:
            outcome[s * per_seed:(s + 1) * per_seed] = [exc] * per_seed
    for m, t in enumerate(transitions):
        if t is not None and t.k != k:
            outcome[m] = outcome[m] or ValidationError(f"transition k={t.k} != num_classes {k}")
    params.flat[[m for m, result in enumerate(outcome) if result]] = 0.0
    grouped = ModelParams._from_flat(params.config, params.flat.reshape(seeds, per_seed, size))
    entries = np.stack([np.eye(k) if t is None or result else t.entries
                        for t, result in zip(transitions, outcome)]).reshape(seeds, -1, k, k)
    col_sums = entries.sum(axis=-2, keepdims=True) if renormalize else None
    seed_at, member_at = np.arange(seeds)[:, None, None], np.arange(per_seed)[:, None]
    labels = np.stack([d.y for d in ds.datasets])
    x_epoch = np.empty((seeds, 1, n, params.config.input_dim))  # each seed's shuffled rows
    # every epoch's shuffle and every step's dropout stream per seed, seeded
    # up front; one reused generator is rewound to each
    epochs = range(cfg.epochs if None in outcome else 0)  # no epoch if every member failed
    starts = range(0, n, cfg.batch_size)
    shuffle_states = pcg64_states((seed, e) for e in epochs for seed in ds.shuffle_seeds
                                  ).reshape(len(epochs), seeds, 4)
    mask_states = pcg64_states((seed, e, b) for e in epochs for b in range(len(starts))
                               for seed in ds.shuffle_seeds
                               ).reshape(len(epochs), len(starts), seeds, 4)
    rng = np.random.Generator(np.random.PCG64())
    # per batch its workspace: one for the full batches, a second for a ragged last one
    rows, last = min(n, cfg.batch_size), n - starts[-1]
    full = ForwardCache(grouped, rows, train=True)
    step_caches = [full] * (len(starts) - 1) + [
        full if last == rows else ForwardCache(grouped, last, train=True)]
    # each epoch's accuracy: its shuffled rows in equal blocks, the last ending at row n
    block = min(n, max(2, EVAL_BLOCK // seeds))
    scoring, predicted = ForwardCache(grouped, block), np.empty((seeds, per_seed, n), np.intp)
    scores = np.empty((seeds, per_seed, n))  # each step's scores (and z), made losses per epoch
    z = np.empty_like(scores) if renormalize else None
    velocity = np.zeros_like(grouped.flat)
    logs: list[list[dict]] = [[] for _ in members]
    for epoch in epochs:
        lr = effective_lr(cfg, epoch)
        epoch_start = time.perf_counter()
        orders = np.stack([rewind(rng, state).permutation(n)
                           for state in shuffle_states[epoch].tolist()])
        for d, seed_order, seed_rows in zip(ds.datasets, orders, x_epoch[:, 0]):
            d.X.take(seed_order, axis=0, out=seed_rows, mode="clip")
        # each example's labels and class weight terms, (S, 1, n), and each
        # member's transition rows, (S, A, n, k), sliced per batch
        y_epoch = labels[seed_at, orders[:, None]]
        t_epoch = entries[seed_at, member_at, y_epoch]
        w_epoch = weights[seed_at, y_epoch]
        w_over_b = w_epoch / cfg.batch_size
        w_over_b[..., starts[-1]:] = w_epoch[..., starts[-1]:] / last
        for batch_idx, (lo, states) in enumerate(zip(starts, mask_states[epoch].tolist())):
            hi, cache = lo + cfg.batch_size, step_caches[batch_idx]  # one fused step
            for seed, state in enumerate(states):
                cache.draw_masks(rewind(rng, state), seed)
            posteriors = forward_layers(cache, x_epoch[..., lo:hi, :])
            logit_grads = modulated_cross_entropy_rows(
                posteriors, t_epoch[..., lo:hi, :], w_over_b[..., lo:hi], scores[..., lo:hi],
                z if z is None else z[..., lo:hi], cache.logit_grads, col_sums)
            # A non-finite loss or gradient makes the updated theta non-finite.
            try:
                sgd_momentum_step(grouped.flat, backward(cache, logit_grads), velocity, lr,
                                  cfg.momentum)
            except DivergenceError as exc:
                for r in exc.members:
                    outcome[r] = outcome[r] or DivergenceError(
                        f"{exc} at epoch {epoch}, batch {batch_idx}")
                if None not in outcome:
                    break
                # a diverged member trains on from zero, unlogged, so the stack stays finite
                for flat in (params.flat, velocity.reshape(params.flat.shape)):
                    flat[list(exc.members)] = 0.0
        if None not in outcome:
            break
        # each batch's loss sum, as the step took it, added up from zero in step order
        losses = example_losses(scores, z, -w_epoch)
        sums = np.zeros((seeds, per_seed, len(starts) + 1))
        sums[..., 1:-1] = losses[..., :starts[-1]].reshape(seeds, per_seed, -1, rows).sum(axis=-1)
        sums[..., -1] = losses[..., starts[-1]:].sum(axis=-1)
        loss_sum = sums.cumsum(axis=-1)[..., -1]
        del t_epoch, w_epoch, w_over_b  # freed first: two epochs' gathers never coexist
        for lo in (min(start, n - block) for start in range(0, n, block)):
            forward_layers(scoring, x_epoch[..., lo:lo + block, :]).argmax(
                axis=-1, out=predicted[..., lo:lo + block])
        train_acc = (predicted == y_epoch).mean(axis=-1).ravel()
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
    outcome = [result or StageResult(ModelParams._from_flat(member.config, row.copy()), log)
               for result, member, row, log in zip(outcome, members, params.flat, logs)]
    if solo and isinstance(outcome[0], WeblyError):
        raise outcome[0]
    return outcome[0] if solo else outcome


@dataclass
class SeedInputs:
    """What one seed of ``run_seeds`` trains on: its clean split, web corpus
    (or None), the offset it adds to the run's shuffle and init seeds, and
    the corpus's fingerprint if the caller holds it."""

    clean_train: Dataset
    web: WebCorpus | None
    seed: int
    web_fingerprint: str | None = None


def run_seeds(arms, seeds: list[SeedInputs], cfg_web: TrainConfig, cfg_clean: TrainConfig,
              model_cfg: ModelConfig, transition_override: TransitionMatrix | None = None,
              renormalize: bool = False) -> list[dict]:
    """Train the given arms of every seed together; per seed, map each arm
    to its ArmResult or to the toolkit error that failed it.

    Every seed trains under the run's configs, its ``seed`` added to their
    ``shuffle_seed`` and ``init_seed``.  Each seed's initial model is built
    once, and its clean-only stage and web stage both start from it (a
    stage trains a copy).  The clean-only stage is trained once per seed: it
    is BL1's stage and the noise-corrected arm's oracle, so its failure
    fails both.  The transition is then estimated per seed
    from it, taking the seed's ``web_fingerprint``, if given, as the
    corpus's ``fingerprint``.  Then each phase (web pretrain, clean
    fine-tune) trains the live web arms.  Every stage trains the members of
    all seeds whose datasets share one size and which bring as many live
    arms as one stack per loss form (``train_stage`` on a ``SeedStack``):
    with ``renormalize`` the noise-corrected arm's web stage differs in loss
    form and stacks apart.  A member that diverges or whose transition does
    not fit fails only its own arm of its seed, a dataset without every
    class only its seed's members of that stage, and a web corpus that
    cannot be flattened only the web arms of its seed.  Every arm's numbers
    are those it gets alone, and its ``web_access_log`` counts the corpus
    reads made for its seed from this call's start, also when seeds share
    one corpus object.

    ``transition_override`` is a diagnostic hook that replaces the estimated
    transition in the noise-corrected arm (and skips oracle training when no
    BL1 arm needs the clean stage); forcing the identity there must reproduce
    BL2 exactly.
    """
    for arm in arms:
        if arm not in ARMS:
            raise ValidationError(f"unknown arm {arm!r}; expected one of {ARMS}")
    webs, reads = [seed.web for seed in seeds], [0] * len(seeds)
    inits = [init_params(replace(model_cfg, init_seed=model_cfg.init_seed + seed.seed))
             for seed in seeds]
    # each (seed, arm) cell's ArmResult, filled phase by phase, or its error
    cells = [{arm: ArmResult(arm) for arm in arms} for _ in seeds]
    order = range(len(seeds))

    def live(s, *names):
        return [arm for arm in arms if arm in names and isinstance(cells[s][arm], ArmResult)]

    def snapshot(phase: str, *names) -> None:
        for s in order:
            for arm in live(s, *names):
                cells[s][arm].web_access_log.append((phase, reads[s]))

    def read(s, fn, *args):
        """``fn(*args)``, which reads seed s's corpus, counting its reads."""
        before = webs[s].access_count
        try:
            return fn(*args)
        finally:
            reads[s] += webs[s].access_count - before

    def train(members, data, cfg, init_of, transition_of=lambda s, arm: None) -> dict:
        """Map each (seed, arm) member, given seed by seed, to its stage
        result or error, in one ``train_stage`` call per stack of seeds whose
        data share one size and that bring as many members of one loss form."""
        keyed = [((len(data[s]), data[s].feature_dim, data[s].num_classes,
                   renormalize and transition_of(s, arm) is not None), s, arm)
                 for s, arm in members]
        per_seed, stacks, results = Counter((key, s) for key, s, _ in keyed), {}, {}
        for key, s, arm in keyed:
            stacks.setdefault((*key, per_seed[key, s]), []).append((s, arm))
        for key, stack in stacks.items():
            on = list(dict.fromkeys(s for s, _ in stack))
            try:
                got = train_stage([init_of(*member) for member in stack],
                                  SeedStack([data[s] for s in on],
                                            [cfg.shuffle_seed + seeds[s].seed for s in on]),
                                  cfg, [transition_of(*member) for member in stack], key[3])
            except WeblyError as exc:  # a fault of the whole stack
                got = [exc] * len(stack)
            results.update(zip(stack, got))
        return results

    snapshot("start", *arms)
    for s in order:
        if webs[s] is None:
            for arm in live(s, ARM_BL2, ARM_PROPOSED):
                cells[s][arm] = ValidationError(f"arm {arm} requires a web corpus")

    oracle_arms = [live(s, ARM_BL1) + (live(s, ARM_PROPOSED) if transition_override is None
                                       else []) for s in order]
    clean = [seed.clean_train for seed in seeds]
    for (s, _), result in train([(s, ARM_BL1) for s in order if oracle_arms[s]], clean,
                                cfg_clean, lambda s, _: inits[s]).items():
        for arm in oracle_arms[s]:
            if isinstance(result, WeblyError):
                cells[s][arm] = result
            elif arm == ARM_BL1:
                cells[s][arm].stages.append(result)
            else:
                cells[s][arm].oracle = result.params
    snapshot("after_clean_stage", ARM_BL1)

    for s in order:
        for arm in live(s, ARM_PROPOSED):
            try:
                cells[s][arm].transition = transition_override or read(
                    s, estimate_transition, cells[s][arm].oracle, webs[s],
                    seeds[s].web_fingerprint)
            except WeblyError as exc:
                cells[s][arm] = exc
    snapshot("after_estimation", ARM_PROPOSED)

    flat = [None] * len(seeds)
    for s in order:
        web_arms = live(s, ARM_BL2, ARM_PROPOSED)
        if web_arms:
            try:
                flat[s] = read(s, flatten_web, webs[s])
            except WeblyError as exc:
                cells[s].update(dict.fromkeys(web_arms, exc))
    for phase, data, cfg, init_of, transition_of in (
            ("after_web_stage", flat, cfg_web, lambda s, _: inits[s],
             lambda s, arm: cells[s][arm].transition),
            ("after_clean_stage", clean, cfg_clean,
             lambda s, arm: cells[s][arm].final_params, lambda s, arm: None)):
        members = [(s, arm) for s in order if flat[s] is not None
                   for arm in live(s, ARM_BL2, ARM_PROPOSED)]
        for (s, arm), result in train(members, data, cfg, init_of, transition_of).items():
            if isinstance(result, WeblyError):
                cells[s][arm] = result
            else:
                cells[s][arm].stages.append(result)
        snapshot(phase, ARM_BL2, ARM_PROPOSED)
    return cells


def run_arm(arm: str, clean_train: Dataset, web: WebCorpus | None,
            cfg_web: TrainConfig, cfg_clean: TrainConfig,
            model_cfg: ModelConfig,
            transition_override: TransitionMatrix | None = None,
            renormalize: bool = False) -> tuple[ModelParams, ArmResult]:
    """Execute one experimental arm end to end: ``run_seeds`` of that arm on
    one seed.  Returns (final params, ArmResult), or raises the toolkit error
    that failed it."""
    result = run_seeds([arm], [SeedInputs(clean_train, web, 0)], cfg_web, cfg_clean, model_cfg,
                       transition_override, renormalize)[0][arm]
    if isinstance(result, WeblyError):
        raise result
    return result.final_params, result
