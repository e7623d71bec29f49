"""Feedforward softmax classifier with analytic forward/backward passes.

Hidden layers use ReLU with inverted dropout (train-time scaling by 1/keep,
nothing at eval), where keep is the model config's ``dropout_keep_prob``; the
output layer is a softmax computed in the max-subtracted stable form.
Gradients are hand-derived and checked against finite differences in the test
suite.  Everything runs in float64.

A model's parameters are one flat vector in checkpoint order, with per-layer
views; ``backward`` returns its gradient in the same layout.  Shapes and
finiteness are checked when parameters are built or loaded, not per call.
Models of one config (their seeds aside) can be stacked: ``flat`` is then
(M, P), one row per member, the layer views gain a leading member axis, and
``forward`` runs every member over one shared batch and dropout draw.  A
training stage views its stack as (S, A, P), A members for each of S seeds,
and gives each seed's members its (S, 1, batch, D) batch and masks.  Each
member's numbers are those it would get alone.

Every pass runs on a workspace (``ForwardCache``) holding each intermediate
of both passes and each layer's operands, built once: ``forward`` checks its
batch and runs the unchecked ``forward_layers`` on a new one, and
``backward`` writes into the gradient buffers of the one it is given.  A
training stage uses one for its full batches and one for a ragged last
batch, and draws a seed's dropout masks with one call.  Eval-mode scoring
(``predict``, ``penultimate_features``, an epoch's accuracy) runs on one, in
``_eval_blocks``' equal row blocks.  All give the plain form's bits.

Random streams are those of ``np.random.default_rng(seed)``.  ``pcg64_states``
ports numpy's seeding (the ``SeedSequence`` hash mix and PCG64's first step)
to uint64 word arrays, so a training stage derives the start of every
epoch's and step's stream in one vectorized pass and ``rewind``s one reused
generator to each, instead of building a generator per step.
"""

from __future__ import annotations

import hashlib
import json
import math
import operator
import struct
from dataclasses import asdict, dataclass, replace
from itertools import chain
from pathlib import Path

import numpy as np

from .data import Dataset, WebCorpus, canonical_json, check_fields, integer, integers, real
from .errors import CheckpointError, ValidationError, named

CHECKPOINT_MAGIC = b"WSLCKPT1"
INIT_SCALE_RULE = "sqrt_2_over_fan_in"
EVAL_BLOCK = 512  # rows, over all seeds, per eval-mode pass of _eval_blocks' workspace
MODEL_MAX_PARAMS = 2**27  # packed float64 parameters (1 GiB) a model may have
FINGERPRINT_BAGS = 32  # web bags hashed per joined chunk: bounds the chunk's parts


MODEL_RULES = {
    "input_dim": integer(1),
    "hidden_sizes": integers(1),
    "num_classes": integer(2),
    "dropout_keep_prob": real(lambda v: 0 < v <= 1, "in (0, 1]"),
    "init_seed": integer(0),
    "init_scale": (lambda v: v == INIT_SCALE_RULE, repr(INIT_SCALE_RULE)),
}


@dataclass
class ModelConfig:
    input_dim: int
    hidden_sizes: list[int]
    num_classes: int
    dropout_keep_prob: float = 0.8
    init_seed: int = 0
    init_scale: str = INIT_SCALE_RULE

    def __post_init__(self):
        check_fields(vars(self), MODEL_RULES)
        count = self.param_count()
        if count > MODEL_MAX_PARAMS:
            raise ValidationError(
                f"hidden_sizes {self.hidden_sizes} with input_dim {self.input_dim} and "
                f"num_classes {self.num_classes} pack {count} parameters, more than "
                f"the {MODEL_MAX_PARAMS} a model holds")

    def param_count(self) -> int:
        """Weights and biases over all layers: the sum of (fan_in + 1) * fan_out."""
        return sum((fan_in + 1) * fan_out for fan_in, fan_out in self.layer_dims())

    def layer_dims(self) -> list[tuple[int, int]]:
        """(fan_in, fan_out) per layer, chaining input through hidden to output."""
        sizes = [self.input_dim] + list(self.hidden_sizes) + [self.num_classes]
        return list(zip(sizes[:-1], sizes[1:]))


def check_fit(config: ModelConfig, data) -> None:
    """Raise ValidationError unless ``data`` (a Dataset or a WebCorpus) fits the model."""
    d, k = data.X.shape[1], data.num_classes
    if (d, k) != (config.input_dim, config.num_classes):
        raise ValidationError(f"feature_dim {d} and num_classes {k} do not fit a model of "
                              f"input_dim {config.input_dim} and num_classes {config.num_classes}")


class ModelParams:
    """Every weight and bias of a model in one float64 vector, ``flat``.

    ``flat`` packs the layers in checkpoint order (w0, b0, w1, b1, ...), each
    weight matrix row-major; ``weights[l]`` (fan_in x fan_out) and
    ``biases[l]`` are views into it, so an in-place write to one changes
    ``flat``.  ``weights_t[l]`` (fan_out x fan_in) and ``bias_rows[l]``
    (1 x fan_out) are the same memory transposed and as a broadcast row.
    Shapes and finiteness are checked once, at construction; training then
    updates ``flat`` in place.  A stack (``stack``) holds models of one
    config, seeds aside, with ``flat`` of shape (M, P) and views with a
    leading M axis; ``config`` is the first member's, so a member's own
    config stays with its caller.
    """

    def __init__(self, config: ModelConfig, weights, biases):
        dims = config.layer_dims()
        if len(weights) != len(dims) or len(biases) != len(dims):
            raise ValidationError("layer count does not match config")
        for (fan_in, fan_out), w, b in zip(dims, weights, biases):
            if w.shape != (fan_in, fan_out) or b.shape != (fan_out,):
                raise ValidationError(
                    f"layer shapes {w.shape}/{b.shape} != ({fan_in},{fan_out})/({fan_out},)"
                )
        flat = np.concatenate([np.ravel(a) for a in chain(*zip(weights, biases))],
                              dtype=np.float64)
        if not np.isfinite(flat).all():
            raise ValidationError("non-finite parameter")
        self._adopt(config, flat)

    def _adopt(self, config: ModelConfig, flat: np.ndarray) -> None:
        """Take ``flat`` (one vector, or an (M, P) stack) and view its layers."""
        self.config, self.flat = config, flat
        lead, weights, biases, pos = flat.shape[:-1], [], [], 0
        for fan_in, fan_out in config.layer_dims():
            end = pos + fan_in * fan_out
            weights.append(flat[..., pos:end].reshape(*lead, fan_in, fan_out))
            biases.append(flat[..., end:end + fan_out])
            pos = end + fan_out
        self.weights, self.biases = tuple(weights), tuple(biases)
        self.weights_t = tuple(w.swapaxes(-1, -2) for w in weights)
        self.bias_rows = tuple(b[..., None, :] for b in biases)

    @classmethod
    def _from_flat(cls, config: ModelConfig, flat: np.ndarray) -> "ModelParams":
        """Adopt a finite packed vector of the config's size, without copying."""
        params = cls.__new__(cls)
        params._adopt(config, flat)
        return params

    def copy(self) -> "ModelParams":
        return ModelParams._from_flat(self.config, self.flat.copy())

    @classmethod
    def stack(cls, members) -> "ModelParams":
        """A copy of models whose configs differ at most in ``init_seed``, so
        that models of several seeds stack: ``flat`` of shape (M, P), and
        ``config`` the first member's."""
        config = members[0].config
        if any(replace(m.config, init_seed=config.init_seed) != config for m in members):
            raise ValidationError("stacked models must share one config but for init_seed")
        return cls._from_flat(config, np.stack([m.flat for m in members]))


class ForwardCache:
    """The workspace of a forward pass over ``rows`` rows, each buffer a new
    (*lead, rows, width) array with a stack's member axis as lead, written in
    place by ``forward_layers``: per hidden layer l ``pre_activations[l]`` and
    the activation ``inputs[l + 1]`` (``inputs[0]`` is the last batch), then
    ``logits`` and ``posteriors``.  With ``train`` (and keep < 1) the
    ``dropout_masks`` are views of ``kept``, which ``draw_masks`` fills, else
    None.  The masks are shared along the last lead axis: by every member of
    an (M, P) stack, and by the members of each seed of a training stage's
    (S, A, P) stack, whose ``kept`` has one row, and so one set of masks, per
    seed.  It also holds what ``loss.modulated_cross_entropy_rows`` and
    ``backward`` write: ``gates[l]``, ``deltas[l]``, ``logit_grads``, and
    ``grad`` packed like ``params.flat`` with per-layer views ``grads``; and
    each pass's per-layer operands, ``forward_ops`` and ``backward_ops``.
    """

    def __init__(self, params: ModelParams, rows: int, train: bool = False):
        cfg, lead = params.config, params.flat.shape[:-1]
        hidden, n = cfg.hidden_sizes, len(cfg.hidden_sizes)
        self.params = params
        self.dropout = train and cfg.dropout_keep_prob < 1.0 and n > 0
        layers = [(*lead, rows, width) for width in hidden * 2]
        logits = (*lead, rows, cfg.num_classes)
        shapes = layers + [logits] * 2 + [(math.prod(lead[:-1]), rows * sum(hidden) * self.dropout)]
        shapes += layers + [logits, params.flat.shape]
        buffers = map(np.empty, shapes)
        self.pre_activations, acts = ([next(buffers) for _ in hidden] for _ in range(2))
        self.logits, self.posteriors, self.kept = next(buffers), next(buffers), next(buffers)
        self.inputs = [None, *acts]
        self.dropout_masks = [None] * n
        if self.dropout:  # per hidden layer, its (rows, width) block of each mask row,
            # after an axis of 1 that each seed's members broadcast over
            ends = np.cumsum([0, *hidden]) * rows
            shared = (*lead[:-1], 1) if len(lead) > 1 else ()
            self.dropout_masks = [self.kept[..., lo:hi].reshape(*shared, rows, width)
                                  for lo, hi, width in zip(ends, ends[1:], hidden)]
        self.gates, self.deltas = ([next(buffers) for _ in hidden] for _ in range(2))
        self.logit_grads, self.grad = buffers
        self.grads = grads = ModelParams._from_flat(cfg, self.grad)
        self.forward_ops = tuple(zip(params.weights, params.bias_rows, self.pre_activations,
                                     acts, self.dropout_masks))
        self.backward_ops = tuple(zip(grads.biases[1:], grads.weights[1:],
                                      [a.swapaxes(-1, -2) for a in acts], params.weights_t[1:],
                                      self.deltas, acts, self.gates))[::-1]

    def draw_masks(self, rng: np.random.Generator, seed: int = 0) -> None:
        """Redraw every dropout mask (of ``seed``, in an (S, A, P) stack) with
        one call of ``rng``."""
        if self.dropout:  # numpy fills the buffer in order: each layer's block
            # holds what a draw of its own shape would give
            kept = self.kept[seed]
            np.less(rng.random(out=kept), self.params.config.dropout_keep_prob, out=kept)


# numpy's SeedSequence hash constants (initial, multiplier) for the pool mix
# and for generate_state, its mix multipliers, and PCG64's 128-bit LCG
# multiplier as (high, low) words
_HASH_MIX, _HASH_STATE = (0x43B0D7E5, 0x931E8875), (0x8B51F9DD, 0x58F38DED)
_MIX_L, _MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_PCG_MULT = (np.uint64(0x2360ED051FC65DA4), np.uint64(0x4385DF649FCCF645))
_U32 = np.uint64(32)


def _seed_words(seed, words: list) -> int:
    """Append the uint32 entropy words numpy reads from an int or a tuple of
    ints (each int little-endian, 0 as one word) to ``words``; their count."""
    start = len(words)
    for value in seed if isinstance(seed, (tuple, list)) else (seed,):
        value = operator.index(value)
        if value < 0:
            raise ValueError(f"seed {seed!r}: expected non-negative integers")
        words.append(value & 0xFFFFFFFF)
        while value >> 32:
            value >>= 32
            words.append(value & 0xFFFFFFFF)
    return len(words) - start


def _hash_constants(const: int, mult: int, count: int) -> np.ndarray:
    """numpy's running uint32 hash constants ``const * mult**i`` for i <
    ``count``, as a (count, 1) column."""
    column = [const]
    for _ in range(count - 1):
        column.append(column[-1] * mult & 0xFFFFFFFF)
    return np.array(column, dtype=np.uint32)[:, None]


def _hashmix(v, consts):
    """numpy's SeedSequence hash of ``v`` once per step of the running
    constant: row i xors in ``consts[i]`` and multiplies by ``consts[i + 1]``."""
    v = (v ^ consts[:-1]) * consts[1:]
    v ^= v >> np.uint32(16)
    return v


def _mix(x, y):
    """numpy's SeedSequence mix of pool words ``x`` with hashed words ``y``."""
    r = _MIX_L * x - _MIX_R * y
    r ^= r >> np.uint32(16)
    return r


def _mul_high(x, y):
    """High 64 bits of the 128-bit products of uint64 arrays, by 32-bit halves."""
    low = np.uint64(0xFFFFFFFF)
    x0, x1, y0, y1 = x & low, x >> _U32, y & low, y >> _U32
    cross0, cross1 = x0 * y1, x1 * y0
    mid = (x0 * y0 >> _U32) + (cross0 & low) + (cross1 & low)
    return x1 * y1 + (cross0 >> _U32) + (cross1 >> _U32) + (mid >> _U32)


def _pcg64_rows(entropy: np.ndarray) -> np.ndarray:
    """``pcg64_states`` for an (N, words) uint32 entropy array: numpy's
    SeedSequence pool mix, ``generate_state(4, uint64)`` and PCG64 seeding,
    with every row at once.  A pool word hashed under successive constants
    is one (steps, N) array, so each loop step below is a few array calls."""
    n, width = entropy.shape
    consts = _hash_constants(*_HASH_MIX, 4 * max(width, 4) + 1)
    pool = np.zeros((4, n), np.uint32)
    pool[:width] = entropy[:, :4].T
    pool, step = _hashmix(pool, consts[:5]), 4
    for src in range(4):  # mix every pool word into the other three
        dst = [d for d in range(4) if d != src]
        pool[dst] = _mix(pool[dst], _hashmix(pool[src], consts[step:step + 4]))
        step += 3
    for src in range(4, width):  # then each further word into all four
        pool = _mix(pool, _hashmix(entropy[:, src], consts[step:step + 5]))
        step += 4
    w = _hashmix(pool[[0, 1, 2, 3] * 2], _hash_constants(*_HASH_STATE, 9)).astype(np.uint64)
    seed_hi, seed_lo, inc_hi, inc_lo = w[0::2] | w[1::2] << _U32
    # PCG64: inc = 2 * inc + 1, state = (inc + seed) * mult + inc, mod 2**128
    inc_hi = inc_hi << np.uint64(1) | inc_lo >> np.uint64(63)
    inc_lo = inc_lo << np.uint64(1) | np.uint64(1)
    lo = inc_lo + seed_lo
    hi = inc_hi + seed_hi + (lo < inc_lo)
    mult_hi, mult_lo = _PCG_MULT
    state_lo = lo * mult_lo + inc_lo
    state_hi = _mul_high(lo, mult_lo) + lo * mult_hi + hi * mult_lo + inc_hi
    state_hi += state_lo < inc_lo
    return np.stack([state_hi, state_lo, inc_hi, inc_lo], axis=-1)


def pcg64_states(seeds) -> np.ndarray:
    """Per seed, the PCG64 state that ``np.random.default_rng(seed)`` starts
    from, as uint64 words (state high, state low, inc high, inc low): an
    (N, 4) array computed in one vectorized pass per entropy word count.

    ``seeds`` is an iterable, read once, of non-negative ints or tuples of
    them, Python or numpy.  ``rewind`` sets a generator to a row.
    """
    words: list[int] = []
    widths = np.array([_seed_words(seed, words) for seed in seeds], dtype=np.int64)
    entropy, starts = np.array(words, dtype=np.uint32), np.cumsum(widths) - widths
    states = np.empty((len(widths), 4), dtype=np.uint64)
    for width in np.unique(widths).tolist():
        rows = np.flatnonzero(widths == width)
        states[rows] = _pcg64_rows(entropy[starts[rows, None] + np.arange(width)])
    return states


def rewind(rng: np.random.Generator, state) -> np.random.Generator:
    """Set a PCG64 generator to one row of ``pcg64_states``, an array or the
    list of its ``.tolist()``; returns it."""
    state_hi, state_lo, inc_hi, inc_lo = state.tolist() if isinstance(state, np.ndarray) else state
    rng.bit_generator.state = {
        "bit_generator": "PCG64", "has_uint32": 0, "uinteger": 0,
        "state": {"state": state_hi << 64 | state_lo, "inc": inc_hi << 64 | inc_lo}}
    return rng


def init_params(cfg: ModelConfig) -> ModelParams:
    """Zero-mean Gaussian weights with std sqrt(2 / fan_in); zero biases."""
    rng = np.random.default_rng(cfg.init_seed)
    weights, biases = [], []
    for fan_in, fan_out in cfg.layer_dims():
        weights.append(rng.normal(0.0, np.sqrt(2.0 / fan_in), size=(fan_in, fan_out)))
        biases.append(np.zeros(fan_out))
    return ModelParams(config=cfg, weights=weights, biases=biases)


def softmax(logits: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Softmax over the last axis via max subtraction, into ``out`` if given;
    stable for logits up to ~1e308.  The row max reduces the leading axis of a
    transposed copy: a max is exact in any order, and the signed zero or NaN
    it picks cannot change ``exp(l - max)``."""
    e = np.subtract(logits, np.maximum.reduce(logits.T.copy()).T[..., None], out=out)
    np.exp(e, out=e)
    e /= np.add.reduce(e, axis=-1, keepdims=True)
    return e


def forward(params: ModelParams, batch: np.ndarray, train: bool = False,
            dropout_seed=None) -> tuple[np.ndarray, ForwardCache]:
    """Run the network over a batch, returning posteriors and a backward cache.

    In train mode, inverted dropout with the config's keep probability is
    applied to every hidden activation, seeded by ``dropout_seed``; eval mode
    applies no dropout and no scaling.  For stacked parameters the batch and
    the dropout masks are shared by every member and the outputs gain a
    leading member axis.  The cache is a new workspace for the batch.
    """
    batch = _checked_batch(params, batch)
    cache = ForwardCache(params, len(batch), train)
    if train:
        cache.draw_masks(np.random.default_rng(dropout_seed))
    return forward_layers(cache, batch), cache


def _checked_batch(params: ModelParams, batch) -> np.ndarray:
    """``batch`` as float64, if it is a finite (rows, input_dim) array."""
    batch = np.asarray(batch, dtype=np.float64)
    if batch.ndim != 2 or batch.shape[1] != params.config.input_dim:
        raise ValidationError(f"batch shape {batch.shape} incompatible with input_dim "
                              f"{params.config.input_dim}")
    if not np.isfinite(batch).all():
        raise ValidationError("non-finite input")
    return batch


def forward_layers(cache: ForwardCache, batch: np.ndarray) -> np.ndarray:
    """``forward`` on a trusted float64 batch of the workspace's rows, with its
    dropout masks, written into ``cache``; returns its posteriors.  Nothing is
    checked."""
    params, keep = cache.params, cache.params.config.dropout_keep_prob
    cache.inputs[0] = a = batch
    for weights, bias_row, z, activation, mask in cache.forward_ops:
        np.matmul(a, weights, out=z)
        z += bias_row
        a = np.maximum(z, 0.0, out=activation)
        if mask is not None:
            a *= mask
            a /= keep
    np.matmul(a, params.weights[-1], out=cache.logits)
    cache.logits += params.bias_rows[-1]
    return softmax(cache.logits, out=cache.posteriors)


def backward(cache: ForwardCache, logit_grads: np.ndarray) -> np.ndarray:
    """Chain the upstream gradient at the output logits back to all parameters.

    Exact analytic chain rule through the dropout masks recorded in the cache.
    Returns the gradient packed like ``ModelParams.flat`` (per member for a
    stack): the workspace's own ``grad``, which the next backward on it
    overwrites.  Each layer's gradient is written straight into its view.  A
    delta is gated by the sign of its activation, as by activation > 0: an
    activation is max(z, +0.0) * mask / keep with z = a.W + b, never -0.0 as
    a bias starts at +0.0 and b + v is -0.0 only if both are, and a NaN one
    has made its row's whole delta NaN before the gate.
    """
    if logit_grads.shape != cache.logits.shape:
        raise ValidationError(f"upstream gradient shape {logit_grads.shape} != logits "
                              f"{cache.logits.shape}")
    keep, grads = cache.params.config.dropout_keep_prob, cache.grads
    dz = logit_grads  # upstream gradient of the current layer's output
    for bias_grad, weight_grad, inputs_t, weights_t, delta, activation, gate in cache.backward_ops:
        np.add.reduce(dz, axis=-2, out=bias_grad)
        np.matmul(inputs_t, dz, out=weight_grad)
        dz = np.matmul(dz, weights_t, out=delta)
        dz *= np.sign(activation, out=gate)
        if cache.dropout:
            dz /= keep
    np.add.reduce(dz, axis=-2, out=grads.biases[0])
    np.matmul(cache.inputs[0].swapaxes(-1, -2), dz, out=grads.weights[0])
    return cache.grad


def _eval_blocks(params: ModelParams, n: int) -> tuple[ForwardCache, list]:
    """An eval workspace to score ``n`` rows (per seed, for a stage's (S, A, P)
    stack of S seeds) and the slices of its equal blocks, of ``EVAL_BLOCK // S``
    rows but at least 2 and at most ``n``, the last ending at row ``n``: a row
    gets the same BLAS bits in any block of two or more rows, as in one pass
    over all ``n``, but numpy scores a lone row by matrix-vector product."""
    block = min(n, max(2, EVAL_BLOCK // math.prod(params.flat.shape[:-2])))
    starts = (min(lo, n - block) for lo in range(0, n, block or 1))
    return ForwardCache(params, block), [slice(lo, lo + block) for lo in starts]


@np.errstate(over="ignore", invalid="ignore")  # each caller rejects a non-finite row
def _blockwise(params: ModelParams, x, take) -> np.ndarray:
    """``take(cache)`` after each ``_eval_blocks`` pass over ``x``, as one array."""
    x = _checked_batch(params, x)
    cache, blocks = _eval_blocks(params, len(x))
    out = np.empty(take(cache).shape[:-2] + (len(x), take(cache).shape[-1]))
    for rows in blocks:
        forward_layers(cache, x[rows])
        out[..., rows, :] = take(cache)
    return out


def predict(params: ModelParams, ds) -> np.ndarray:
    """Eval-mode posteriors over a whole dataset, order-preserving."""
    return _blockwise(params, ds.X, lambda cache: cache.posteriors)


def penultimate_features(params: ModelParams, ds) -> np.ndarray:
    """Last-hidden-layer activations per example, eval mode."""
    if not params.config.hidden_sizes:
        raise ValidationError("model has no hidden layer")
    return _blockwise(params, ds.X, lambda cache: cache.inputs[-1])


def fingerprint(obj) -> str:
    """First 16 hex digits of a SHA-256 over a stable byte stream of ``obj``.

    Parameters stream as checkpoint header then ``flat``; a dataset as id, group
    id, label and feature row per example; a web corpus as query id and label
    per bag, each followed by id and feature row per member of the bag.  Text
    and numbers stream as UTF-8 text, arrays as little-endian float64, bytes as
    themselves.  A dataset is hashed 512 rows and a corpus ``FINGERPRINT_BAGS``
    bags at a time, each chunk's parts made in C from the columns.
    """
    h = hashlib.sha256()
    if isinstance(obj, ModelParams):
        h.update(_header_bytes(obj.config))
        h.update(np.ascontiguousarray(obj.flat, dtype="<f8").reshape(-1))
    elif isinstance(obj, Dataset):
        for at in (slice(lo, lo + 512) for lo in range(0, len(obj), 512)):
            h.update(b"".join(_parts(obj.X[at], obj.ids[at], obj.group_ids[at],
                                     map(str, obj.y[at].tolist()))))
    elif isinstance(obj, WebCorpus):
        offsets, labels = obj.offsets.tolist(), obj.labels.tolist()
        for lo in range(0, len(labels), FINGERPRINT_BAGS):
            hi = min(lo + FINGERPRINT_BAGS, len(labels))
            first, last = offsets[lo], offsets[hi]
            parts = _parts(obj.X[first:last], obj.member_ids[first:last])
            for b in range(hi - 1, lo - 1, -1):  # each bag's query id and label before its members
                parts.insert(2 * (offsets[b] - first), f"{obj.query_ids[b]}{labels[b]}".encode())
            h.update(b"".join(parts))
    else:
        h.update(obj if isinstance(obj, bytes) else str(obj).encode())
    return h.hexdigest()[:16]


def _parts(x: np.ndarray, *texts) -> list:
    """Per row of ``x``: its string in each column of ``texts`` as UTF-8, then its bytes."""
    width = len(texts) + 1
    parts = [b""] * (width * len(x))
    for i, column in enumerate(texts):
        parts[i::width] = map(str.encode, column)
    rows = np.ascontiguousarray(x, dtype="<f8").view(f"V{8 * x.shape[1]}")  # one void per row
    parts[width - 1::width] = rows[:, 0].tolist()
    return parts


# ---------------------------------------------------------------------------
# Checkpointing
# ---------------------------------------------------------------------------
# Layout: magic "WSLCKPT1", uint64 little-endian header length, JSON header
# {config, layer shapes, byte offsets}, then ModelParams.flat as little-endian
# float64: layers in order, weights then bias per layer.

def _header_bytes(cfg: ModelConfig) -> bytes:
    layers = []
    offset = 0
    for fan_in, fan_out in cfg.layer_dims():
        layers.append({
            "weight_shape": [fan_in, fan_out],
            "weight_offset": offset,
            "bias_shape": [fan_out],
            "bias_offset": offset + fan_in * fan_out * 8,
        })
        offset += (fan_in + 1) * fan_out * 8
    return canonical_json({"config": asdict(cfg), "layers": layers}).encode("utf-8")


def save_checkpoint(params: ModelParams, path: str | Path) -> bytes:
    """Write ``params`` to ``path`` in the layout above; return the bytes written."""
    header = _header_bytes(params.config)
    blob = b"".join([CHECKPOINT_MAGIC, struct.pack("<Q", len(header)), header,
                     params.flat.astype("<f8", copy=False).tobytes()])
    Path(path).write_bytes(blob)
    return blob


def load_checkpoint(path: str | Path) -> ModelParams:
    """Read a checkpoint back; round-trip is value-exact for every weight.

    The header must be exactly the one ``save_checkpoint`` writes for its
    config, and the payload exactly the packed arrays that header describes;
    any other blob raises CheckpointError naming the path.
    """
    try:
        with open(path, "rb") as fh:
            blob = fh.read()
    except OSError as exc:
        raise CheckpointError(f"{path}: cannot read: {exc.strerror or exc}") from None
    if len(blob) < 16:
        raise CheckpointError(f"{path}: {len(blob)} bytes, shorter than the "
                              "16-byte preamble")
    if blob[:8] != CHECKPOINT_MAGIC:
        raise CheckpointError(f"{path}: bad magic {blob[:8]!r}")
    (header_len,) = struct.unpack("<Q", blob[8:16])
    if header_len > len(blob) - 16:
        raise CheckpointError(f"{path}: header length {header_len} runs past the "
                              f"end of the {len(blob)}-byte file")
    header = blob[16:16 + header_len]
    with named(f"{path}: malformed header: ", CheckpointError, (ValueError, KeyError, TypeError)):
        cfg = ModelConfig(**json.loads(header.decode("utf-8"))["config"])
    if header != _header_bytes(cfg):
        raise CheckpointError(f"{path}: layer shapes or offsets do not match the "
                              "packed layout of the config")
    payload = blob[16 + header_len:]
    size = 8 * cfg.param_count()
    if len(payload) != size:
        raise CheckpointError(f"{path}: payload is {len(payload)} bytes, the "
                              f"layers need {size}")
    values = np.frombuffer(payload, dtype="<f8").astype(np.float64)
    if not np.isfinite(values).all():
        raise CheckpointError(f"{path}: non-finite parameter")
    return ModelParams._from_flat(cfg, values)
