"""Feedforward softmax classifier with analytic forward/backward passes.

Hidden layers use ReLU with inverted dropout (train-time scaling by 1/keep,
nothing at eval), where keep is the model config's ``dropout_keep_prob``; the
output layer is a softmax computed in the max-subtracted stable form.
Gradients are hand-derived and checked against finite differences in the test
suite.  Everything runs in float64.

A model's parameters are one flat vector in checkpoint order, with per-layer
views; ``backward`` returns its gradient in the same layout.  Shapes and
finiteness are checked when parameters are built or loaded, not per call.

Models of one config can be stacked: ``flat`` is then (M, P), one row per
member, the layer views gain a leading member axis, and ``forward`` runs every
member over one shared batch (one dropout draw for the stack), giving
(M, batch, K) posteriors.  Each member's numbers are those it would get alone.

A training ``forward`` draws every hidden layer's dropout mask with one call
(``dropout_masks``), then runs the unchecked ``forward_layers``, as a training
step does directly; ``predict`` and ``penultimate_features`` score a dataset
in row blocks of ``EVAL_BLOCK``.  Both give the numbers of the plain form,
bit for bit.
"""

from __future__ import annotations

import hashlib
import json
import struct
from dataclasses import dataclass, asdict
from itertools import chain, islice
from pathlib import Path

import numpy as np

from .data import Dataset, WebCorpus, canonical_json, check_fields, integer, integers, real
from .errors import CheckpointError, ValidationError

CHECKPOINT_MAGIC = b"WSLCKPT1"
INIT_SCALE_RULE = "sqrt_2_over_fan_in"
EVAL_BLOCK = 512  # rows per forward call in predict and penultimate_features


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

    def layer_dims(self) -> list[tuple[int, int]]:
        """(fan_in, fan_out) per layer, chaining input through hidden to output."""
        sizes = [self.input_dim] + list(self.hidden_sizes) + [self.num_classes]
        return list(zip(sizes[:-1], sizes[1:]))


class ModelParams:
    """Every weight and bias of a model in one float64 vector, ``flat``.

    ``flat`` packs the layers in checkpoint order (w0, b0, w1, b1, ...), each
    weight matrix row-major; ``weights[l]`` (fan_in x fan_out) and
    ``biases[l]`` are views into it, so an in-place write to one changes
    ``flat``.  ``weights_t[l]`` (fan_out x fan_in) and ``bias_rows[l]``
    (1 x fan_out) are the same memory transposed and as a broadcast row.
    Shapes and finiteness are checked once, at construction; training then
    updates ``flat`` in place.  A stack (``stack``) holds models of one
    config with ``flat`` of shape (M, P) and views with a leading M axis.
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
        """A copy of models that share one config, ``flat`` of shape (M, P)."""
        config = members[0].config
        if any(m.config != config for m in members):
            raise ValidationError("stacked models must share one config")
        return cls._from_flat(config, np.stack([m.flat for m in members]))

    def unstack(self) -> list["ModelParams"]:
        """A copy of each member of a stack, in order (of a single model, a
        one-element list)."""
        return [ModelParams._from_flat(self.config, row.copy())
                for row in np.atleast_2d(self.flat)]


@dataclass
class ForwardCache:
    """Intermediates from a forward pass, consumed by backward()."""

    params: ModelParams
    inputs: list[np.ndarray]          # input to each layer
    pre_activations: list[np.ndarray]  # hidden pre-activations only
    dropout_masks: list[np.ndarray | None]  # 1.0 where kept, else 0.0
    logits: np.ndarray


def seeded_rng(seed) -> np.random.Generator:
    """``np.random.default_rng(seed)``: the same stream, built faster.

    numpy seeds a ``SeedSequence`` with the uint32 words of an int or a tuple
    of ints; an int below 2**32 is one word, itself, so such seeds are passed
    as that word array directly.  Any other seed goes to ``default_rng``.
    """
    words = seed if isinstance(seed, tuple) else (seed,)
    if not all(type(v) is int and 0 <= v < 2**32 for v in words):
        return np.random.default_rng(seed)
    return np.random.Generator(np.random.PCG64(
        np.random.SeedSequence(np.array(words, dtype=np.uint32))))


def init_params(cfg: ModelConfig) -> ModelParams:
    """Zero-mean Gaussian weights with std sqrt(2 / fan_in); zero biases."""
    rng = np.random.default_rng(cfg.init_seed)
    weights, biases = [], []
    for fan_in, fan_out in cfg.layer_dims():
        weights.append(rng.normal(0.0, np.sqrt(2.0 / fan_in), size=(fan_in, fan_out)))
        biases.append(np.zeros(fan_out))
    return ModelParams(config=cfg, weights=weights, biases=biases)


def softmax(logits: np.ndarray) -> np.ndarray:
    """Softmax over the last axis via max subtraction; stable for logits up to
    ~1e308."""
    e = logits - logits.max(axis=-1, keepdims=True)
    np.exp(e, out=e)
    e /= e.sum(axis=-1, keepdims=True)
    return e


def forward(params: ModelParams, batch: np.ndarray, train: bool = False,
            dropout_seed=None) -> tuple[np.ndarray, ForwardCache]:
    """Run the network over a batch, returning posteriors and a backward cache.

    In train mode, inverted dropout with the config's keep probability is
    applied to every hidden activation, seeded by ``dropout_seed``; eval mode
    applies no dropout and no scaling.  For stacked parameters the batch and
    the dropout masks are shared by every member and the outputs gain a
    leading member axis.
    """
    batch = np.asarray(batch, dtype=np.float64)
    if batch.ndim != 2 or batch.shape[1] != params.config.input_dim:
        raise ValidationError(
            f"batch shape {batch.shape} incompatible with input_dim "
            f"{params.config.input_dim}"
        )
    if not np.isfinite(batch).all():
        raise ValidationError("non-finite input")
    masks = (dropout_masks(params.config, len(batch), dropout_seed) if train
             else [None] * len(params.config.hidden_sizes))
    return forward_layers(params, batch, masks)


def dropout_masks(config: ModelConfig, rows: int, seed) -> list[np.ndarray | None]:
    """Per hidden layer, a (rows, size) mask, 1.0 where kept (None if keep is 1),
    from one draw seeded like ``np.random.default_rng(seed)``: numpy fills it
    in order, so each block holds what a draw of its own shape would give."""
    hidden, keep = config.hidden_sizes, config.dropout_keep_prob
    masks = [None] * len(hidden)
    if keep < 1.0 and hidden:
        kept = (seeded_rng(seed).random(rows * sum(hidden)) < keep).astype(np.float64)
        pos = 0
        for l, size in enumerate(hidden):
            masks[l] = kept[pos:pos + rows * size].reshape(rows, size)
            pos += rows * size
    return masks


def forward_layers(params: ModelParams, batch: np.ndarray,
                   masks: list) -> tuple[np.ndarray, ForwardCache]:
    """``forward`` on a trusted float64 (rows, input_dim) batch with the given
    dropout masks (None where a layer keeps every unit); nothing is checked."""
    keep = params.config.dropout_keep_prob
    inputs, pre_acts = [], []
    a = batch
    for l, mask in enumerate(masks):
        inputs.append(a)
        z = a @ params.weights[l]
        z += params.bias_rows[l]
        pre_acts.append(z)
        a = np.maximum(z, 0.0)
        if mask is not None:
            a *= mask
            a /= keep
    inputs.append(a)
    logits = a @ params.weights[-1]
    logits += params.bias_rows[-1]
    posteriors = softmax(logits)
    cache = ForwardCache(params=params, inputs=inputs, pre_activations=pre_acts,
                         dropout_masks=masks, logits=logits)
    return posteriors, cache


def backward(cache: ForwardCache, logit_grads: np.ndarray) -> np.ndarray:
    """Chain the upstream gradient at the output logits back to all parameters.

    Exact analytic chain rule through the dropout masks recorded in the cache.
    Returns one gradient packed like ``ModelParams.flat`` (per member for a
    stack).
    """
    params = cache.params
    if logit_grads.shape != cache.logits.shape:
        raise ValidationError(
            f"upstream gradient shape {logit_grads.shape} != logits "
            f"{cache.logits.shape}"
        )
    keep = params.config.dropout_keep_prob
    lead = params.flat.shape[:-1]
    parts = []  # bias then weight gradient per layer, last layer first
    dz = logit_grads  # upstream gradient of the current layer's output
    for l in range(len(params.weights) - 1, -1, -1):
        if l < len(cache.pre_activations):
            dz = dz @ params.weights_t[l + 1]
            mask = cache.dropout_masks[l]
            if mask is not None:
                dz *= mask
                dz /= keep
            dz *= cache.pre_activations[l] > 0
        parts.append(dz.sum(axis=-2))
        parts.append((cache.inputs[l].swapaxes(-1, -2) @ dz).reshape(*lead, -1))
    return np.concatenate(parts[::-1], axis=-1)


def _blockwise(params: ModelParams, x: np.ndarray, take) -> np.ndarray:
    """``take(forward(params, rows))`` over row blocks of ``x`` of about
    EVAL_BLOCK rows, joined along the row axis.

    A row's numbers are those of one forward over all of ``x``: the BLAS
    matrix product gives a row the same bits in any block of two or more
    rows, but numpy scores a lone row by matrix-vector product, which rounds
    differently, so a last block of one row joins the block before it.
    """
    n = len(x)
    starts = list(range(0, n, EVAL_BLOCK)) or [0]
    if len(starts) > 1 and n - starts[-1] == 1:
        starts.pop()
    parts = [take(forward(params, x[lo:hi], train=False))
             for lo, hi in zip(starts, starts[1:] + [n])]
    return parts[0] if len(parts) == 1 else np.concatenate(parts, axis=-2)


def predict(params: ModelParams, ds) -> np.ndarray:
    """Eval-mode posteriors over a whole dataset, order-preserving."""
    return _blockwise(params, ds.X, lambda out: out[0])


def penultimate_features(params: ModelParams, ds) -> np.ndarray:
    """Last-hidden-layer activations per example, eval mode."""
    if not params.config.hidden_sizes:
        raise ValidationError("model has no hidden layer")
    return _blockwise(params, ds.X, lambda out: out[1].inputs[-1])


def fingerprint(obj) -> str:
    """First 16 hex digits of a SHA-256 over a stable byte stream of ``obj``.

    Parameters stream as checkpoint header then ``flat``; a dataset as id, group
    id, label and feature row per example; a web corpus as query id and label
    per bag, each followed by id and feature row per member of the bag.  Text
    and numbers stream as UTF-8 text, arrays as little-endian float64.
    """
    if isinstance(obj, ModelParams):
        parts = [_header_bytes(obj.config), obj.flat]
    elif isinstance(obj, Dataset):
        parts = chain.from_iterable(zip(obj.ids, obj.group_ids, obj.y.tolist(), obj.X))
    elif isinstance(obj, WebCorpus):
        members = zip(obj.member_ids, obj.X)
        parts = chain.from_iterable(
            chain((query_id, label), *islice(members, size)) for query_id, label, size
            in zip(obj.query_ids, obj.labels.tolist(), np.diff(obj.offsets).tolist()))
    else:
        parts = [obj]
    h = hashlib.sha256()
    for part in parts:
        h.update(np.ascontiguousarray(part, dtype="<f8") if isinstance(part, np.ndarray)
                 else part if isinstance(part, bytes) else str(part).encode())
    return h.hexdigest()[:16]


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


def save_checkpoint(params: ModelParams, path: str | Path) -> None:
    header = _header_bytes(params.config)
    with open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(struct.pack("<Q", len(header)))
        fh.write(header)
        fh.write(params.flat.astype("<f8", copy=False).tobytes())


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
    try:
        cfg = ModelConfig(**json.loads(header.decode("utf-8"))["config"])
    except (ValueError, KeyError, TypeError) as exc:
        raise CheckpointError(f"{path}: malformed header: {exc}") from None
    if header != _header_bytes(cfg):
        raise CheckpointError(f"{path}: layer shapes or offsets do not match the "
                              "packed layout of the config")
    payload = blob[16 + header_len:]
    size = 8 * sum((fan_in + 1) * fan_out for fan_in, fan_out in cfg.layer_dims())
    if len(payload) != size:
        raise CheckpointError(f"{path}: payload is {len(payload)} bytes, the "
                              f"layers need {size}")
    values = np.frombuffer(payload, dtype="<f8").astype(np.float64)
    if not np.isfinite(values).all():
        raise CheckpointError(f"{path}: non-finite parameter")
    return ModelParams._from_flat(cfg, values)
