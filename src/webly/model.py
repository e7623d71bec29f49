"""Feedforward softmax classifier with analytic forward/backward passes.

Hidden layers use ReLU with inverted dropout (train-time scaling by 1/keep,
nothing at eval), where keep is the model config's ``dropout_keep_prob``; the
output layer is a softmax computed in the max-subtracted stable form.
Gradients are hand-derived and checked against finite differences in the test
suite.  Everything runs in float64.

A model's parameters are one flat vector in checkpoint order, with per-layer
views; ``backward`` returns its gradient in the same layout.  Shapes and
finiteness are checked when parameters are built or loaded, not per call.
"""

from __future__ import annotations

import hashlib
import json
import struct
from dataclasses import dataclass, asdict
from itertools import chain, islice
from pathlib import Path

import numpy as np

from .data import Dataset, WebCorpus, canonical_json
from .errors import CheckpointError, ValidationError

CHECKPOINT_MAGIC = b"WSLCKPT1"
INIT_SCALE_RULE = "sqrt_2_over_fan_in"


@dataclass
class ModelConfig:
    input_dim: int
    hidden_sizes: list[int]
    num_classes: int
    dropout_keep_prob: float = 0.8
    init_seed: int = 0
    init_scale: str = INIT_SCALE_RULE

    def __post_init__(self):
        if self.input_dim < 1:
            raise ValidationError("input_dim must be >= 1")
        if self.num_classes < 2:
            raise ValidationError("num_classes must be >= 2")
        if any(h < 1 for h in self.hidden_sizes):
            raise ValidationError("hidden sizes must be positive")
        if not 0.0 < self.dropout_keep_prob <= 1.0:
            raise ValidationError("dropout_keep_prob must lie in (0, 1]")
        if self.init_scale != INIT_SCALE_RULE:
            raise ValidationError(f"unknown init_scale rule {self.init_scale!r}")

    def layer_dims(self) -> list[tuple[int, int]]:
        """(fan_in, fan_out) per layer, chaining input through hidden to output."""
        sizes = [self.input_dim] + list(self.hidden_sizes) + [self.num_classes]
        return list(zip(sizes[:-1], sizes[1:]))


class ModelParams:
    """Every weight and bias of a model in one float64 vector, ``flat``.

    ``flat`` packs the layers in checkpoint order (w0, b0, w1, b1, ...), each
    weight matrix row-major; ``weights[l]`` (fan_in x fan_out) and
    ``biases[l]`` are views into it, so an in-place write to one changes
    ``flat``.  Shapes and finiteness are checked once, at construction;
    training then updates ``flat`` in place.
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
        self.config, self.flat = config, flat
        self.weights, self.biases = _layer_views(flat, dims)

    @classmethod
    def _from_flat(cls, config: ModelConfig, flat: np.ndarray) -> "ModelParams":
        """Adopt a finite packed vector of the config's size, without copying."""
        params = cls.__new__(cls)
        params.config, params.flat = config, flat
        params.weights, params.biases = _layer_views(flat, config.layer_dims())
        return params

    def copy(self) -> "ModelParams":
        return ModelParams._from_flat(self.config, self.flat.copy())


def _layer_views(vec: np.ndarray, dims) -> tuple[tuple, tuple]:
    """Per-layer weight and bias views into a vector packed like ``flat``."""
    weights, biases, pos = [], [], 0
    for fan_in, fan_out in dims:
        end = pos + fan_in * fan_out
        weights.append(vec[pos:end].reshape(fan_in, fan_out))
        biases.append(vec[end:end + fan_out])
        pos = end + fan_out
    return tuple(weights), tuple(biases)


@dataclass
class ForwardCache:
    """Intermediates from a forward pass, consumed by backward()."""

    params: ModelParams
    inputs: list[np.ndarray]          # input to each layer
    pre_activations: list[np.ndarray]  # hidden pre-activations only
    dropout_masks: list[np.ndarray | None]
    logits: np.ndarray


def init_params(cfg: ModelConfig) -> ModelParams:
    """Zero-mean Gaussian weights with std sqrt(2 / fan_in); zero biases."""
    rng = np.random.default_rng(cfg.init_seed)
    weights, biases = [], []
    for fan_in, fan_out in cfg.layer_dims():
        weights.append(rng.normal(0.0, np.sqrt(2.0 / fan_in), size=(fan_in, fan_out)))
        biases.append(np.zeros(fan_out))
    return ModelParams(config=cfg, weights=weights, biases=biases)


def softmax(logits: np.ndarray) -> np.ndarray:
    """Row-wise softmax via max subtraction; stable for logits up to ~1e308."""
    shifted = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


def forward(params: ModelParams, batch: np.ndarray, train: bool = False,
            dropout_seed=None) -> tuple[np.ndarray, ForwardCache]:
    """Run the network over a batch, returning posteriors and a backward cache.

    In train mode, inverted dropout with the config's keep probability is
    applied to every hidden activation, seeded by ``dropout_seed``; eval mode
    applies no dropout and no scaling.
    """
    batch = np.asarray(batch, dtype=np.float64)
    if batch.ndim != 2 or batch.shape[1] != params.config.input_dim:
        raise ValidationError(
            f"batch shape {batch.shape} incompatible with input_dim "
            f"{params.config.input_dim}"
        )
    if not np.all(np.isfinite(batch)):
        raise ValidationError("non-finite input")
    keep = params.config.dropout_keep_prob
    rng = np.random.default_rng(dropout_seed) if train and keep < 1.0 else None

    n_hidden = len(params.config.hidden_sizes)
    inputs, pre_acts, masks = [], [], []
    a = batch
    for l in range(n_hidden):
        inputs.append(a)
        z = a @ params.weights[l] + params.biases[l]
        pre_acts.append(z)
        h = np.maximum(z, 0.0)
        if rng is not None:
            mask = (rng.random(h.shape) < keep).astype(np.float64)
            h = h * mask / keep
            masks.append(mask)
        else:
            masks.append(None)
        a = h
    inputs.append(a)
    logits = a @ params.weights[n_hidden] + params.biases[n_hidden]
    posteriors = softmax(logits)
    cache = ForwardCache(params=params, inputs=inputs, pre_activations=pre_acts,
                         dropout_masks=masks, logits=logits)
    return posteriors, cache


def backward(cache: ForwardCache, logit_grads: np.ndarray) -> np.ndarray:
    """Chain the upstream gradient at the output logits back to all parameters.

    Exact analytic chain rule through the dropout masks recorded in the cache.
    Returns one gradient vector packed like ``ModelParams.flat``.
    """
    params = cache.params
    n_layers = len(params.weights)
    if logit_grads.shape != cache.logits.shape:
        raise ValidationError(
            f"upstream gradient shape {logit_grads.shape} != logits "
            f"{cache.logits.shape}"
        )

    grad = np.empty_like(params.flat)
    w_grads, b_grads = _layer_views(grad, params.config.layer_dims())
    g = logit_grads
    w_grads[-1][...] = cache.inputs[-1].T @ g
    b_grads[-1][...] = g.sum(axis=0)
    upstream = g @ params.weights[-1].T
    keep = params.config.dropout_keep_prob
    for l in range(n_layers - 2, -1, -1):
        mask = cache.dropout_masks[l]
        if mask is not None:
            upstream = upstream * mask / keep
        dz = upstream * (cache.pre_activations[l] > 0)
        w_grads[l][...] = cache.inputs[l].T @ dz
        b_grads[l][...] = dz.sum(axis=0)
        if l > 0:
            upstream = dz @ params.weights[l].T
    return grad


def predict(params: ModelParams, ds) -> np.ndarray:
    """Eval-mode posteriors over a whole dataset, order-preserving."""
    posteriors, _ = forward(params, ds.X, train=False)
    return posteriors


def penultimate_features(params: ModelParams, ds) -> np.ndarray:
    """Last-hidden-layer activations per example, eval mode."""
    if not params.config.hidden_sizes:
        raise ValidationError("model has no hidden layer")
    _, cache = forward(params, ds.X, train=False)
    return cache.inputs[-1]


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


def load_checkpoint(path: str | Path,
                    expect_num_classes: int | None = None) -> ModelParams:
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
        dims = cfg.layer_dims()
        if not all(isinstance(v, int) for dim in dims for v in dim):
            raise TypeError("layer sizes must be integers")
    except (ValueError, KeyError, TypeError) as exc:
        raise CheckpointError(f"{path}: malformed header: {exc}") from None
    if expect_num_classes is not None and cfg.num_classes != expect_num_classes:
        raise CheckpointError(f"{path}: checkpoint has {cfg.num_classes} classes, "
                              f"expected {expect_num_classes}")
    if header != _header_bytes(cfg):
        raise CheckpointError(f"{path}: layer shapes or offsets do not match the "
                              "packed layout of the config")
    payload = blob[16 + header_len:]
    size = 8 * sum((fan_in + 1) * fan_out for fan_in, fan_out in dims)
    if len(payload) != size:
        raise CheckpointError(f"{path}: payload is {len(payload)} bytes, the "
                              f"layers need {size}")
    values = np.frombuffer(payload, dtype="<f8").astype(np.float64)
    if not np.isfinite(values).all():
        raise CheckpointError(f"{path}: non-finite parameter")
    return ModelParams._from_flat(cfg, values)
