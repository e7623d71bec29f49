"""Spans recorded from outside the program, and the per-module metrics.

The traced run patches public module-level names of ``webly`` that the code
looks up at call time (``train.forward``, ``cli.run_cell``, ...).  A call made
through a patched name opens a span: name, parent, start, end and a few
attributes (rows, arm, bytes).  Spans stay in memory, with parent links, until
the run ends.  A name that no longer exists is recorded as missing, and every
metric that depends on it is reported absent instead of failing the run; so
is a span whose attributes can no longer be read from the call.

A span's self time is its duration minus the durations of its direct
children; spans never overlap their siblings because the program is serial.
Span names start with their layer (``train.``, ``model.``, ...), which is how
``account.<layer>_s`` attributes self time to the modules of ``src/webly``.
"""

from __future__ import annotations

import math
import os
import time
from contextlib import contextmanager

LAYERS = ("cli", "data", "train", "model", "loss", "noise", "metrics")
ARMS = ("BL1", "BL2", "Proposed")
VERBS = {"synth": "cli.synth_s", "estimate-noise": "cli.estimate_noise_s",
         "eval": "cli.eval_s"}


class Tracer:
    """Span recorder plus the set of module attributes it has patched."""

    def __init__(self):
        self.spans: list[list] = []      # [name, parent, start, end, attrs]
        self.installed: set[str] = set()
        self.missing: set[str] = set()
        self.broken: set[str] = set()
        self._stack: list[int] = []
        self._patched: list[tuple] = []

    def open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, parent, time.perf_counter(), 0.0, None])
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][3] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str, attrs: dict | None = None):
        idx = self.open(name)
        try:
            yield
        finally:
            self.close(idx)
            self.spans[idx][4] = attrs

    def wrap(self, module, attr: str, name: str, attrs_fn=None) -> None:
        """Replace ``module.attr`` by a wrapper that records span ``name``."""
        fn = getattr(module, attr, None)
        if not callable(fn):
            self.missing.add(f"{module.__name__}.{attr}")
            return
        tracer = self

        def traced(*args, **kwargs):
            idx = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(idx)
            if attrs_fn is not None:
                try:
                    tracer.spans[idx][4] = attrs_fn(args, kwargs, result)
                except Exception:  # the call's shape changed; keep running
                    tracer.broken.add(name)
            return result

        traced.__wrapped__ = fn
        setattr(module, attr, traced)
        self._patched.append((module, attr, fn))
        self.installed.add(name)

    def unwrap_all(self) -> None:
        for module, attr, fn in reversed(self._patched):
            setattr(module, attr, fn)
        self._patched.clear()

    def take(self) -> list[list]:
        """Hand over the spans recorded so far and start a fresh list."""
        spans, self.spans = self.spans, []
        return spans


def _arg(args, kwargs, i: int, name: str, default=None):
    return args[i] if len(args) > i else kwargs.get(name, default)


def _forward_attrs(args, kwargs, result):
    return {"rows": len(_arg(args, kwargs, 1, "batch")),
            "train": bool(_arg(args, kwargs, 2, "train", False))}


def _backward_attrs(args, kwargs, result):
    return {"rows": len(_arg(args, kwargs, 1, "logit_grads"))}


def _stage_attrs(args, kwargs, result):
    n = len(_arg(args, kwargs, 1, "ds"))
    cfg = _arg(args, kwargs, 2, "cfg")
    return {"steps": cfg.epochs * math.ceil(n / cfg.batch_size)}


def _flatten_attrs(args, kwargs, result):
    return {"rows": len(result)}


def _cell_attrs(args, kwargs, result):
    return {"arm": _arg(args, kwargs, 1, "arm")}


def _file_size(i: int, name: str):
    def attrs(args, kwargs, result):
        return {"bytes": os.path.getsize(_arg(args, kwargs, i, name))}
    return attrs


def install(tracer: Tracer, webly) -> None:
    """Patch the public names each layer is entered through.

    ``webly`` is a namespace holding the imported modules ``cli``, ``data``,
    ``model``, ``noise``, ``train`` and ``metrics``.
    """
    cli, model, noise, train, metrics = (webly.cli, webly.model, webly.noise,
                                         webly.train, webly.metrics)
    for mod in (train, noise, model):
        tracer.wrap(mod, "forward", "model.forward", _forward_attrs)
    tracer.wrap(train, "backward", "model.backward", _backward_attrs)
    tracer.wrap(train, "modulated_cross_entropy", "loss.call")
    tracer.wrap(train, "sgd_momentum_step", "train.sgd_update")
    tracer.wrap(train, "train_stage", "train.stage", _stage_attrs)
    for mod in (train, cli):
        tracer.wrap(mod, "estimate_transition", "noise.estimate")
    for mod in (train, noise):
        tracer.wrap(mod, "flatten_web", "data.flatten", _flatten_attrs)
    tracer.wrap(cli, "run_cell", "cli.run_cell", _cell_attrs)
    tracer.wrap(cli, "build_cell_data", "data.build")
    tracer.wrap(cli, "build_synth_data", "data.build")
    tracer.wrap(cli, "save_web_corpus", "data.web_json_write",
                _file_size(1, "path"))
    tracer.wrap(cli, "load_web_corpus", "data.web_json_read",
                _file_size(0, "path"))
    tracer.wrap(cli, "write_dataset_csv", "data.csv_write")
    tracer.wrap(cli, "load_dataset", "data.csv_read")
    tracer.wrap(cli, "evaluate", "metrics.evaluate")
    tracer.wrap(metrics, "roc_auc_one_vs_rest", "metrics.auc")
    tracer.wrap(cli, "write_features_csv", "metrics.features_write")
    tracer.wrap(cli, "save_checkpoint", "model.checkpoint_write")
    tracer.wrap(cli, "load_checkpoint", "model.checkpoint_read")
    # Provenance fingerprints are private helpers today; any callable in the
    # cli namespace named like a fingerprint counts, so a merge keeps the span.
    found = False
    for attr in sorted(vars(cli)):
        if "fingerprint" in attr and callable(getattr(cli, attr)):
            tracer.wrap(cli, attr, "cli.fingerprint")
            found = True
    if not found:
        tracer.missing.add("cli.*fingerprint*")


# ---------------------------------------------------------------------------
# Metrics from the spans of one traced iteration
# ---------------------------------------------------------------------------

def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile; 0 for an empty sample."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


# metric name -> (unit, span names it needs)
METRICS = {
    "train.steps": ("count", ["train.stage"]),
    "train.sgd_update_us_p50": ("us", ["train.sgd_update"]),
    "train.sgd_update_us_p99": ("us", ["train.sgd_update"]),
    "train.self_s": ("s", ["train.stage"]),
    "train.oracle_stage_s": ("s", ["train.stage", "noise.estimate", "cli.run_cell"]),
    "train.web_stage_s": ("s", ["train.stage", "noise.estimate", "cli.run_cell"]),
    "train.clean_stage_s": ("s", ["train.stage", "noise.estimate", "cli.run_cell"]),
    "model.forward_calls": ("count", ["model.forward"]),
    "model.forward_train_us_p50": ("us", ["model.forward"]),
    "model.forward_train_us_p99": ("us", ["model.forward"]),
    "model.forward_eval_s": ("s", ["model.forward"]),
    "model.backward_us_p50": ("us", ["model.backward"]),
    "model.backward_us_p99": ("us", ["model.backward"]),
    "model.flops": ("count", ["model.forward", "model.backward"]),
    "model.achieved_gflops": ("GFLOP/s", ["model.forward", "model.backward"]),
    "model.checkpoint_write_s": ("s", ["model.checkpoint_write"]),
    "model.checkpoint_read_s": ("s", ["model.checkpoint_read"]),
    "loss.calls": ("count", ["loss.call"]),
    "loss.us_p50": ("us", ["loss.call"]),
    "loss.us_p99": ("us", ["loss.call"]),
    "loss.s": ("s", ["loss.call"]),
    "data.build_s": ("s", ["data.build"]),
    "data.flatten_calls": ("count", ["data.flatten"]),
    "data.flatten_s": ("s", ["data.flatten"]),
    "data.web_members": ("count", ["data.flatten"]),
    "data.web_json_write_s": ("s", ["data.web_json_write"]),
    "data.web_json_read_s": ("s", ["data.web_json_read"]),
    "data.web_json_bytes": ("bytes", ["data.web_json_write", "data.web_json_read"]),
    "data.csv_write_s": ("s", ["data.csv_write"]),
    "data.csv_read_s": ("s", ["data.csv_read"]),
    "noise.estimate_s": ("s", ["noise.estimate"]),
    "noise.members_scored": ("count", ["noise.estimate", "model.forward"]),
    "metrics.evaluate_s": ("s", ["metrics.evaluate"]),
    "metrics.auc_s": ("s", ["metrics.auc"]),
    "metrics.features_write_s": ("s", ["metrics.features_write"]),
    **{f"cli.cell_{arm}_s": ("s", ["cli.run_cell"]) for arm in ARMS},
    "cli.artifact_s": ("s", ["cli.run_cell"]),
    "cli.fingerprint_s": ("s", ["cli.fingerprint"]),
    **{metric: ("s", []) for metric in VERBS.values()},
    **{f"account.{layer}_s": ("s", []) for layer in LAYERS},
    "account.unattributed_s": ("s", []),
}


def iteration_metrics(spans: list[list], wall_s: float,
                      fwd_flops_per_row: int, bwd_flops_per_row: int) -> dict:
    """Per-module metrics of one traced iteration, keyed by metric name.

    ``spans`` holds only that iteration's spans; its roots are the
    benchmark's own ``cli.verb.<verb>`` spans.
    """
    n = len(spans)
    dur = [s[3] - s[2] for s in spans]
    child = [0.0] * n
    cell = [-1] * n          # enclosing cli.run_cell span
    in_estimate = [False] * n
    nested = [False] * n     # inside a span of the same name
    for i, (name, parent, _, _, _) in enumerate(spans):
        if parent >= 0:
            child[parent] += dur[i]
            cell[i] = cell[parent]
            in_estimate[i] = in_estimate[parent]
            p = parent
            while p >= 0 and not nested[i]:
                nested[i] = spans[p][0] == name
                p = spans[p][1]
        if name == "cli.run_cell":
            cell[i] = i
        elif name == "noise.estimate":
            in_estimate[i] = True
    self_t = [dur[i] - child[i] for i in range(n)]

    by_name: dict[str, list[int]] = {}
    for i, s in enumerate(spans):
        by_name.setdefault(s[0], []).append(i)

    def idx(name):
        return by_name.get(name, [])

    def attr(i, key):
        return (spans[i][4] or {}).get(key, 0)

    def total(name):
        return sum(dur[i] for i in idx(name) if not nested[i])

    def attr_sum(name, key):
        return sum(attr(i, key) for i in idx(name))

    def us(indices):
        return [dur[i] * 1e6 for i in indices]

    fwd = idx("model.forward")
    fwd_train = [i for i in fwd if attr(i, "train")]
    bwd = idx("model.backward")
    flops = (fwd_flops_per_row * sum(attr(i, "rows") for i in fwd)
             + bwd_flops_per_row * sum(attr(i, "rows") for i in bwd))
    model_time = sum(dur[i] for i in fwd) + sum(dur[i] for i in bwd)

    # Stages of one cell in start order: the last fine-tunes on clean data,
    # any stage ending before a transition estimate trained the oracle, and
    # the rest pretrain on web data.  A shared oracle stage drops out here.
    def group(i):
        return cell[i] if cell[i] >= 0 else spans[i][1]

    stage_s = {"oracle": 0.0, "web": 0.0, "clean": 0.0}
    groups: dict[int, list[int]] = {}
    for i in idx("train.stage"):
        groups.setdefault(group(i), []).append(i)
    for key, stages in groups.items():
        estimates = [j for j in idx("noise.estimate") if group(j) == key]
        for pos, i in enumerate(stages):
            if pos == len(stages) - 1:
                kind = "clean"
            elif any(spans[i][3] <= spans[j][2] for j in estimates):
                kind = "oracle"
            else:
                kind = "web"
            stage_s[kind] += dur[i]

    account = {layer: 0.0 for layer in LAYERS}
    for i, s in enumerate(spans):
        account[s[0].split(".", 1)[0]] += self_t[i]
    roots = sum(dur[i] for i in range(n) if spans[i][1] < 0)
    verb_s = {metric: sum(dur[i] for i in idx(f"cli.verb.{verb}"))
              for verb, metric in VERBS.items()}

    return {
        "train.steps": attr_sum("train.stage", "steps"),
        "train.sgd_update_us_p50": percentile(us(idx("train.sgd_update")), 50),
        "train.sgd_update_us_p99": percentile(us(idx("train.sgd_update")), 99),
        "train.self_s": sum(self_t[i] for i in idx("train.stage")),
        "train.oracle_stage_s": stage_s["oracle"],
        "train.web_stage_s": stage_s["web"],
        "train.clean_stage_s": stage_s["clean"],
        "model.forward_calls": len(fwd),
        "model.forward_train_us_p50": percentile(us(fwd_train), 50),
        "model.forward_train_us_p99": percentile(us(fwd_train), 99),
        "model.forward_eval_s": sum(dur[i] for i in fwd if not attr(i, "train")),
        "model.backward_us_p50": percentile(us(bwd), 50),
        "model.backward_us_p99": percentile(us(bwd), 99),
        "model.flops": flops,
        "model.achieved_gflops": flops / model_time / 1e9 if model_time else 0.0,
        "model.checkpoint_write_s": total("model.checkpoint_write"),
        "model.checkpoint_read_s": total("model.checkpoint_read"),
        "loss.calls": len(idx("loss.call")),
        "loss.us_p50": percentile(us(idx("loss.call")), 50),
        "loss.us_p99": percentile(us(idx("loss.call")), 99),
        "loss.s": total("loss.call"),
        "data.build_s": total("data.build"),
        "data.flatten_calls": len(idx("data.flatten")),
        "data.flatten_s": total("data.flatten"),
        "data.web_members": attr_sum("data.flatten", "rows"),
        "data.web_json_write_s": total("data.web_json_write"),
        "data.web_json_read_s": total("data.web_json_read"),
        "data.web_json_bytes": (attr_sum("data.web_json_write", "bytes")
                                + attr_sum("data.web_json_read", "bytes")),
        "data.csv_write_s": total("data.csv_write"),
        "data.csv_read_s": total("data.csv_read"),
        "noise.estimate_s": total("noise.estimate"),
        "noise.members_scored": sum(attr(i, "rows") for i in fwd if in_estimate[i]),
        "metrics.evaluate_s": total("metrics.evaluate"),
        "metrics.auc_s": total("metrics.auc"),
        "metrics.features_write_s": total("metrics.features_write"),
        **{f"cli.cell_{arm}_s": sum(dur[i] for i in idx("cli.run_cell")
                                    if attr(i, "arm") == arm)
           for arm in ARMS},
        "cli.artifact_s": sum(self_t[i] for i in idx("cli.run_cell")),
        "cli.fingerprint_s": total("cli.fingerprint"),
        **verb_s,
        **{f"account.{layer}_s": account[layer] for layer in LAYERS},
        "account.unattributed_s": wall_s - roots,
    }


def absent_metrics(tracer: Tracer) -> list[str]:
    """Metrics whose spans could not all be installed or read."""
    return [metric for metric, (_, needs) in METRICS.items()
            if any(name not in tracer.installed or name in tracer.broken
                   for name in needs)]


def write_spans(spans: list[list], path) -> None:
    """One CSV line per span: index, parent, name, start, end (seconds)."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("index,parent,name,start_s,end_s\n")
        for i, (name, parent, t0, t1, _) in enumerate(spans):
            fh.write(f"{i},{parent},{name},{t0:.9f},{t1:.9f}\n")
