"""Command-line entry point wiring the toolkit into reproducible experiments.

Verbs: ``synth`` writes a synthetic clean split plus a simulated web corpus;
``run`` executes experimental arms across seeds into a run directory, every
seed's arms trained together (``train.run_seeds``) on input files read once
per run, or on synthetic data built per seed;
``eval`` scores a checkpoint on a dataset; ``estimate-noise`` runs transition
estimation standalone; ``report`` re-aggregates summaries from existing runs.

Configuration is a single JSON document; all defaults are materialized into
``effective_config.json`` inside the run directory so a run can be reproduced
exactly by feeding that file back in.
"""

from __future__ import annotations

import argparse
import copy
import csv
import json
import shutil
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .data import (
    BACKGROUND_RULES,
    CLEAN_RULES,
    NOISE_RULES,
    BackgroundSpec,
    CleanSpec,
    Dataset,
    NoiseSpec,
    WebCorpus,
    canonical_json,
    check_crawl_fits,
    check_fields,
    grouped_split,
    integer,
    integers,
    load_dataset,
    load_web_corpus,
    real,
    reals,
    save_web_corpus,
    synth_clean,
    synth_web_corpus,
    write_dataset_csv,
)
from .errors import ParseError, ValidationError, WeblyError
from .metrics import (
    evaluate,
    report_timestamp,
    write_eval_csv,
    write_eval_json,
    write_features_csv,
)
from .model import (
    MODEL_RULES,
    ModelConfig,
    fingerprint,
    load_checkpoint,
    penultimate_features,
    save_checkpoint,
)
from .noise import estimate_transition, save_transition, validate_transition
from .train import ARMS, TRAIN_RULES, SeedInputs, TrainConfig, run_seeds

DEFAULT_CONFIG = {
    "model": {
        "hidden_sizes": [16, 16],
        "dropout_keep_prob": 0.8,
        "init_seed": 0,
        "init_scale": "sqrt_2_over_fan_in",
    },
    "train_web": {
        "epochs": 20,
        "batch_size": 32,
        "learning_rate_init": 0.01,
        "momentum": 0.9,
        "lr_decay_factor": 0.5,
        "lr_decay_every": 10,
        "shuffle_seed": 0,
    },
    "train_clean": {
        "epochs": 40,
        "batch_size": 16,
        "learning_rate_init": 0.01,
        "momentum": 0.9,
        "lr_decay_factor": 0.5,
        "lr_decay_every": 10,
        "shuffle_seed": 1,
    },
    "loss": {"renormalize_modulated": False},
    "data": {
        "synth": {
            "num_classes": 5,
            "feature_dim": 8,
            "class_counts": [120, 80, 80, 40, 20],
            "class_means": None,
            "separation": 2.4,
            "sigma": 1.0,
            "groups_per_class": 10,
            "seed": 100,
            "train_fraction": 0.5,
            "split_seed": 200,
            "noise": {
                "cross_category_kernel": None,
                "diagonal": 0.7,
                "cross_domain_rate": 0.2,
                "bag_size": 20,
                "seed": 300,
            },
            "background": {"mean_offset": 6.0, "scale": 1.5},
        }
    },
    "seeds": [0],
    "arms": ["BL1", "BL2", "Proposed"],
    "output_dir": "runs",
}

SYNTH_MAX_VALUES = 2**27  # float64 values (1 GiB) a data.synth section may ask for
SCORES = ("accuracy", "macro_recall", "kappa", "auc_mean")
SUMMARY_FIELDS = ["arm", "seed", "status", *SCORES, "error"]


# Leaf rules by dotted section path ("" is the top level, "data" the input files)
RULES = {
    "": {"seeds": ((lambda v: integers(0)[0](v) and 0 < len(v) == len(set(v))),
                   "a non-empty list of distinct integers >= 0"),
         "arms": ((lambda v: isinstance(v, list) and all(a in ARMS for a in v)
                   and 0 < len(v) == len(set(v))), f"a non-empty list of distinct {ARMS}"),
         "output_dir": ((lambda v: isinstance(v, str)), "a path")},
    "model": MODEL_RULES,
    "train_web": TRAIN_RULES,
    "train_clean": TRAIN_RULES,
    "loss": {"renormalize_modulated": ((lambda v: isinstance(v, bool)), "true or false")},
    "data": dict.fromkeys(("clean_train", "clean_test", "web"),
                          ((lambda v: isinstance(v, str)), "a file path")),
    "data.synth": {
        **CLEAN_RULES,
        "class_means": reals((2,), "null or num_classes lists of feature_dim numbers", True),
        "separation": real(lambda v: True, "of either sign"),
        "train_fraction": real(lambda v: 0 < v < 1, "in (0, 1)"),
        "split_seed": integer(0),
    },
    "data.synth.noise": {
        **NOISE_RULES,
        "cross_category_kernel": reals((2,), "null or K lists of K numbers", True),
        "diagonal": real(lambda v: 0 <= v <= 1, "in [0, 1]"),
    },
    "data.synth.background": BACKGROUND_RULES,
}


def _checked(default: dict, user, name: str) -> dict:
    """``user`` merged over ``default``, the config section at dotted path
    ``name``; a section that is not an object, a key the default lacks or a
    value that breaks its rule in ``RULES`` raises ValidationError naming it."""
    if not isinstance(user, dict):
        raise ValidationError(f"{name or 'the config'} must be an object, "
                              f"got {type(user).__name__}")
    if name == "data" and "synth" not in user:  # file inputs replace the synthetic spec
        default = dict.fromkeys(["clean_train", "clean_test", *user.keys() & {"web"}])
    if name in ("train_web", "train_clean"):  # dropout, a model setting; see load_config
        default = {**default, "dropout_keep_prob": None}
    prefix = f"{name}." if name else ""
    unknown = sorted(user.keys() - default.keys())
    if unknown:
        raise ValidationError("unknown config key " + ", ".join(prefix + k for k in unknown))
    merged = {key: _checked(value, user[key], prefix + key)
              if isinstance(value, dict) and key in user
              else copy.deepcopy(user.get(key, value)) for key, value in default.items()}
    check_fields(merged, RULES.get(name, {}), prefix)
    return merged


def load_config(path: str | None) -> dict:
    """Merge a user config file over the defaults, checking it by ``RULES``,
    ``synth_specs`` and the model's size; a ``data`` section without ``synth``
    names input files instead.  A fault raises a WeblyError naming the file
    and the dotted key, e.g. ``data.synth.noise.diagonal``.
    """
    if path is None:
        return copy.deepcopy(DEFAULT_CONFIG)
    try:
        with open(path, encoding="utf-8") as fh:
            user = json.load(fh)
    except (OSError, ValueError) as exc:  # ValueError: JSON syntax or UTF-8 decoding
        raise ParseError(f"{path}: cannot read a JSON document: {exc}") from None
    try:
        config = _checked(DEFAULT_CONFIG, user, "")
        keep = config["model"]["dropout_keep_prob"]
        for section in ("train_web", "train_clean"):  # dropout is set in model only
            if config[section].pop("dropout_keep_prob", None) not in (None, keep):
                raise ValidationError(f"{section}.dropout_keep_prob must equal model's {keep!r}")
        dims = 1, 2  # cmd_run sizes it again at the input files' dims; here the smallest
        if "synth" in config["data"]:
            clean, _, _ = synth_specs(config["data"]["synth"])
            dims = clean.feature_dim, clean.num_classes
        try:
            _model_config(config, *dims, 0)
        except ValidationError as exc:
            raise ValidationError(f"model.{exc}") from None
    except ValidationError as exc:
        raise ValidationError(f"{path}: {exc}") from None
    return config


def _parse_seeds(text: str) -> list[int]:
    """Comma-separated distinct non-negative integers from a ``--seed`` value."""
    parts = text.split(",")
    seeds = [int(part) for part in parts if part.isascii() and part.strip().isdecimal()]
    if len(seeds) != len(parts) or len(set(seeds)) != len(seeds):
        raise ValidationError(f"--seed {text!r}: expected distinct non-negative "
                              "integers separated by commas")
    return seeds


def _summary_row(arm: str, seed: int, scores=None, error: str = "") -> dict:
    """One summary.csv row; ``scores`` maps accuracy, macro_recall, kappa and
    auc_mean to floats (auc_mean may be None), and is None for a failed cell."""
    def score(key):
        return "" if scores is None or scores[key] is None else repr(float(scores[key]))
    return {"arm": arm, "seed": seed, "status": "failed" if scores is None else "ok",
            "error": error, **{key: score(key) for key in SCORES}}


def _checked_scores(doc: dict) -> dict:
    """An eval.json document whose scores are finite numbers in [0, 1], kappa
    in [-1, 1] and ``auc_mean`` possibly null; else ValueError or KeyError."""
    for key in SCORES:
        value, low = doc[key], -1 if key == "kappa" else 0
        if value is None and key == "auc_mean":
            continue
        if isinstance(value, bool) or not isinstance(value, (int, float)) or not low <= value <= 1:
            raise ValueError(f"{key} {value!r} is not a number in [{low}, 1]")
    return doc


# ---------------------------------------------------------------------------
# Config -> toolkit objects
# ---------------------------------------------------------------------------

def synth_specs(spec: dict, seed_offset: int = 0
                ) -> tuple[CleanSpec, NoiseSpec, BackgroundSpec]:
    """The clean, crawl-noise and background specs of a checked ``data.synth``
    section, every seed offset by ``seed_offset``; values that do not fit
    together raise ValidationError naming the key as ``data.synth...key``."""
    k, d, noise = spec["num_classes"], spec["feature_dim"], spec["noise"]
    means, kernel = spec["class_means"], noise["cross_category_kernel"]
    # class means, kernel, clean rows and at most bag_size web members per clean row
    size = k * d + k * k + sum(spec["class_counts"]) * (1 + noise["bag_size"]) * d
    if size > SYNTH_MAX_VALUES:
        raise ValidationError(
            f"data.synth.num_classes {k}, data.synth.feature_dim {d}, data.synth.class_counts "
            f"and data.synth.noise.bag_size ask for {size} float64 values, more than "
            f"the {SYNTH_MAX_VALUES} synth holds")
    if means is None:
        means = np.zeros((k, d))
        means[np.arange(k), np.arange(k) % d] = spec["separation"]
    try:
        clean = CleanSpec(num_classes=k, feature_dim=d, class_means=means,
                          sigma=spec["sigma"], class_counts=list(spec["class_counts"]),
                          groups_per_class=spec["groups_per_class"],
                          seed=spec["seed"] + seed_offset)
        if kernel is None:  # built once CleanSpec has checked k against class_counts
            diag = float(noise["diagonal"])
            kernel = np.full((k, k), (1.0 - diag) / (k - 1))
            np.fill_diagonal(kernel, diag)
        crawl = NoiseSpec(cross_category_kernel=kernel,
                          cross_domain_rate=noise["cross_domain_rate"],
                          bag_size=noise["bag_size"], seed=noise["seed"] + seed_offset)
        background = BackgroundSpec(**spec["background"])
        check_crawl_fits(crawl, background, k, d)
    except ValidationError as exc:
        raise ValidationError(f"data.synth.{exc}") from None
    return clean, crawl, background


def build_synth_data(spec: dict, seed_offset: int = 0
                     ) -> tuple[Dataset, Dataset, WebCorpus]:
    """Materialize (clean_train, clean_test, web) from a synthetic data spec."""
    clean, crawl, background = synth_specs(spec, seed_offset)
    clean_train, clean_test = grouped_split(
        synth_clean(clean), spec["train_fraction"], spec["split_seed"] + seed_offset)
    return clean_train, clean_test, synth_web_corpus(clean_train, crawl, background)


def build_cell_data(config: dict, seed: int) -> tuple[Dataset, Dataset, WebCorpus]:
    """The seed's synthetic (clean_train, clean_test, web) from ``data.synth``."""
    return build_synth_data(config["data"]["synth"], seed_offset=seed)


# A checked section's keys are its dataclass's fields; seeds offset by the run's.
def _train_config(section: dict, seed: int) -> TrainConfig:
    return TrainConfig(**{**section, "shuffle_seed": section["shuffle_seed"] + seed})


def _model_config(config: dict, input_dim: int, num_classes: int,
                  seed: int) -> ModelConfig:
    section = config["model"]
    return ModelConfig(input_dim=input_dim, num_classes=num_classes,
                       **{**section, "init_seed": section["init_seed"] + seed})


# ---------------------------------------------------------------------------
# run cells
# ---------------------------------------------------------------------------

def run_cell(config: dict, arm: str, seed: int, cell_dir: Path, timestamp: str,
             data: tuple, arm_result, inputs: dict | None) -> dict:
    """Write one (arm, seed) cell's artifacts and return its summary row.

    ``data`` is the seed's (clean_train, clean_test, web), ``inputs`` their
    fingerprints by name, and ``arm_result`` the arm's ArmResult from
    ``run_seeds``, or the error that failed it, which is raised here.
    """
    if isinstance(arm_result, BaseException):
        raise arm_result
    clean_test = data[1]

    cell_dir.mkdir(parents=True, exist_ok=True)
    checkpoint_hashes = {}
    for i, stage in enumerate(arm_result.stages, start=1):
        stage_dir = cell_dir / f"stage{i}"
        stage_dir.mkdir(exist_ok=True)
        ckpt = stage_dir / "checkpoint.wslckpt"
        save_checkpoint(stage.params, ckpt)
        checkpoint_hashes[f"stage{i}"] = fingerprint(ckpt.read_bytes())
        with open(stage_dir / "log.jsonl", "w", encoding="utf-8") as fh:
            for entry in stage.log:
                fh.write(canonical_json(entry) + "\n")

    if arm_result.transition is not None:
        save_transition(arm_result.transition, cell_dir / "transition.json")

    report = evaluate(arm_result.final_params, clean_test)
    write_eval_json(report, cell_dir / "eval.json", timestamp=timestamp)
    write_eval_csv(report, cell_dir / "eval.csv")

    # the cell's own config: the run's output directory and seed list aside
    experiment_config = {k: v for k, v in config.items() if k not in ("output_dir", "seeds")}
    provenance = {
        "arm": arm,
        "seed": seed,
        "code_version": __version__,
        "config_sha256": fingerprint(canonical_json(experiment_config)),
        "inputs": inputs,
        "checkpoints": checkpoint_hashes,
        "transition_provenance": (arm_result.transition.provenance
                                  if arm_result.transition is not None else None),
        "web_access_log": arm_result.web_access_log,
    }
    with open(cell_dir / "provenance.json", "w", encoding="utf-8") as fh:
        json.dump(provenance, fh, sort_keys=True, indent=2)
        fh.write("\n")

    return _summary_row(arm, seed, vars(report))


def _with_inputs(data: tuple) -> tuple[tuple, dict]:
    """A seed's (clean_train, clean_test, web) and their fingerprints by name."""
    return data, {name: None if part is None else fingerprint(part)
                  for name, part in zip(("clean_train", "clean_test", "web"), data)}


def _train_seeds(config: dict, files: tuple | None) -> dict:
    """Train the arms of every seed together (``run_seeds``) and map each
    seed to its (data, inputs, outcomes by arm).  The data are ``files`` as
    ``cmd_run`` read them, or else the seed's synthetic data; a toolkit or
    I/O error in a seed's data fails only that seed's cells.  The model is
    sized at the clean-train file's dims, or at ``data.synth``'s."""
    arms, cells, built = config["arms"], {}, {}
    for seed in config["seeds"]:
        try:
            data, inputs = files or _with_inputs(build_cell_data(config, seed))
            built[seed] = data, inputs, SeedInputs(data[0], data[2], seed, inputs["web"])
        except (WeblyError, OSError) as exc:
            cells[seed] = None, None, dict.fromkeys(arms, exc)
    spec = config["data"].get("synth")
    dims = ((files[0][0].feature_dim, files[0][0].num_classes) if files
            else (spec["feature_dim"], spec["num_classes"]))
    try:
        outcomes = run_seeds(arms, [seed_inputs for *_, seed_inputs in built.values()],
                             _train_config(config["train_web"], 0),
                             _train_config(config["train_clean"], 0),
                             _model_config(config, *dims, 0),
                             renormalize=config["loss"]["renormalize_modulated"])
    except WeblyError as exc:
        outcomes = [dict.fromkeys(arms, exc)] * len(built)
    for (seed, (data, inputs, _)), outcome in zip(built.items(), outcomes):
        cells[seed] = data, inputs, outcome
    return {seed: cells[seed] for seed in config["seeds"]}


def _write_summary(rows: list[dict], path: Path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=SUMMARY_FIELDS)
        writer.writeheader()
        writer.writerows(rows)


def _print_aggregates(rows: list[dict], arms: list[str]) -> None:
    print("per-arm aggregates over seeds (mean +/- std):")
    for arm in arms:
        vals = [r for r in rows if r["arm"] == arm and r["status"] == "ok"]
        if not vals:
            print(f"  {arm}: no successful cells")
            continue
        parts = []
        for key in SCORES:
            nums = [float(r[key]) for r in vals if r[key] != ""]
            if nums:
                parts.append(f"{key}={np.mean(nums):.4f}+/-{np.std(nums):.4f}")
        print(f"  {arm} (n={len(vals)}): " + " ".join(parts))


def cmd_run(args) -> int:
    config = load_config(args.config)
    if args.out:
        config["output_dir"] = args.out
    if args.seed:
        config["seeds"] = _parse_seeds(args.seed)
    if args.jobs < 1:
        raise ValidationError(f"--jobs {args.jobs}: must be at least 1")
    data, files = config["data"], None
    if "synth" not in data:  # read once before any output, clean_train first to size the model
        train = load_dataset(data["clean_train"])
        absent = np.flatnonzero(train.label_counts() == 0).tolist()
        if absent:
            raise ValidationError(f"{data['clean_train']}: class absent from training data: "
                                  f"{absent}")
        try:
            _model_config(config, train.feature_dim, train.num_classes, 0)
        except ValidationError as exc:
            raise ValidationError(f"{args.config}: model.{exc} (at the dims of "
                                  f"{data['clean_train']})") from None
        test = load_dataset(data["clean_test"], num_classes=train.num_classes)
        web = load_web_corpus(data["web"]) if data.get("web") else None
        for name, part in (("clean_test", test), ("web", web)):
            if part is not None and part.X.shape[1] != train.feature_dim:
                raise ValidationError(f"{data[name]}: feature_dim {part.X.shape[1]} does not "
                                      f"match {data['clean_train']}'s {train.feature_dim}")
        if web is not None and web.num_classes != train.num_classes:
            raise ValidationError(f"{data['web']}: num_classes {web.num_classes} does not "
                                  f"match {data['clean_train']}'s {train.num_classes}")
        files = _with_inputs((train, test, web))
    arms, timestamp = config["arms"], report_timestamp()

    out_dir = Path(config["output_dir"])
    if out_dir.exists() and any(out_dir.iterdir()) and not args.overwrite:
        raise WeblyError(f"{out_dir} is not empty (use --overwrite)")
    out_dir.mkdir(parents=True, exist_ok=True)

    with open(out_dir / "effective_config.json", "w", encoding="utf-8") as fh:
        json.dump(config, fh, sort_keys=True, indent=2)
        fh.write("\n")

    for arm_dir in (out_dir / arm for arm in ARMS):  # every cell of an earlier run
        if arm_dir.exists():
            shutil.rmtree(arm_dir)
    cells, rows = _train_seeds(config, files), []
    for arm in arms:
        for seed, (data, inputs, outcomes) in cells.items():
            try:
                rows.append(run_cell(config, arm, seed, out_dir / arm / str(seed),
                                     timestamp, data, outcomes[arm], inputs))
            except (WeblyError, OSError) as exc:  # a failed cell is recorded, others run
                rows.append(_summary_row(arm, seed, error=f"{type(exc).__name__}: {exc}"))

    _write_summary(rows, out_dir / "summary.csv")
    _print_aggregates(rows, arms)
    failed = [r for r in rows if r["status"] != "ok"]
    for r in failed:
        print(f"failed cell {r['arm']}/{r['seed']}: {r['error']}", file=sys.stderr)
    return 1 if failed else 0


# ---------------------------------------------------------------------------
# other verbs
# ---------------------------------------------------------------------------

def cmd_synth(args) -> int:
    config = load_config(args.config)
    spec = config["data"].get("synth")
    if spec is None:
        raise ValidationError("config has no data.synth section")
    offset, *more = _parse_seeds(args.seed or "0")
    if more:
        raise ValidationError(f"--seed {args.seed!r}: synth takes one seed offset")
    out_dir = Path(args.out or "synth-data")
    files = [out_dir / "clean_train.csv", out_dir / "clean_test.csv",
             out_dir / "web.json"]
    if any(f.exists() for f in files) and not args.overwrite:
        raise WeblyError(f"outputs exist in {out_dir} (use --overwrite)")
    out_dir.mkdir(parents=True, exist_ok=True)

    clean_train, clean_test, web = build_synth_data(spec, seed_offset=offset)
    write_dataset_csv(clean_train, files[0])
    write_dataset_csv(clean_test, files[1])
    save_web_corpus(web, files[2])

    print(f"wrote {files[0]} ({len(clean_train)} examples), "
          f"{files[1]} ({len(clean_test)} examples), "
          f"{files[2]} ({len(web.query_ids)} bags, {len(web.member_ids)} members)")
    for name, ds in (("clean_train", clean_train), ("clean_test", clean_test)):
        counts = ds.label_counts()
        freqs = counts / counts.sum()
        print(f"{name} class counts: {counts.tolist()} "
              f"frequencies: {[round(f, 4) for f in freqs.tolist()]}")
    web_counts = np.bincount(web.member_labels(), minlength=web.num_classes)
    print(f"web transferred-label counts: {web_counts.tolist()}")
    return 0


def cmd_eval(args) -> int:
    timestamp = report_timestamp()
    params = load_checkpoint(args.checkpoint)
    if args.export_features and not params.config.hidden_sizes:
        raise ValidationError(f"{args.checkpoint}: model has no hidden layer "
                              "to export features from")
    ds = load_dataset(args.data, num_classes=params.config.num_classes)
    if ds.feature_dim != params.config.input_dim:
        raise ValidationError(f"{args.data}: feature_dim {ds.feature_dim} does not fit "
                              f"{args.checkpoint}'s input_dim {params.config.input_dim}")
    try:
        report = evaluate(params, ds)
    except ValidationError as exc:
        raise ValidationError(f"{args.checkpoint}: {exc}") from None
    out_dir = Path(args.out or ".")
    out_dir.mkdir(parents=True, exist_ok=True)
    write_eval_json(report, out_dir / "eval.json", timestamp)
    write_eval_csv(report, out_dir / "eval.csv")
    if args.export_features:
        feats = penultimate_features(params, ds)
        write_features_csv(ds.ids, feats, out_dir / "features.csv")
    print(f"accuracy={report.accuracy:.4f} macro_recall={report.macro_recall:.4f} "
          f"kappa={report.kappa:.4f} "
          f"auc_mean={'n/a' if report.auc_mean is None else f'{report.auc_mean:.4f}'}")
    return 0


def cmd_estimate_noise(args) -> int:
    params = load_checkpoint(args.checkpoint)
    corpus = load_web_corpus(args.web)
    try:
        transition = estimate_transition(params, corpus)
    except ValidationError as exc:
        raise ValidationError(f"{args.web}: {exc}") from None
    out_path = Path(args.out or "transition.json")
    save_transition(transition, out_path)
    diag = validate_transition(transition)
    print(f"wrote {out_path}")
    print(f"row sums: {[f'{s:.12f}' for s in diag.row_sums]}")
    print(f"diagonally dominant rows: {diag.diagonally_dominant} "
          f"(all: {diag.all_rows_dominant})")
    for row in diag.entries:
        print("  " + " ".join(f"{v:.6f}" for v in row))
    return 0


def cmd_report(args) -> int:
    runs_dir = Path(args.runs)
    if not runs_dir.exists():
        raise WeblyError(f"run directory {runs_dir} not found")
    rows = []
    arms_seen = []
    for arm_dir in sorted(p for p in runs_dir.iterdir() if p.is_dir()):
        if arm_dir.name not in ARMS:
            continue
        arms_seen.append(arm_dir.name)
        seeds = []
        for cell_dir in (p for p in arm_dir.iterdir() if p.is_dir()):
            name = cell_dir.name  # only a name that run writes: no sign, padding or "_"
            if name.isdecimal() and str(int(name)) == name:
                seeds.append((int(name), cell_dir))
            else:
                print(f"note: skipping {cell_dir}: not a seed directory", file=sys.stderr)
        for seed, cell_dir in sorted(seeds):
            eval_path = cell_dir / "eval.json"
            try:
                with open(eval_path, encoding="utf-8") as fh:
                    rows.append(_summary_row(arm_dir.name, seed, _checked_scores(json.load(fh))))
            except FileNotFoundError:
                rows.append(_summary_row(arm_dir.name, seed, error="missing eval.json"))
            except (ValueError, KeyError, TypeError) as exc:  # ValueError: JSON or a score
                rows.append(_summary_row(arm_dir.name, seed,
                                         error=f"malformed {eval_path}: {exc!r}"))
    _write_summary(rows, runs_dir / "summary.csv")
    _print_aggregates(rows, arms_seen)
    print(f"wrote {runs_dir / 'summary.csv'} ({len(rows)} rows)")
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="webly",
        description="Webly supervised learning experiments: synthetic data, "
                    "noise-transition estimation, two-stage training, metrics.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, seeds_help):
        p.add_argument("--config", default=None, help="JSON config path")
        p.add_argument("--out", default=None, help="output directory")
        p.add_argument("--seed", default=None, help=seeds_help)
        p.add_argument("--overwrite", action="store_true",
                       help="replace existing outputs")

    p_synth = sub.add_parser("synth", help="generate synthetic clean/web data")
    common(p_synth, "integer offset applied to the data seeds")
    p_synth.set_defaults(func=cmd_synth)

    p_run = sub.add_parser("run", help="execute arms x seeds into a run directory")
    common(p_run, "comma-separated seed list overriding the config")
    p_run.add_argument("--jobs", type=int, default=1,
                       help="accepted (at least 1) and ignored: a run trains all its "
                            "seeds in one process, one stack per stage")
    p_run.set_defaults(func=cmd_run)

    p_eval = sub.add_parser("eval", help="evaluate a checkpoint on a dataset")
    p_eval.add_argument("--checkpoint", required=True)
    p_eval.add_argument("--data", required=True, help="dataset CSV path")
    p_eval.add_argument("--out", default=None, help="output directory")
    p_eval.add_argument("--export-features", action="store_true",
                        help="also write penultimate-layer features.csv")
    p_eval.set_defaults(func=cmd_eval)

    p_noise = sub.add_parser("estimate-noise",
                             help="estimate a transition matrix from a web corpus")
    p_noise.add_argument("--checkpoint", required=True, help="oracle checkpoint")
    p_noise.add_argument("--web", required=True, help="web corpus JSON path")
    p_noise.add_argument("--out", default=None, help="output transition.json path")
    p_noise.set_defaults(func=cmd_estimate_noise)

    p_report = sub.add_parser("report",
                              help="re-aggregate summary.csv from a run directory")
    p_report.add_argument("--runs", required=True, help="run directory")
    p_report.set_defaults(func=cmd_report)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except WeblyError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:  # an output path of the wrong kind, or not writable
        where = f"{exc.filename}: " if exc.filename else ""
        print(f"error: {where}{exc.strerror or exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
