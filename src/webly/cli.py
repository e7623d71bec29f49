"""Command-line entry point wiring the toolkit into reproducible experiments.

Verbs: ``synth`` writes a synthetic clean split plus a simulated web corpus;
``run`` executes experimental arms across seeds into a run directory;
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
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np

from . import __version__
from .data import (
    BackgroundSpec,
    CleanSpec,
    Dataset,
    NoiseSpec,
    WebCorpus,
    canonical_json,
    grouped_split,
    load_dataset,
    load_web_corpus,
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
    ModelConfig,
    fingerprint,
    load_checkpoint,
    penultimate_features,
    save_checkpoint,
)
from .noise import estimate_transition, save_transition, validate_transition
from .train import ARMS, TrainConfig, run_arm

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

SCORES = ("accuracy", "macro_recall", "kappa", "auc_mean")
SUMMARY_FIELDS = ["arm", "seed", "status", *SCORES, "error"]


def _deep_merge(base: dict, override: dict) -> dict:
    out = copy.deepcopy(base)
    for key, value in override.items():
        if isinstance(value, dict) and isinstance(out.get(key), dict):
            out[key] = _deep_merge(out[key], value)
        else:
            out[key] = copy.deepcopy(value)
    return out


def load_config(path: str | None) -> dict:
    """Merge a user config file over the defaults.

    The ``data`` section is special-cased: supplying file paths drops the
    default synthetic spec instead of merging with it.  Dropout is a model
    setting; a ``dropout_keep_prob`` left in ``train_web`` or ``train_clean``
    is dropped when it equals ``model.dropout_keep_prob`` and rejected
    otherwise.
    """
    if path is None:
        return copy.deepcopy(DEFAULT_CONFIG)
    try:
        with open(path, encoding="utf-8") as fh:
            user = json.load(fh)
    except ValueError as exc:  # JSON syntax or UTF-8 decoding
        raise ParseError(f"{path}: not a JSON document: {exc}") from None
    if not isinstance(user, dict):
        raise ParseError(f"{path}: top-level value must be an object, "
                         f"got {type(user).__name__}")
    user_data = user.get("data")
    merged = _deep_merge(DEFAULT_CONFIG, user)
    if user_data is not None and "synth" not in user_data:
        merged["data"] = copy.deepcopy(user_data)
    for section in ("model", "train_web", "train_clean"):
        if not isinstance(merged[section], dict):
            raise ParseError(f"{path}: {section} must be an object")
    keep = merged["model"].get("dropout_keep_prob")
    for section in ("train_web", "train_clean"):
        value = merged[section].pop("dropout_keep_prob", keep)
        if value != keep:
            raise ValidationError(
                f"{path}: {section}.dropout_keep_prob={value!r} differs from "
                f"model.dropout_keep_prob={keep!r}; dropout is set in model only")
    return merged


def _parse_seeds(text: str) -> list[int]:
    """Comma-separated non-negative integers from a ``--seed`` value."""
    parts = text.split(",")
    if not all(part.strip().isdecimal() for part in parts):
        raise ValidationError(f"--seed {text!r}: expected non-negative integers "
                              "separated by commas")
    return [int(part) for part in parts]


def _summary_row(arm: str, seed: int, scores=None, error: str = "") -> dict:
    """One summary.csv row; ``scores`` maps accuracy, macro_recall, kappa and
    auc_mean to floats (auc_mean may be None), and is None for a failed cell."""
    def score(key):
        return "" if scores is None or scores[key] is None else repr(scores[key])
    return {"arm": arm, "seed": seed, "status": "failed" if scores is None else "ok",
            "error": error, **{key: score(key) for key in SCORES}}


# ---------------------------------------------------------------------------
# Config -> toolkit objects
# ---------------------------------------------------------------------------

def _resolve_means(spec: dict) -> np.ndarray:
    if spec.get("class_means") is not None:
        return np.asarray(spec["class_means"], dtype=np.float64)
    k, d = spec["num_classes"], spec["feature_dim"]
    means = np.zeros((k, d))
    for c in range(k):
        means[c, c % d] = spec["separation"]
    return means


def _resolve_kernel(noise_spec: dict, k: int) -> np.ndarray:
    if noise_spec.get("cross_category_kernel") is not None:
        return np.asarray(noise_spec["cross_category_kernel"], dtype=np.float64)
    diag = float(noise_spec["diagonal"])
    off = (1.0 - diag) / (k - 1) if k > 1 else 0.0
    return diag * np.eye(k) + off * (np.ones((k, k)) - np.eye(k))


def build_synth_data(spec: dict, seed_offset: int = 0
                     ) -> tuple[Dataset, Dataset, WebCorpus]:
    """Materialize (clean_train, clean_test, web) from a synthetic data spec."""
    k = spec["num_classes"]
    clean_spec = CleanSpec(
        num_classes=k,
        feature_dim=spec["feature_dim"],
        class_means=_resolve_means(spec),
        sigma=spec["sigma"],
        class_counts=list(spec["class_counts"]),
        groups_per_class=spec["groups_per_class"],
        seed=spec["seed"] + seed_offset,
    )
    pool = synth_clean(clean_spec)
    clean_train, clean_test = grouped_split(
        pool, spec["train_fraction"], spec["split_seed"] + seed_offset)
    noise = NoiseSpec(
        cross_category_kernel=_resolve_kernel(spec["noise"], k),
        cross_domain_rate=spec["noise"]["cross_domain_rate"],
        bag_size=spec["noise"]["bag_size"],
        seed=spec["noise"]["seed"] + seed_offset,
    )
    background = BackgroundSpec(
        mean_offset=spec["background"]["mean_offset"],
        scale=spec["background"]["scale"],
    )
    web = synth_web_corpus(clean_train, noise, background)
    return clean_train, clean_test, web


def build_cell_data(config: dict, seed: int
                    ) -> tuple[Dataset, Dataset, WebCorpus | None]:
    data = config["data"]
    if "synth" in data:
        return build_synth_data(data["synth"], seed_offset=seed)
    clean_train = load_dataset(data["clean_train"])
    k = clean_train.num_classes
    clean_test = load_dataset(data["clean_test"], num_classes=k)
    web = load_web_corpus(data["web"]) if data.get("web") else None
    return clean_train, clean_test, web


def _train_config(section: dict, seed: int) -> TrainConfig:
    return TrainConfig(
        epochs=section["epochs"],
        batch_size=section["batch_size"],
        learning_rate_init=section["learning_rate_init"],
        momentum=section["momentum"],
        lr_decay_factor=section["lr_decay_factor"],
        lr_decay_every=section["lr_decay_every"],
        shuffle_seed=section["shuffle_seed"] + seed,
    )


def _model_config(config: dict, input_dim: int, num_classes: int,
                  seed: int) -> ModelConfig:
    section = config["model"]
    return ModelConfig(
        input_dim=input_dim,
        hidden_sizes=list(section["hidden_sizes"]),
        num_classes=num_classes,
        dropout_keep_prob=section["dropout_keep_prob"],
        init_seed=section["init_seed"] + seed,
        init_scale=section["init_scale"],
    )


# ---------------------------------------------------------------------------
# run cells
# ---------------------------------------------------------------------------

def run_cell(config: dict, arm: str, seed: int, cell_dir: Path,
             timestamp: str) -> dict:
    """Execute one (arm, seed) cell and write its artifacts."""
    clean_train, clean_test, web = build_cell_data(config, seed)
    model_cfg = _model_config(config, clean_train.feature_dim,
                              clean_train.num_classes, seed)
    cfg_web = _train_config(config["train_web"], seed)
    cfg_clean = _train_config(config["train_clean"], seed)
    renormalize = bool(config["loss"]["renormalize_modulated"])

    final_params, arm_result = run_arm(
        arm, clean_train, web, cfg_web, cfg_clean, model_cfg,
        renormalize=renormalize,
    )

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

    report = evaluate(final_params, clean_test)
    write_eval_json(report, cell_dir / "eval.json", timestamp=timestamp)
    write_eval_csv(report, cell_dir / "eval.csv")

    experiment_config = {k: v for k, v in config.items() if k != "output_dir"}
    provenance = {
        "arm": arm,
        "seed": seed,
        "code_version": __version__,
        "config_sha256": fingerprint(canonical_json(experiment_config)),
        "inputs": {
            "clean_train": fingerprint(clean_train),
            "clean_test": fingerprint(clean_test),
            "web": fingerprint(web) if web is not None else None,
        },
        "checkpoints": checkpoint_hashes,
        "transition_provenance": (arm_result.transition.provenance
                                  if arm_result.transition is not None else None),
        "web_access_log": arm_result.web_access_log,
    }
    with open(cell_dir / "provenance.json", "w", encoding="utf-8") as fh:
        json.dump(provenance, fh, sort_keys=True, indent=2)
        fh.write("\n")

    return _summary_row(arm, seed, vars(report))


def _cell_worker(payload: tuple) -> dict:
    config, arm, seed, cell_dir, timestamp = payload
    try:
        return run_cell(config, arm, seed, Path(cell_dir), timestamp)
    except (WeblyError, OSError) as exc:  # a failed cell is recorded, others run
        return _summary_row(arm, seed, error=f"{type(exc).__name__}: {exc}")


def _write_summary(rows: list[dict], path: Path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=SUMMARY_FIELDS)
        writer.writeheader()
        writer.writerows(rows)


def _print_aggregates(rows: list[dict], arms: list[str], out=sys.stdout) -> None:
    print("per-arm aggregates over seeds (mean +/- std):", file=out)
    for arm in arms:
        vals = [r for r in rows if r["arm"] == arm and r["status"] == "ok"]
        if not vals:
            print(f"  {arm}: no successful cells", file=out)
            continue
        parts = []
        for key in SCORES:
            nums = [float(r[key]) for r in vals if r[key] != ""]
            if nums:
                parts.append(f"{key}={np.mean(nums):.4f}+/-{np.std(nums):.4f}")
        print(f"  {arm} (n={len(vals)}): " + " ".join(parts), file=out)


def cmd_run(args) -> int:
    config = load_config(args.config)
    if args.out:
        config["output_dir"] = args.out
    if args.seed:
        config["seeds"] = _parse_seeds(args.seed)
    if args.jobs < 1:
        print(f"error: --jobs {args.jobs}: must be at least 1", file=sys.stderr)
        return 2
    arms = config["arms"]
    seeds = config["seeds"]
    if not arms or not seeds:
        print("error: arms and seeds must be nonempty", file=sys.stderr)
        return 2
    for arm in arms:
        if arm not in ARMS:
            print(f"error: unknown arm {arm!r}", file=sys.stderr)
            return 2

    out_dir = Path(config["output_dir"])
    if out_dir.exists() and any(out_dir.iterdir()):
        if not args.overwrite:
            print(f"error: {out_dir} is not empty (use --overwrite)",
                  file=sys.stderr)
            return 2
    out_dir.mkdir(parents=True, exist_ok=True)

    with open(out_dir / "effective_config.json", "w", encoding="utf-8") as fh:
        json.dump(config, fh, sort_keys=True, indent=2)
        fh.write("\n")

    timestamp = report_timestamp()
    cells = [(arm, seed) for arm in arms for seed in seeds]
    payloads = []
    for arm, seed in cells:
        cell_dir = out_dir / arm / str(seed)
        if cell_dir.exists():
            shutil.rmtree(cell_dir)
        payloads.append((config, arm, seed, str(cell_dir), timestamp))

    if args.jobs > 1:
        with ProcessPoolExecutor(max_workers=args.jobs) as pool:
            rows = list(pool.map(_cell_worker, payloads))
    else:
        rows = [_cell_worker(p) for p in payloads]

    _write_summary(rows, out_dir / "summary.csv")
    _print_aggregates(rows, arms)
    failed = [r for r in rows if r["status"] != "ok"]
    for r in failed:
        print(f"failed cell {r['arm']}/{r['seed']}: {r['error']}",
              file=sys.stderr)
    return 1 if failed else 0


# ---------------------------------------------------------------------------
# other verbs
# ---------------------------------------------------------------------------

def cmd_synth(args) -> int:
    config = load_config(args.config)
    spec = config["data"].get("synth")
    if spec is None:
        print("error: config has no data.synth section", file=sys.stderr)
        return 2
    offset, *more = _parse_seeds(args.seed or "0")
    if more:
        raise ValidationError(f"--seed {args.seed!r}: synth takes one seed offset")
    out_dir = Path(args.out or "synth-data")
    files = [out_dir / "clean_train.csv", out_dir / "clean_test.csv",
             out_dir / "web.json"]
    if any(f.exists() for f in files) and not args.overwrite:
        print(f"error: outputs exist in {out_dir} (use --overwrite)",
              file=sys.stderr)
        return 2
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
    params = load_checkpoint(args.checkpoint)
    ds = load_dataset(args.data, num_classes=params.config.num_classes)
    out_dir = Path(args.out or ".")
    out_dir.mkdir(parents=True, exist_ok=True)
    report = evaluate(params, ds)
    write_eval_json(report, out_dir / "eval.json")
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
    transition = estimate_transition(params, corpus)
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
        print(f"error: run directory {runs_dir} not found", file=sys.stderr)
        return 2
    rows = []
    arms_seen = []
    for arm_dir in sorted(p for p in runs_dir.iterdir() if p.is_dir()):
        if arm_dir.name not in ARMS:
            continue
        arms_seen.append(arm_dir.name)
        seeds = []
        for cell_dir in (p for p in arm_dir.iterdir() if p.is_dir()):
            try:
                seeds.append((int(cell_dir.name), cell_dir))
            except ValueError:
                print(f"note: skipping {cell_dir}: not a seed directory",
                      file=sys.stderr)
        for seed, cell_dir in sorted(seeds):
            eval_path = cell_dir / "eval.json"
            if not eval_path.exists():
                rows.append(_summary_row(arm_dir.name, seed,
                                         error="missing eval.json"))
                continue
            with open(eval_path, encoding="utf-8") as fh:
                rows.append(_summary_row(arm_dir.name, seed, json.load(fh)))
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
                       help="parallel (arm, seed) cells")
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


if __name__ == "__main__":
    sys.exit(main())
