"""Command-line entry point wiring the toolkit into reproducible experiments.

Verbs: ``synth`` writes a synthetic clean split plus a simulated web corpus;
``run`` executes experimental arms across seeds into a run directory, every
seed's arms trained together (``train.run_seeds``) on input files read once
per run, or on synthetic data built per seed;
``eval`` scores a checkpoint on a dataset; ``estimate-noise`` runs transition
estimation standalone; ``report`` re-aggregates summaries and paired verdicts
from existing runs.

Configuration is a single JSON document; all defaults are materialized into
``effective_config.json`` inside the run directory so a run can be reproduced
exactly by feeding that file back in.
"""

from __future__ import annotations

import argparse
import copy
import json
import math
import os
import shutil
import statistics
import sys
from dataclasses import asdict
from itertools import combinations
from pathlib import Path

import numpy as np

from . import __version__
from .data import (BACKGROUND_RULES, CLEAN_RULES, NOISE_RULES, BackgroundSpec, CleanSpec, Dataset,
                   NoiseSpec, WebCorpus, canonical_json, check_crawl_fits, check_fields,
                   grouped_split, integer, integers, load_dataset, load_web_corpus, real, reals,
                   save_web_corpus, synth_clean, synth_web_corpus, write_csv, write_dataset_csv,
                   write_json)
from .errors import MALFORMED, ParseError, ValidationError, WeblyError, clipped, named, shown
from .loss import median_frequency_weights
from .metrics import evaluate, report_timestamp, write_eval_csv, write_eval_json, write_features_csv
from .model import (MODEL_RULES, ModelConfig, check_fit, fingerprint, load_checkpoint,
                    penultimate_features, save_checkpoint)
from .noise import estimate_transition, save_transition, validate_transition
from .train import ARMS, TRAIN_RULES, SeedInputs, TrainConfig, run_seeds

DEFAULT_CONFIG = {
    "model": {
        "hidden_sizes": [16, 16],
        "dropout_keep_prob": 0.8,
        "init_seed": 0,
        "init_scale": "sqrt_2_over_fan_in",
    },
    # the rate schedule and momentum of both stages are TrainConfig's defaults
    "train_web": asdict(TrainConfig(epochs=20, batch_size=32, shuffle_seed=0)),
    "train_clean": asdict(TrainConfig(epochs=40, batch_size=16, shuffle_seed=1)),
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
_UNIT = real(lambda v: 0 <= v <= 1, "in [0, 1]")
# eval.json's scores, in summary column order, and the rule each must keep
SCORE_RULES = {"accuracy": _UNIT, "macro_recall": _UNIT,
               "kappa": real(lambda v: -1 <= v <= 1, "in [-1, 1]"),
               "auc_mean": ((lambda v: v is None or _UNIT[0](v)), "null or a number in [0, 1]")}
SCORES = tuple(SCORE_RULES)
SUMMARY_FIELDS = ["arm", "seed", "status", *SCORES, "error"]
VERDICT_FIELDS = ["earlier", "later", "accuracy_diff", "se", "t", "n", "left_out"]


def _is_path(v) -> bool:
    """A string the file system can take: ``os.fsencode`` encodes it, with no NUL."""
    try:
        return isinstance(v, str) and b"\0" not in os.fsencode(v)
    except UnicodeEncodeError:  # a lone surrogate that stands for no file-name byte
        return False


PATH_RULE = (_is_path, "a path: a string with no NUL that the file system encoding can encode")

# Leaf rules by dotted section path ("" is the top level, "data" the input files)
RULES = {
    "": {"seeds": ((lambda v: integers(0)[0](v) and 0 < len(v) == len(set(v))),
                   "a non-empty list of distinct integers >= 0"),
         "arms": ((lambda v: isinstance(v, list) and all(a in ARMS for a in v)
                   and 0 < len(v) == len(set(v))), f"a non-empty list of distinct {ARMS}"),
         "output_dir": PATH_RULE},
    "model": MODEL_RULES,
    "train_web": TRAIN_RULES,
    "train_clean": TRAIN_RULES,
    # one loss form: the key stays, false only, while perfbench/run.py writes it
    "loss": {"renormalize_modulated": ((lambda v: v is False), "false")},
    "data": dict.fromkeys(("clean_train", "clean_test", "web"), PATH_RULE),
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
    """``user``, its values kept, merged over a copy of ``default``: the config section at
    dotted path ``name``. A section that is not an object, a key the default lacks or a value
    that breaks its rule in ``RULES``, however deep, raises ValidationError naming it."""
    if not isinstance(user, dict):
        raise ValidationError(f"{name or 'the config'} must be an object, "
                              f"got {type(user).__name__}")
    if name == "data" and "synth" not in user:  # file inputs replace the synthetic spec
        default = dict.fromkeys(["clean_train", "clean_test", *user.keys() & {"web"}])
    if name in ("train_web", "train_clean"):  # dropout, a model setting; see load_config
        default = {**default, "dropout_keep_prob": None}
    prefix = f"{name}." if name else ""
    if unknown := sorted(user.keys() - default.keys()):
        raise ValidationError("unknown config key "
                              + clipped(", ".join(prefix + k for k in unknown)))
    merged = {key: (_checked(value, user[key], prefix + key) if isinstance(value, dict)
                    else user[key]) if key in user else copy.deepcopy(value)
              for key, value in default.items()}
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
    with named(f"{path}: cannot read a JSON document: ", ParseError, (OSError, *MALFORMED)):
        with open(path, encoding="utf-8") as fh:
            user = json.load(fh)
    with named(f"{path}: ", ValidationError, MALFORMED):  # RecursionError: a deep value
        config = _checked(DEFAULT_CONFIG, user, "")
        keep = config["model"]["dropout_keep_prob"]
        for section in ("train_web", "train_clean"):  # dropout is set in model only
            if config[section].pop("dropout_keep_prob", None) not in (None, keep):
                raise ValidationError(f"{section}.dropout_keep_prob must equal model's "
                                      f"{shown(keep)}")
        dims = 1, 2  # cmd_run sizes it again at the input files' dims; here the smallest
        if "synth" in config["data"]:
            clean, _, _ = synth_specs(config["data"]["synth"])
            dims = clean.feature_dim, clean.num_classes
        with named("model."):
            _model_config(config, *dims, 0)
    return config


def _parse_seeds(text: str) -> list[int]:
    """Comma-separated distinct non-negative integers from a ``--seed`` value."""
    parts = text.split(",")
    with named(f"--seed {shown(text)}: ", ValidationError, ValueError):  # int's digit limit
        seeds = [int(part) for part in parts if part.isascii() and part.strip().isdecimal()]
    if len(seeds) != len(parts) or len(set(seeds)) != len(seeds):
        raise ValidationError(f"--seed {shown(text)}: expected distinct non-negative "
                              "integers separated by commas")
    return seeds


def _summary_row(arm: str, seed: int, scores=None, error: str = "") -> dict:
    """One summary.csv row, its scores floats (None where absent); ``scores`` maps
    accuracy, macro_recall, kappa and auc_mean to numbers, and is None for a failed cell."""
    return {"arm": arm, "seed": seed, "status": "failed" if scores is None else "ok",
            "error": error, **{key: None if scores is None or scores[key] is None
                               else float(scores[key]) for key in SCORES}}


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
    with named("data.synth."):
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
        if min(clean.groups_per_class, max(clean.class_counts)) < 2:  # ids cycle per class
            raise ValidationError(f"groups_per_class {clean.groups_per_class} and data.synth."
                                  f"class_counts {shown(clean.class_counts)} make 1 group; "
                                  "splits need 2")
    return clean, crawl, background


def build_synth_data(spec: dict, seed_offset: int = 0
                     ) -> tuple[Dataset, Dataset, WebCorpus]:
    """Materialize (clean_train, clean_test, web) from a synthetic data spec."""
    clean, crawl, background = synth_specs(spec, seed_offset)
    with named("data.synth."):  # seeded by split_seed + seed_offset: may fail at some offsets only
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
             data: tuple, arm_result, inputs: dict | None) -> None:
    """Write one (arm, seed) cell's artifacts.

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
        checkpoint_hashes[f"stage{i}"] = fingerprint(
            save_checkpoint(stage.params, stage_dir / "checkpoint.wslckpt"))
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
    write_json(provenance, cell_dir / "provenance.json")


def _with_inputs(data: tuple) -> tuple[tuple, dict]:
    """A seed's (clean_train, clean_test, web) and their fingerprints by name."""
    return data, {name: None if part is None else fingerprint(part)
                  for name, part in zip(("clean_train", "clean_test", "web"), data)}


def _train_seeds(config: dict, files: tuple | None, model_cfg: ModelConfig) -> dict:
    """Train the arms of every seed together (``run_seeds``) from the run's
    ``model_cfg`` and map each seed to its (data, inputs, outcomes by arm).
    The data are ``files`` as ``cmd_run`` read them, or else the seed's
    synthetic data; a toolkit error in a seed's synthetic build fails only
    that seed's cells."""
    arms, cells, built = config["arms"], {}, {}
    for seed in config["seeds"]:
        try:
            data, inputs = files or _with_inputs(build_cell_data(config, seed))
            built[seed] = data, inputs, SeedInputs(data[0], data[2], seed, inputs["web"])
        except WeblyError as exc:
            cells[seed] = None, None, dict.fromkeys(arms, exc)
    outcomes = run_seeds(arms, [seed_inputs for *_, seed_inputs in built.values()],
                         _train_config(config["train_web"], 0),
                         _train_config(config["train_clean"], 0), model_cfg)
    for (seed, (data, inputs, _)), outcome in zip(built.items(), outcomes):
        cells[seed] = data, inputs, outcome
    return {seed: cells[seed] for seed in config["seeds"]}


def _write_summary(rows: list[dict], path: Path, fields: list[str] = SUMMARY_FIELDS) -> None:
    """Write ``rows`` under ``fields``: None as an empty field, a float as its repr."""
    write_csv(path, fields, [["" if r[k] is None else str(r[k]) for r in rows] for k in fields],
              np.empty((len(rows), 0)))


def _verdicts(rows: list[dict]) -> list[dict]:
    """Per pair of the rows' arms (earlier, later), in order: over the n seeds
    where both cells are ok, the mean per-seed accuracy difference later minus
    earlier, its paired SE (the differences' sample std over sqrt(n)) and t,
    and the count of the pair's other seeds, left out.  The mean is None at
    n 0, SE and t at n < 2 or an SE of 0."""
    acc = {(r["arm"], r["seed"]): r["accuracy"] for r in rows if r["status"] == "ok"}
    verdicts = []
    for earlier, later in combinations(dict.fromkeys(r["arm"] for r in rows), 2):
        seeds = dict.fromkeys(r["seed"] for r in rows if r["arm"] in (earlier, later))
        diffs = [acc[later, s] - acc[earlier, s] for s in seeds
                 if (earlier, s) in acc and (later, s) in acc]
        n = len(diffs)
        se = statistics.stdev(diffs) / math.sqrt(n) if n > 1 else 0.0
        mean = statistics.fmean(diffs) if n else None
        verdicts.append({"earlier": earlier, "later": later, "accuracy_diff": mean,
                         "se": se or None, "t": mean / se if se else None,
                         "n": n, "left_out": len(seeds) - n})
    return verdicts


def _cell_row(arm: str, seed: int, cell_dir: Path) -> dict:
    """A cell's summary row: failed with the text of its error.txt, which
    ``run`` writes for a cell it could not finish, else scored from eval.json
    by ``SCORE_RULES``; a fault in either file fails the row naming the file."""
    path = cell_dir / "error.txt"
    try:
        if path.is_file():
            with open(path, encoding="utf-8", newline="") as fh:
                return _summary_row(arm, seed, error=fh.read())
        path = cell_dir / "eval.json"
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
        scores = {key: doc[key] for key in SCORES}
        check_fields(scores, SCORE_RULES)
        return _summary_row(arm, seed, scores)
    except FileNotFoundError:
        return _summary_row(arm, seed, error=f"missing {path.name}")
    except (OSError, *MALFORMED) as exc:
        return _summary_row(arm, seed, error=f"malformed {path}: {shown(exc)}")


def _summarize(out_dir: Path) -> list[dict]:
    """The rows of ``out_dir``'s cells by arm in ``ARMS`` order, then seed; writes
    summary.csv and verdicts.csv there and prints the aggregates, then the verdicts."""
    arm_dirs = [out_dir / arm for arm in ARMS if (out_dir / arm).is_dir()]
    if not arm_dirs:
        raise WeblyError(f"run directory {out_dir} holds none of {', '.join(ARMS)}")
    rows = []
    for arm_dir in arm_dirs:
        seeds = []
        for cell_dir in (p for p in arm_dir.iterdir() if p.is_dir()):
            name = cell_dir.name  # only a name that run writes: no sign, padding or "_"
            if name.isdecimal() and str(int(name)) == name:
                seeds.append((int(name), cell_dir))
            else:
                print(f"note: skipping {cell_dir}: not a seed directory", file=sys.stderr)
        rows += [_cell_row(arm_dir.name, seed, cell_dir) for seed, cell_dir in sorted(seeds)]
    _write_summary(rows, out_dir / "summary.csv")
    verdicts = _verdicts(rows)
    _write_summary(verdicts, out_dir / "verdicts.csv", VERDICT_FIELDS)
    print("per-arm aggregates over seeds (mean +/- std):")
    for arm in dict.fromkeys(r["arm"] for r in rows):
        vals = [r for r in rows if r["arm"] == arm and r["status"] == "ok"]
        if not vals:
            print(f"  {arm}: no successful cells")
            continue
        parts = []
        for key in SCORES:
            nums = [r[key] for r in vals if r[key] is not None]
            if nums:
                parts.append(f"{key}={np.mean(nums):.4f}+/-{np.std(nums):.4f}")
        print(f"  {arm} (n={len(vals)}): " + " ".join(parts))
    if verdicts:
        print("paired verdicts on accuracy (later - earlier, over seeds where both are ok):")
    for v in verdicts:
        diff, se, t = (("n/a" if v[key] is None else f"{v[key]:.4f}")
                       for key in ("accuracy_diff", "se", "t"))
        print(f"  {v['later']} - {v['earlier']}: diff={diff} se={se} t={t} "
              f"(n={v['n']}, left out {v['left_out']})")
    return rows


def cmd_run(args) -> int:
    config = load_config(args.config)
    if args.out:
        config["output_dir"] = args.out
    if args.seed is not None:
        config["seeds"] = _parse_seeds(args.seed)
    with named(f"--jobs {clipped(args.jobs)}: ", ValidationError, ValueError):
        if int(args.jobs) < 1:
            raise ValidationError("must be at least 1")
    data, files, spec = config["data"], None, config["data"].get("synth")
    if spec is not None:  # the model's size at data.synth's dims, checked by load_config
        model_cfg = _model_config(config, spec["feature_dim"], spec["num_classes"], 0)
    else:  # read once before any output, clean_train first to size the model
        train = load_dataset(data["clean_train"])
        with named(f"{data['clean_train']}: "):  # the class rule train_stage applies
            median_frequency_weights(train.label_counts())
        try:
            model_cfg = _model_config(config, train.feature_dim, train.num_classes, 0)
        except ValidationError as exc:
            raise ValidationError(f"{args.config}: model.{exc} (at the dims of "
                                  f"{data['clean_train']})") from None
        test = load_dataset(data["clean_test"], num_classes=train.num_classes)
        web = load_web_corpus(data["web"]) if data.get("web") else None
        try:
            for name, part in (("clean_test", test), ("web", web)):
                if part is not None:
                    check_fit(model_cfg, part)
        except ValidationError as exc:
            raise ValidationError(f"{data[name]}: {exc} (sized by {data['clean_train']})") from None
        files = _with_inputs((train, test, web))
    timestamp = report_timestamp()

    out_dir = Path(config["output_dir"])
    if out_dir.exists() and any(out_dir.iterdir()) and not args.overwrite:
        raise WeblyError(f"{out_dir} is not empty (use --overwrite)")
    out_dir.mkdir(parents=True, exist_ok=True)

    write_json(config, out_dir / "effective_config.json")

    for arm_dir in (out_dir / arm for arm in ARMS):  # every cell of an earlier run
        if arm_dir.exists():
            shutil.rmtree(arm_dir)
    cells = _train_seeds(config, files, model_cfg)
    for arm in config["arms"]:
        for seed, (data, inputs, outcomes) in cells.items():
            cell_dir = out_dir / arm / str(seed)
            try:
                run_cell(config, arm, seed, cell_dir, timestamp, data, outcomes[arm], inputs)
            except (WeblyError, OSError) as exc:  # a failed cell is recorded, others run
                cell_dir.mkdir(parents=True, exist_ok=True)
                (cell_dir / "error.txt").write_text(f"{type(exc).__name__}: {exc}",
                                                    encoding="utf-8", newline="")

    failed = [r for r in _summarize(out_dir) if r["status"] != "ok"]
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
        raise ValidationError(f"{args.config}: config has no data.synth section")
    offset, *more = _parse_seeds("0" if args.seed is None else args.seed)
    if more:
        raise ValidationError(f"--seed {shown(args.seed)}: synth takes one seed offset")
    out_dir = Path(args.out or "synth-data")
    files = [out_dir / name for name in ("clean_train.csv", "clean_test.csv", "web.json")]
    if any(f.exists() for f in files) and not args.overwrite:
        raise WeblyError(f"outputs exist in {out_dir} (use --overwrite)")
    with named(f"{args.config}: "):
        clean_train, clean_test, web = build_synth_data(spec, seed_offset=offset)
    out_dir.mkdir(parents=True, exist_ok=True)
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
    ds = load_dataset(args.data, num_classes=params.config.num_classes)
    with named(f"{args.data}, {args.checkpoint}: "):  # everything is computed before --out is made
        report = evaluate(params, ds)
        feats = penultimate_features(params, ds) if args.export_features else None
    out_dir = Path(args.out or ".")
    out_dir.mkdir(parents=True, exist_ok=True)
    write_eval_json(report, out_dir / "eval.json", timestamp)
    write_eval_csv(report, out_dir / "eval.csv")
    if feats is not None:
        write_features_csv(ds.ids, feats, out_dir / "features.csv")
    print(f"accuracy={report.accuracy:.4f} macro_recall={report.macro_recall:.4f} "
          f"kappa={report.kappa:.4f} "
          f"auc_mean={'n/a' if report.auc_mean is None else f'{report.auc_mean:.4f}'}")
    return 0


def cmd_estimate_noise(args) -> int:
    params = load_checkpoint(args.checkpoint)
    corpus = load_web_corpus(args.web)
    with named(f"{args.web}, oracle {args.checkpoint}: "):
        transition = estimate_transition(params, corpus)
    out_path = Path(args.out or "transition.json")
    save_transition(transition, out_path)
    diag = validate_transition(transition)
    print(f"wrote {out_path}")
    print(f"row sums: {[f'{s:.12f}' for s in diag.row_sums]}")
    print(f"diagonally dominant rows: {diag.diagonally_dominant} "
          f"(all: {diag.all_rows_dominant})")
    for row in transition.entries:
        print("  " + " ".join(f"{v:.6f}" for v in row))
    return 0


def cmd_report(args) -> int:
    runs_dir = Path(args.runs)
    if not runs_dir.exists():
        raise WeblyError(f"run directory {runs_dir} not found")
    print(f"wrote {runs_dir / 'summary.csv'} ({len(_summarize(runs_dir))} rows)")
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
    p_run.add_argument("--jobs", default="1",
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
