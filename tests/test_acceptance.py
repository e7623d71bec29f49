"""Acceptance suite: one test per exit criterion, each at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion.  The trend benchmark (criterion 5) trains all three arms over five
seeds and takes the bulk of the runtime.
"""

import copy
import json
import math
import time

import numpy as np
import pytest

from conftest import fd_max_rel_error, make_clean_dataset
from webly.cli import (
    DEFAULT_CONFIG,
    _model_config,
    _train_config,
    build_cell_data,
    main,
)
from webly.data import BackgroundSpec, NoiseSpec, CROSS_DOMAIN, synth_web_corpus
from webly.loss import (
    LOG_EPS,
    median_frequency_weights,
    modulated_cross_entropy,
)
from webly.metrics import cohens_kappa, evaluate, roc_auc_one_vs_rest
from webly.model import ModelConfig, ModelParams, init_params, predict, softmax
from webly.noise import TransitionMatrix, estimate_transition, validate_transition
from webly.train import ARM_BL2, ARM_PROPOSED, TrainConfig, run_arm, train_stage


def _pass(n: int, message: str) -> None:
    print(f"\nACCEPTANCE {n} PASS: {message}")


def test_criterion_1_gradient_exactness():
    started = time.perf_counter()
    cfg = ModelConfig(input_dim=6, hidden_sizes=[8, 8], num_classes=4)
    worst = fd_max_rel_error(cfg, batch_size=8, n_coords=100, h=1e-4,
                             seed=0, keep_prob=0.8)
    elapsed = time.perf_counter() - started
    assert worst < 1e-5, f"max relative error {worst:.3e}"
    assert elapsed < 60.0
    _pass(1, f"analytic vs central-difference gradients: max rel err "
             f"{worst:.2e} < 1e-5 over 100 coordinates ({elapsed:.1f}s)")


def test_criterion_2_identity_modulation_equivalence(tmp_path):
    # (a) loss level: modulated with T = I equals plain weighted CE
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(1000):
        k = int(rng.integers(2, 7))
        batch = int(rng.integers(1, 9))
        p = softmax(rng.normal(scale=2.0, size=(batch, k)))
        labels = rng.integers(0, k, size=batch)
        w = rng.uniform(0.5, 3.0, size=k)
        got = modulated_cross_entropy(p, labels, np.eye(k), w).per_example
        direct = -w[labels] * np.log(np.maximum(p[np.arange(batch), labels],
                                                LOG_EPS))
        worst = max(worst, float(np.max(np.abs(got - direct))))
    assert worst < 1e-12, f"identity-T deviation {worst:.3e}"

    # (b) pipeline level: Proposed with forced identity T equals BL2 bit for bit
    clean = make_clean_dataset(k=3, d=4, per_class=15, separation=2.5,
                               sigma=1.0, seed=23)
    kernel = 0.8 * np.eye(3) + 0.1 * (np.ones((3, 3)) - np.eye(3))
    web = synth_web_corpus(
        clean, NoiseSpec(cross_category_kernel=kernel, cross_domain_rate=0.15,
                         bag_size=6, seed=24),
        BackgroundSpec(mean_offset=6.0))
    model_cfg = ModelConfig(input_dim=4, hidden_sizes=[8], num_classes=3,
                            init_seed=3)
    cfg_web = TrainConfig(epochs=4, batch_size=16, shuffle_seed=4)
    cfg_clean = TrainConfig(epochs=4, batch_size=8, shuffle_seed=5)
    identity = TransitionMatrix(entries=np.eye(3), provenance={"forced": "I"})
    _, bl2 = run_arm(ARM_BL2, clean, web, cfg_web, cfg_clean, model_cfg)
    _, prop = run_arm(ARM_PROPOSED, clean, web, cfg_web, cfg_clean, model_cfg,
                      transition_override=identity)
    from webly.model import save_checkpoint
    for i, (sa, sb) in enumerate(zip(bl2.stages, prop.stages), start=1):
        fa, fb = tmp_path / f"bl2-{i}.ckpt", tmp_path / f"prop-{i}.ckpt"
        save_checkpoint(sa.params, fa)
        save_checkpoint(sb.params, fb)
        assert fa.read_bytes() == fb.read_bytes(), f"stage {i} differs"
    _pass(2, f"identity-T loss deviation {worst:.1e} < 1e-12 on 1000 instances; "
             f"forced-identity pipeline checkpoints byte-identical to BL2")


def test_criterion_3_noise_estimation_limits():
    # (a) perfect one-hot oracle on a noiseless corpus -> T is exactly I
    clean = make_clean_dataset(k=3, per_class=6, separation=1.0, sigma=0.01,
                               seed=31)
    web = synth_web_corpus(
        clean, NoiseSpec(cross_category_kernel=np.eye(3),
                         cross_domain_rate=0.0, bag_size=5, seed=32),
        BackgroundSpec())
    cfg = ModelConfig(input_dim=3, hidden_sizes=[], num_classes=3)
    saturated = ModelParams(config=cfg, weights=[5000.0 * np.eye(3)],
                            biases=[np.zeros(3)])
    t = estimate_transition(saturated, web)
    assert np.array_equal(t.entries, np.eye(3)), "estimated T is not exactly I"

    # (b) 6-sigma-separated benchmark: trained oracle -> row-stochastic,
    # diagonally dominant T, across 5 seeds
    kernel = 0.7 * np.eye(3) + 0.15 * (np.ones((3, 3)) - np.eye(3))
    for seed in range(5):
        # pairwise mean distance = 3.0 * sqrt(2) = 4.24 >= 6 * sigma = 3.0
        clean = make_clean_dataset(k=3, per_class=30, separation=3.0,
                                   sigma=0.5, seed=100 + seed)
        model_cfg = ModelConfig(input_dim=3, hidden_sizes=[16], num_classes=3,
                                init_seed=seed)
        oracle = train_stage(init_params(model_cfg), clean,
                             TrainConfig(epochs=40, batch_size=16,
                                         shuffle_seed=seed)).params
        oracle_acc = (predict(oracle, clean).argmax(axis=1)
                      == clean.y).mean()
        assert oracle_acc > 0.99, f"seed {seed}: oracle accuracy {oracle_acc}"
        web = synth_web_corpus(
            clean, NoiseSpec(cross_category_kernel=kernel,
                             cross_domain_rate=0.1, bag_size=8,
                             seed=200 + seed),
            BackgroundSpec(mean_offset=6.0))
        t = estimate_transition(oracle, web)
        assert np.all(np.abs(t.entries.sum(axis=1) - 1.0) <= 1e-9)
        diag = validate_transition(t)
        assert diag.all_rows_dominant, \
            f"seed {seed}: T rows not diagonally dominant:\n{t.entries}"
    _pass(3, "perfect oracle yields exact identity T; trained oracle on the "
             "6-sigma benchmark yields row-stochastic diagonally dominant T "
             "across 5 seeds")


def test_criterion_4_metric_oracles():
    assert abs(cohens_kappa(np.array([[2, 0], [0, 2]])) - 1.0) < 1e-12
    assert abs(cohens_kappa(np.array([[1, 1], [1, 1]])) - 0.0) < 1e-12
    assert abs(cohens_kappa(np.array([[4, 1], [2, 3]])) - 0.4) < 1e-12

    def brute_force(scores, is_positive):
        pos = [s for s, q in zip(scores, is_positive) if q]
        neg = [s for s, q in zip(scores, is_positive) if not q]
        wins = sum(1.0 if sp > sn else 0.5 if sp == sn else 0.0
                   for sp in pos for sn in neg)
        return wins / (len(pos) * len(neg))

    rng = np.random.default_rng(41)
    for _ in range(500):
        n = int(rng.integers(2, 51))
        scores = rng.integers(0, 10, size=n) / 10.0
        is_positive = rng.random(n) < 0.5
        if is_positive.all() or not is_positive.any():
            is_positive[0] = True
            is_positive[-1] = False
        assert roc_auc_one_vs_rest(scores, is_positive) == \
            brute_force(scores.tolist(), is_positive.tolist())

    weights = median_frequency_weights([10, 20, 40]).w
    assert weights.tolist() == [2.0, 1.0, 0.5]
    _pass(4, "kappa hand values to 1e-12; rank AUC equals brute-force pair "
             "counting exactly on 500 instances; median-frequency weights "
             "(10,20,40) -> (2.0, 1.0, 0.5) exactly")


def test_criterion_5_trend_reproduction():
    started = time.perf_counter()
    config = copy.deepcopy(DEFAULT_CONFIG)
    seeds = [0, 1, 2, 3, 4]
    means = {}
    for arm in ("BL1", "BL2", "Proposed"):
        accs = []
        for seed in seeds:
            clean_train, clean_test, web = build_cell_data(config, seed)
            model_cfg = _model_config(config, clean_train.feature_dim,
                                      clean_train.num_classes, seed)
            final, _ = run_arm(arm, clean_train, web,
                               _train_config(config["train_web"], seed),
                               _train_config(config["train_clean"], seed),
                               model_cfg)
            accs.append(evaluate(final, clean_test).accuracy)
        means[arm] = float(np.mean(accs))
    elapsed = time.perf_counter() - started
    assert means["BL2"] > means["BL1"], f"means: {means}"
    assert means["Proposed"] >= means["BL2"] - 0.01, f"means: {means}"
    assert elapsed < 600.0
    _pass(5, f"5-seed benchmark means BL1 {means['BL1']:.4f} < "
             f"BL2 {means['BL2']:.4f}, Proposed {means['Proposed']:.4f} >= "
             f"BL2 - 0.01 ({elapsed:.0f}s)")


def test_criterion_6_run_determinism(tmp_path, monkeypatch):
    monkeypatch.setenv("SOURCE_DATE_EPOCH", "946684800")
    config = {
        "model": {"hidden_sizes": [8], "init_seed": 0},
        "train_web": {"epochs": 2, "batch_size": 16},
        "train_clean": {"epochs": 2, "batch_size": 8},
        "data": {"synth": {
            "num_classes": 3, "feature_dim": 4,
            "class_counts": [16, 12, 8], "separation": 2.5, "sigma": 1.0,
            "groups_per_class": 4, "seed": 10, "train_fraction": 0.5,
            "split_seed": 20,
            "noise": {"diagonal": 0.8, "cross_domain_rate": 0.1,
                      "bag_size": 4, "seed": 30},
            "background": {"mean_offset": 6.0, "scale": 1.0},
        }},
        "seeds": [0, 1],
        "arms": ["BL1", "BL2", "Proposed"],
    }
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(config))
    out = tmp_path / "runs"

    assert main(["run", "--config", str(cfg_path), "--out", str(out)]) == 0
    first = {}
    for path in sorted(out.rglob("*")):
        if path.is_file():
            first[path.relative_to(out)] = path.read_bytes()

    assert main(["run", "--config", str(cfg_path), "--out", str(out),
                 "--overwrite"]) == 0
    compared = 0
    for rel, before in first.items():
        after = (out / rel).read_bytes()
        if rel.name == "log.jsonl":
            # logs carry wall-clock timing; everything else in them must match
            strip = lambda raw: [
                {k: v for k, v in json.loads(line).items() if k != "elapsed_s"}
                for line in raw.decode().splitlines()]
            assert strip(before) == strip(after), rel
        else:
            assert before == after, f"{rel} not byte-identical"
            compared += 1
    assert compared >= 20  # checkpoints, eval reports, transitions, summary
    _pass(6, f"repeated run reproduced {compared} checkpoint/report files "
             f"byte-for-byte (logs match modulo wall-clock timing)")


def test_criterion_7_simulator_calibration():
    rho = 0.25
    kernel = np.array([[0.7, 0.2, 0.1],
                       [0.1, 0.8, 0.1],
                       [0.2, 0.3, 0.5]])
    clean = make_clean_dataset(k=3, per_class=4, separation=3.0, sigma=0.5,
                               seed=51)
    bag_size = 1000
    web = synth_web_corpus(
        clean, NoiseSpec(cross_category_kernel=kernel, cross_domain_rate=rho,
                         bag_size=bag_size, seed=52),
        BackgroundSpec(mean_offset=8.0))
    total = len(web.member_ids)
    assert total >= 10_000

    hidden = web.true_labels_hidden
    labels = web.member_labels()

    outlier_frac = (hidden == CROSS_DOMAIN).mean()
    se = math.sqrt(rho * (1 - rho) / total)
    assert abs(outlier_frac - rho) <= 3 * se, \
        f"outlier fraction {outlier_frac:.4f} vs rho {rho} (3se {3 * se:.4f})"

    for y in range(3):
        in_class = (labels == y) & (hidden != CROSS_DOMAIN)
        n_y = int(in_class.sum())
        for j in range(3):
            p = kernel[y, j]
            freq = (hidden[in_class] == j).mean()
            se_entry = math.sqrt(p * (1 - p) / n_y)
            assert abs(freq - p) <= 3 * se_entry, \
                f"row {y} class {j}: {freq:.4f} vs {p} (3se {3 * se_entry:.4f})"
    _pass(7, f"{total} members: cross-domain fraction {outlier_frac:.4f} "
             f"within 3se of {rho}; every kernel-row frequency within 3se")
