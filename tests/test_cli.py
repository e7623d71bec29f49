"""Tests for the command-line verbs and the run-directory contract."""

import copy
import csv
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from webly import cli, metrics, noise
from webly.cli import DEFAULT_CONFIG, load_config, main
from webly.data import (
    WebCorpus,
    canonical_json,
    load_dataset,
    load_web_corpus,
    save_web_corpus,
    write_dataset_csv,
)
from webly.errors import WeblyError
from webly.model import ModelConfig, ModelParams, init_params, save_checkpoint
from webly.noise import load_transition


def tiny_config(tmp_path, **overrides):
    config = {
        "model": {"hidden_sizes": [8], "init_seed": 0},
        "train_web": {"epochs": 2, "batch_size": 16, "shuffle_seed": 0},
        "train_clean": {"epochs": 2, "batch_size": 8, "shuffle_seed": 1},
        "data": {
            "synth": {
                "num_classes": 3,
                "feature_dim": 4,
                "class_counts": [16, 12, 8],
                "separation": 3.0,
                "sigma": 1.0,
                "groups_per_class": 4,
                "seed": 10,
                "train_fraction": 0.5,
                "split_seed": 20,
                "noise": {"diagonal": 0.8, "cross_domain_rate": 0.1,
                          "bag_size": 4, "seed": 30},
                "background": {"mean_offset": 6.0, "scale": 1.0},
            }
        },
        "seeds": [0],
        "arms": ["BL1"],
    }
    config.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    return path


def read_summary(path):
    import csv
    with open(path) as fh:
        return list(csv.DictReader(fh))


def assert_matches_one_run_per_seed(run, per_seed):
    """Every cell file of ``run`` equals that of the one-seed run of its seed
    in ``per_seed``, and its summary rows are theirs.  ``elapsed_s`` is left
    out; provenance's ``config_sha256`` hashes the config without the run's
    seed list, so provenance is compared whole."""
    def cells(root):
        return {p.relative_to(root) for p in root.rglob("*")
                if p.is_file() and len(p.relative_to(root).parts) > 2}

    files = cells(run)
    assert files == {rel for single in per_seed.values() for rel in cells(single)}
    for rel in files:
        a, b = (run / rel).read_bytes(), (per_seed[int(rel.parts[1])] / rel).read_bytes()
        if rel.name == "log.jsonl":
            a, b = ([{k: v for k, v in json.loads(line).items() if k != "elapsed_s"}
                     for line in text.splitlines()] for text in (a, b))
        assert a == b, rel
    rows = read_summary(run / "summary.csv")
    for seed, single in per_seed.items():
        assert [r for r in rows if r["seed"] == str(seed)] == read_summary(single / "summary.csv")
    return files


class TestSynth:
    def test_writes_reloadable_files(self, tmp_path, capsys):
        cfg = tiny_config(tmp_path)
        out = tmp_path / "data"
        assert main(["synth", "--config", str(cfg), "--out", str(out)]) == 0
        train = load_dataset(out / "clean_train.csv")
        test = load_dataset(out / "clean_test.csv")
        web = load_web_corpus(out / "web.json")
        assert train.num_classes == 3
        assert len(train) + len(test) == 36
        assert len(web.query_ids) == len(train)
        printed = capsys.readouterr().out
        assert f"clean_train class counts: {train.label_counts().tolist()}" \
            in printed
        assert f"clean_test class counts: {test.label_counts().tolist()}" \
            in printed

    def test_repeated_seed_writes_identical_files(self, tmp_path):
        cfg = tiny_config(tmp_path)
        out1, out2 = tmp_path / "d1", tmp_path / "d2"
        main(["synth", "--config", str(cfg), "--out", str(out1), "--seed", "3"])
        main(["synth", "--config", str(cfg), "--out", str(out2), "--seed", "3"])
        for name in ("clean_train.csv", "clean_test.csv", "web.json"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_refuses_to_clobber_without_overwrite(self, tmp_path):
        cfg = tiny_config(tmp_path)
        out = tmp_path / "data"
        assert main(["synth", "--config", str(cfg), "--out", str(out)]) == 0
        assert main(["synth", "--config", str(cfg), "--out", str(out)]) == 2
        assert main(["synth", "--config", str(cfg), "--out", str(out),
                     "--overwrite"]) == 0

    def test_non_integer_seed_exits_2_naming_it(self, tmp_path, capsys):
        cfg = tiny_config(tmp_path)
        out = tmp_path / "data"
        assert main(["synth", "--config", str(cfg), "--out", str(out),
                     "--seed", "x"]) == 2
        assert "'x'" in capsys.readouterr().err
        assert not out.exists()


class TestRun:
    def test_bl1_cell_layout(self, tmp_path):
        cfg = tiny_config(tmp_path)
        out = tmp_path / "runs"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
        cell = out / "BL1" / "0"
        assert (cell / "stage1" / "checkpoint.wslckpt").exists()
        assert (cell / "stage1" / "log.jsonl").exists()
        assert (cell / "eval.json").exists()
        assert (cell / "eval.csv").exists()
        assert (cell / "provenance.json").exists()
        assert not (cell / "transition.json").exists()
        assert not (cell / "stage2").exists()
        rows = read_summary(out / "summary.csv")
        assert len(rows) == 1
        assert rows[0]["status"] == "ok"
        assert (out / "effective_config.json").exists()

    def test_proposed_writes_row_stochastic_transition(self, tmp_path):
        cfg = tiny_config(tmp_path, arms=["Proposed"])
        out = tmp_path / "runs"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
        t = load_transition(out / "Proposed" / "0" / "transition.json")
        np.testing.assert_allclose(t.entries.sum(axis=1), 1.0, atol=1e-9)
        assert (out / "Proposed" / "0" / "stage2" / "checkpoint.wslckpt").exists()

    def test_log_jsonl_schema(self, tmp_path):
        cfg = tiny_config(tmp_path)
        out = tmp_path / "runs"
        main(["run", "--config", str(cfg), "--out", str(out)])
        lines = (out / "BL1" / "0" / "stage1" / "log.jsonl").read_text().splitlines()
        assert len(lines) == 2
        entry = json.loads(lines[0])
        assert set(entry) >= {"epoch", "lr", "mean_loss", "elapsed_s"}

    def test_seed_flag_overrides_config(self, tmp_path):
        cfg = tiny_config(tmp_path)
        out = tmp_path / "runs"
        assert main(["run", "--config", str(cfg), "--out", str(out),
                     "--seed", "1,2"]) == 0
        rows = read_summary(out / "summary.csv")
        assert [r["seed"] for r in rows] == ["1", "2"]

    def test_non_integer_seed_exits_2_naming_it(self, tmp_path, capsys):
        cfg = tiny_config(tmp_path)
        out = tmp_path / "runs"
        assert main(["run", "--config", str(cfg), "--out", str(out),
                     "--seed", "a"]) == 2
        assert "'a'" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("seeds", ["\u0663,1", "1,\uff12", "1_0"])
    def test_seed_beyond_ascii_digits_exits_2_naming_it(self, tmp_path, capsys, seeds):
        with pytest.raises(WeblyError, match="non-negative integers"):
            cli._parse_seeds(seeds)
        out = tmp_path / "runs"
        assert main(["run", "--config", str(tiny_config(tmp_path)), "--out", str(out),
                     "--seed", seeds]) == 2
        assert repr(seeds) in capsys.readouterr().err
        assert not out.exists()

    def test_failed_cell_recorded_others_continue(self, tmp_path):
        # file-based data without a web corpus: BL2 must fail, BL1 succeed
        cfg0 = tiny_config(tmp_path)
        data_dir = tmp_path / "files"
        main(["synth", "--config", str(cfg0), "--out", str(data_dir)])
        config = json.loads(cfg0.read_text())
        config["data"] = {"clean_train": str(data_dir / "clean_train.csv"),
                          "clean_test": str(data_dir / "clean_test.csv")}
        config["arms"] = ["BL1", "BL2"]
        cfg = tmp_path / "files.json"
        cfg.write_text(json.dumps(config))
        out = tmp_path / "runs"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 1
        rows = {r["arm"]: r for r in read_summary(out / "summary.csv")}
        assert rows["BL1"]["status"] == "ok"
        assert rows["BL2"]["status"] == "failed"
        assert "web" in rows["BL2"]["error"]

    def test_non_webly_error_in_a_cell_surfaces(self, tmp_path, monkeypatch):
        def buggy_cell(*args):
            raise ZeroDivisionError("bug in a cell")
        monkeypatch.setattr(cli, "run_cell", buggy_cell)
        cfg = tiny_config(tmp_path)
        with pytest.raises(ZeroDivisionError, match="bug in a cell"):
            main(["run", "--config", str(cfg), "--out", str(tmp_path / "runs")])

    def test_jobs_below_one_exits_2_naming_it(self, tmp_path, capsys):
        cfg = tiny_config(tmp_path)
        out = tmp_path / "runs"
        for jobs in ("0", "-3"):
            assert main(["run", "--config", str(cfg), "--out", str(out),
                         "--jobs", jobs]) == 2
            assert f"--jobs {jobs}" in capsys.readouterr().err
        assert not out.exists()

    def test_train_dropout_must_equal_the_model_setting(self, tmp_path, capsys):
        out = tmp_path / "runs"
        cfg = tiny_config(tmp_path, model={"hidden_sizes": [8], "init_seed": 0,
                                           "dropout_keep_prob": 0.8},
                          train_web={"epochs": 2, "batch_size": 16, "shuffle_seed": 0,
                                     "dropout_keep_prob": 0.5})
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 2
        assert "train_web.dropout_keep_prob" in capsys.readouterr().err
        assert not out.exists()
        config = json.loads(cfg.read_text())
        config["train_web"]["dropout_keep_prob"] = 0.8
        config["train_clean"]["dropout_keep_prob"] = 0.8
        cfg.write_text(json.dumps(config))
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
        effective = json.loads((out / "effective_config.json").read_text())
        assert "dropout_keep_prob" not in effective["train_web"]
        assert "dropout_keep_prob" not in effective["train_clean"]
        assert effective["model"]["dropout_keep_prob"] == 0.8

    def test_malformed_config_exits_2_naming_the_file(self, tmp_path, capsys):
        for name, text in (("truncated", '{"seeds":'), ("list", "[1, 2]"),
                           ("section", '{"train_web": 3}')):
            cfg = tmp_path / f"{name}.json"
            cfg.write_text(text)
            assert main(["run", "--config", str(cfg), "--out",
                         str(tmp_path / "runs")]) == 2
            assert str(cfg) in capsys.readouterr().err
        missing = tmp_path / "missing.json"
        assert main(["run", "--config", str(missing), "--out", str(tmp_path / "runs")]) == 2
        assert str(missing) in capsys.readouterr().err

    @pytest.mark.parametrize("section, key, value", [
        ("train_web", "epochs", "x"),
        ("train_clean", "batch_size", 0),
        ("train_clean", "momentum", 1.0),
        ("train_web", "learning_rate_init", True),
        ("train_web", "learning_rate_init", 10 ** 400),
        ("model", "hidden_sizes", [8, "16"]),
        ("model", "dropout_keep_prob", 1.5),
        ("model", "init_seed", -1),
        ("loss", "renormalize_modulated", "false"),
        ("loss", "renormalize_modulated", 0),
        # keys the section does not have
        ("train_web", "epoch", 1),
        ("train_clean", "lr", 0.1),
        ("model", "input_dim", 3),
        ("loss", "renormalize", True),
        # the data sections and the top level ("" is the top level)
        ("data.synth", "seperation", 9.0),
        ("", "seed", [3]),
        ("data.synth.noise", "diagonal", 1.5),
        ("data.synth", "sigma", "x"),
        ("data.synth", "num_classes", "5"),
        ("data.synth.noise", "bag_size", 2.5),
        ("data.synth.background", "mean_offset", [1, 2]),
        ("", "data", 3),
        ("", "seeds", [1.5]),
        ("data.synth", "class_counts", [10, 10]),
        ("data.synth", "class_means", [[1, 2]]),
        ("data.synth", "train_fraction", 1.0),
        ("", "seeds", [-1]),
        ("", "arms", ["BL1", "BL1"]),
        ("", "arms", "BL1"),
        ("data.synth.noise", "cross_category_kernel", [[1.0, 0.0], [0.0, 1.0]]),
        ("data.synth.noise", "cross_category_kernel", [[0.5, 0.5], [1.0]]),
        ("data.synth", "noise", []),
        # sizes synth could not hold
        ("data.synth", "feature_dim", 10**20),
        ("data.synth", "feature_dim", 400000000),
        ("data.synth", "num_classes", 10**6),
        ("data.synth.noise", "bag_size", 10**9),
        ("model", "hidden_sizes", [10**20]),
    ])
    def test_bad_section_value_exits_2_naming_it(self, tmp_path, capsys,
                                                 section, key, value):
        doc = {key: value}
        for part in reversed(section.split(".") if section else []):
            doc = {part: doc}
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps(doc))
        out = tmp_path / "out"
        for verb in ("run", "synth"):
            assert main([verb, "--config", str(cfg), "--out", str(out)]) == 2
            err = capsys.readouterr().err
            assert str(cfg) in err and (f"{section}.{key}" if section else key) in err
            assert not out.exists()

    def test_file_inputs_need_both_clean_splits(self, tmp_path, capsys):
        cfg = tmp_path / "files.json"
        cfg.write_text(json.dumps({"data": {"clean_train": "train.csv",
                                            "web": "web.json"}}))
        out = tmp_path / "out"
        for verb in ("run", "synth"):
            assert main([verb, "--config", str(cfg), "--out", str(out)]) == 2
            err = capsys.readouterr().err
            assert str(cfg) in err and "data.clean_test" in err
            assert not out.exists()

    def test_file_inputs_with_oversize_model_exit_2_before_output(self, tmp_path, capsys):
        # the CSVs are never read: the model is too large at any input dims
        cfg = tmp_path / "files.json"
        cfg.write_text(json.dumps({
            "model": {"hidden_sizes": [10**20]}, "arms": ["BL1"],
            "data": {"clean_train": "train.csv", "clean_test": "test.csv"}}))
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert str(cfg) in err and "model.hidden_sizes" in err
        assert not out.exists()

    def test_file_inputs_sized_at_the_clean_train_dims_before_output(self, tmp_path, capsys):
        # 2**24 hidden units fit at 1 feature and 2 classes, but not at the
        # default synth CSVs' 8 features and 5 classes
        data_dir = tmp_path / "files"
        assert main(["synth", "--out", str(data_dir)]) == 0
        (data_dir / "web.json").write_text("not a web corpus")  # never read
        cfg = tmp_path / "files.json"
        cfg.write_text(json.dumps({
            "model": {"hidden_sizes": [2**24]}, "arms": ["BL1"],
            "data": {"clean_train": str(data_dir / "clean_train.csv"),
                     "clean_test": str(data_dir / "clean_test.csv"),
                     "web": str(data_dir / "web.json")}}))
        assert isinstance(load_config(str(cfg)), dict)
        out = tmp_path / "out"
        capsys.readouterr()
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert str(cfg) in err and "model.hidden_sizes" in err
        assert "input_dim 8 and num_classes 5" in err and "clean_train.csv" in err
        assert "web.json" not in err and not out.exists()

    @pytest.mark.parametrize("epoch", ["abc", "1.5", "99999999999999999999"])
    def test_bad_source_date_epoch_exits_2_without_output(self, tmp_path, capsys,
                                                          monkeypatch, epoch):
        cfg = tiny_config(tmp_path)
        data = tmp_path / "files"
        assert main(["synth", "--config", str(cfg), "--out", str(data)]) == 0
        ckpt = tmp_path / "m.wslckpt"
        save_checkpoint(init_params(ModelConfig(input_dim=4, hidden_sizes=[2],
                                                num_classes=3)), ckpt)
        monkeypatch.setenv("SOURCE_DATE_EPOCH", epoch)
        out = tmp_path / "out"
        for verb in (["run", "--config", str(cfg)],
                     ["eval", "--checkpoint", str(ckpt),
                      "--data", str(data / "clean_test.csv")]):
            assert main([*verb, "--out", str(out)]) == 2
            assert f"SOURCE_DATE_EPOCH={epoch!r}" in capsys.readouterr().err
            assert not out.exists()

    def test_repeated_seed_flag_exits_2(self, tmp_path, capsys):
        out = tmp_path / "runs"
        assert main(["run", "--config", str(tiny_config(tmp_path)), "--out", str(out),
                     "--seed", "1,1"]) == 2
        assert "'1,1'" in capsys.readouterr().err
        assert not out.exists()

    def test_shared_clean_stage_failure_fails_bl1_and_proposed(self, tmp_path,
                                                               monkeypatch):
        from webly import train
        from webly.errors import DivergenceError
        real, calls = train.train_stage, []

        def clean_only_fails(init, *args, **kwargs):
            calls.append(init)
            if len(calls) == 1:  # the shared clean-only stage trains first
                raise DivergenceError("clean-only stage diverged")
            return real(init, *args, **kwargs)

        monkeypatch.setattr(train, "train_stage", clean_only_fails)
        cfg = tiny_config(tmp_path, arms=["BL1", "BL2", "Proposed"])
        out = tmp_path / "runs"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 1
        rows = {r["arm"]: r for r in read_summary(out / "summary.csv")}
        assert [r["arm"] for r in read_summary(out / "summary.csv")] == [
            "BL1", "BL2", "Proposed"]
        assert rows["BL2"]["status"] == "ok"
        for arm in ("BL1", "Proposed"):
            assert rows[arm]["status"] == "failed"
            assert rows[arm]["error"] == "DivergenceError: clean-only stage diverged"
            assert not (out / arm / "0").exists()

    def test_refuses_nonempty_out_dir_without_overwrite(self, tmp_path):
        cfg = tiny_config(tmp_path)
        out = tmp_path / "runs"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 2
        assert main(["run", "--config", str(cfg), "--out", str(out),
                     "--overwrite"]) == 0

    def test_overwrite_clears_every_cell_of_the_earlier_run(self, tmp_path):
        cfg = tiny_config(tmp_path, arms=["BL1", "BL2", "Proposed"])
        out = tmp_path / "runs"
        assert main(["run", "--config", str(cfg), "--out", str(out), "--seed", "0,1"]) == 0
        assert main(["run", "--config", str(cfg), "--out", str(out), "--seed", "0",
                     "--overwrite"]) == 0
        assert sorted(p.relative_to(out).as_posix() for p in out.glob("*/*")) == [
            "BL1/0", "BL2/0", "Proposed/0"]
        assert main(["report", "--runs", str(out)]) == 0
        assert [(r["arm"], r["seed"]) for r in read_summary(out / "summary.csv")] == [
            ("BL1", "0"), ("BL2", "0"), ("Proposed", "0")]

    def test_seeds_trained_together_match_one_run_per_seed_bytes(self, tmp_path, monkeypatch):
        # --jobs is accepted and ignored: the seeds train as one stack per stage
        monkeypatch.setenv("SOURCE_DATE_EPOCH", "0")
        cfg = tiny_config(tmp_path, arms=["BL1", "BL2", "Proposed"], seeds=[0, 1])
        stacked = tmp_path / "stacked"
        assert main(["run", "--config", str(cfg), "--out", str(stacked), "--jobs", "2"]) == 0
        per_seed = {seed: tmp_path / f"seed{seed}" for seed in (0, 1)}
        for seed, out in per_seed.items():
            assert main(["run", "--config", str(cfg), "--out", str(out),
                         "--seed", str(seed)]) == 0
        assert len(assert_matches_one_run_per_seed(stacked, per_seed)) == 2 * (5 + 7 + 8)

    def test_failed_data_build_fails_only_its_seed(self, tmp_path, monkeypatch):
        monkeypatch.setenv("SOURCE_DATE_EPOCH", "0")
        cfg = tiny_config(tmp_path, arms=["BL1", "BL2"], seeds=[0, 1, 2])
        real = cli.build_cell_data

        def seed_1_fails(config, seed):
            if seed == 1:
                raise WeblyError("no data for seed 1")
            return real(config, seed)

        monkeypatch.setattr(cli, "build_cell_data", seed_1_fails)
        out = tmp_path / "runs"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 1
        rows = read_summary(out / "summary.csv")
        assert [(r["arm"], r["seed"], r["status"]) for r in rows] == [
            (arm, seed, "failed" if seed == "1" else "ok")
            for arm in ("BL1", "BL2") for seed in ("0", "1", "2")]
        assert all(r["error"] == "WeblyError: no data for seed 1" for r in rows if r["seed"] == "1")
        per_seed = {seed: tmp_path / f"seed{seed}" for seed in (0, 2)}
        for seed, single in per_seed.items():
            assert main(["run", "--config", str(cfg), "--out", str(single),
                         "--seed", str(seed)]) == 0
        assert_matches_one_run_per_seed(out, per_seed)

    def test_test_set_overflowing_the_model_fails_its_cells(self, tmp_path, monkeypatch):
        real = cli.run_seeds

        def huge_bl1(*args, **kwargs):  # seed 1's BL1 model overflows on every test row
            cells = real(*args, **kwargs)
            flat = cells[1]["BL1"].stages[-1].params.flat
            flat *= 1e120
            return cells

        monkeypatch.setattr(cli, "run_seeds", huge_bl1)
        out = tmp_path / "runs"
        # three layers, so weights scaled by 1e120 overflow the logits
        cfg = tiny_config(tmp_path, model={"hidden_sizes": [16, 16]}, seeds=[0, 1])
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 1
        rows = read_summary(out / "summary.csv")
        assert [r["status"] for r in rows] == ["ok", "failed"]
        first = cli.build_cell_data(load_config(cfg), 1)[1].ids[0]
        assert rows[1]["error"] == (f"ValidationError: row {first!r}: its features overflow "
                                    f"the model (non-finite posterior)")
        assert not (out / "BL1" / "1" / "eval.json").exists()

    def test_diverging_stage_prints_only_its_failed_cells(self, tmp_path):
        # numpy's overflow warnings would print with their source lines first
        cfg = tmp_path / "diverge.json"
        cfg.write_text(json.dumps({"train_web": {"learning_rate_init": 1e300, "epochs": 2},
                                   "train_clean": {"epochs": 2}}))
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
        done = subprocess.run([sys.executable, "-W", "default", "-m", "webly.cli", "run",
                               "--config", str(cfg), "--out", str(tmp_path / "runs")],
                              capture_output=True, text=True, env=env, timeout=120)
        assert done.returncode == 1, done.stderr
        lines = done.stderr.splitlines()
        assert [line.split(": ")[:2] for line in lines] == [
            [f"failed cell {arm}/0", "DivergenceError"] for arm in ("BL2", "Proposed")], lines

    def test_importing_the_cli_loads_no_process_pool(self):
        code = ("import sys, webly.cli; print(sorted(m for m in sys.modules "
                "if m.split('.')[0] in ('concurrent', 'multiprocessing')))")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
        done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env=env, timeout=60)
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "[]"

    def file_config(self, tmp_path, **overrides):
        """A tiny synth config's data written to files, and a config reading them."""
        data_dir = tmp_path / "files"
        assert main(["synth", "--config", str(tiny_config(tmp_path)),
                     "--out", str(data_dir)]) == 0
        config = json.loads((tmp_path / "config.json").read_text())
        config["data"] = {"clean_train": str(data_dir / "clean_train.csv"),
                          "clean_test": str(data_dir / "clean_test.csv"),
                          "web": str(data_dir / "web.json")}
        config.update(overrides)
        cfg = tmp_path / "files.json"
        cfg.write_text(json.dumps(config))
        return cfg, data_dir

    def test_file_inputs_read_once_per_run(self, tmp_path, monkeypatch):
        monkeypatch.setenv("SOURCE_DATE_EPOCH", "0")
        cfg, _ = self.file_config(tmp_path, arms=["BL1", "BL2", "Proposed"],
                                  seeds=[0, 1, 2])
        reads = []
        for name in ("load_web_corpus", "load_dataset"):
            real = getattr(cli, name)
            monkeypatch.setattr(cli, name, lambda *a, real=real, name=name, **k: (
                reads.append(name) or real(*a, **k)))
        stacked = tmp_path / "stacked"
        assert main(["run", "--config", str(cfg), "--out", str(stacked)]) == 0
        assert sorted(reads) == ["load_dataset"] * 2 + ["load_web_corpus"]
        per_seed = {seed: tmp_path / f"seed{seed}" for seed in (0, 1, 2)}
        for seed, out in per_seed.items():
            assert main(["run", "--config", str(cfg), "--out", str(out),
                         "--seed", str(seed)]) == 0
        # per seed the cells of BL1, BL2 and Proposed
        assert len(assert_matches_one_run_per_seed(stacked, per_seed)) == 3 * (5 + 7 + 8)
        for seed in ("1", "2"):
            prov = json.loads((stacked / "BL2" / seed / "provenance.json").read_text())
            assert dict(prov["web_access_log"]) == {
                "start": 0, "after_web_stage": 2, "after_clean_stage": 2}

    @pytest.mark.parametrize("name, synth", [
        ("clean_test", {"feature_dim": 5}),
        ("web", {"feature_dim": 5}),
        ("web", {"num_classes": 4, "class_counts": [16, 12, 8, 8]}),
    ])
    def test_mismatched_input_file_exits_2_naming_both_files(self, tmp_path, capsys, name,
                                                             synth):
        cfg, data_dir = self.file_config(tmp_path, arms=["BL1", "BL2"], seeds=[0, 1])
        other = json.loads(tiny_config(tmp_path).read_text())
        other["data"]["synth"].update(synth)
        (tmp_path / "other.json").write_text(json.dumps(other))
        assert main(["synth", "--config", str(tmp_path / "other.json"),
                     "--out", str(tmp_path / "other")]) == 0
        config = json.loads(cfg.read_text())
        config["data"][name] = str(tmp_path / "other" / Path(config["data"][name]).name)
        cfg.write_text(json.dumps(config))
        out = tmp_path / "out"
        capsys.readouterr()
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert config["data"][name] in err and config["data"]["clean_train"] in err
        assert next(iter(synth)) in err and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("name", ["web.json", "clean_test.csv"])
    def test_malformed_input_file_exits_2_without_output(self, tmp_path, capsys, name):
        cfg, data_dir = self.file_config(tmp_path, arms=["BL1"], seeds=[0, 1])
        path = data_dir / name
        if name == "web.json":
            path.write_text("not a web corpus")
        else:  # a repeated example id
            lines = path.read_text().splitlines()
            path.write_text("\n".join(lines + lines[-1:]) + "\n")
        out = tmp_path / "out"
        capsys.readouterr()
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 2
        assert str(path) in capsys.readouterr().err
        assert not out.exists()

    def test_clean_train_lacking_a_class_exits_2_naming_it_before_output(self, tmp_path,
                                                                         capsys):
        cfg, data_dir = self.file_config(tmp_path, arms=["BL1", "BL2"], seeds=[0, 1])
        path = data_dir / "clean_train.csv"
        header, *lines = path.read_text().splitlines()
        kept = [line for line in lines if next(csv.reader([line]))[2] != "1"]
        assert 0 < len(kept) < len(lines)
        path.write_text("\n".join([header] + kept) + "\n")
        out = tmp_path / "out"
        capsys.readouterr()
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 2
        assert f"{path}: class absent from training data: [1]" in capsys.readouterr().err
        assert not out.exists()

    def test_memberless_web_corpus_fails_only_the_web_arms(self, tmp_path):
        cfg, data_dir = self.file_config(tmp_path, arms=["BL1", "BL2", "Proposed"])
        doc = json.loads((data_dir / "web.json").read_text())
        for bag in doc["bags"]:
            bag["members"], bag["true_labels_hidden"] = [], []
        (data_dir / "web.json").write_text(json.dumps(doc))
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 1
        rows = {r["arm"]: r for r in read_summary(out / "summary.csv")}
        assert rows["BL1"]["status"] == "ok"
        for arm in ("BL2", "Proposed"):
            assert rows[arm]["status"] == "failed"
            assert "empty corpus" in rows[arm]["error"]

    @pytest.mark.parametrize("source", ["files", "synth"])
    def test_web_corpus_hashed_once_per_run_or_per_seed(self, tmp_path, monkeypatch, source):
        arms, seeds = ["BL1", "BL2", "Proposed"], [0, 1, 2]
        if source == "files":
            cfg, _ = self.file_config(tmp_path, arms=arms, seeds=seeds)
        else:
            cfg = tiny_config(tmp_path, arms=arms, seeds=seeds)
        hashed = []
        for module in (cli, metrics, noise):  # every module that imports fingerprint
            real = module.fingerprint
            monkeypatch.setattr(module, "fingerprint", lambda obj, real=real: (
                hashed.append(obj) if isinstance(obj, WebCorpus) else None) or real(obj))
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
        assert len(hashed) == (1 if source == "files" else len(seeds))
        for seed in seeds:
            prov = json.loads((out / "Proposed" / str(seed) / "provenance.json").read_text())
            assert prov["transition_provenance"]["corpus"] == prov["inputs"]["web"]


class TestEval:
    def prepare_run(self, tmp_path):
        cfg0 = tiny_config(tmp_path)
        data_dir = tmp_path / "files"
        main(["synth", "--config", str(cfg0), "--out", str(data_dir)])
        config = json.loads(cfg0.read_text())
        config["data"] = {"clean_train": str(data_dir / "clean_train.csv"),
                          "clean_test": str(data_dir / "clean_test.csv"),
                          "web": str(data_dir / "web.json")}
        cfg = tmp_path / "files.json"
        cfg.write_text(json.dumps(config))
        out = tmp_path / "runs"
        main(["run", "--config", str(cfg), "--out", str(out)])
        return data_dir, out

    def test_checkpoint_reproduces_final_logged_accuracy(self, tmp_path):
        data_dir, out = self.prepare_run(tmp_path)
        log_path = out / "BL1" / "0" / "stage1" / "log.jsonl"
        final = json.loads(log_path.read_text().splitlines()[-1])
        eval_dir = tmp_path / "eval"
        assert main(["eval",
                     "--checkpoint", str(out / "BL1" / "0" / "stage1" / "checkpoint.wslckpt"),
                     "--data", str(data_dir / "clean_train.csv"),
                     "--out", str(eval_dir)]) == 0
        doc = json.loads((eval_dir / "eval.json").read_text())
        assert abs(doc["accuracy"] - final["train_accuracy"]) < 1e-12

    def test_export_features_row_count(self, tmp_path):
        data_dir, out = self.prepare_run(tmp_path)
        eval_dir = tmp_path / "eval"
        assert main(["eval",
                     "--checkpoint", str(out / "BL1" / "0" / "stage1" / "checkpoint.wslckpt"),
                     "--data", str(data_dir / "clean_test.csv"),
                     "--out", str(eval_dir), "--export-features"]) == 0
        rows = (eval_dir / "features.csv").read_text().strip().splitlines()
        test_ds = load_dataset(data_dir / "clean_test.csv")
        assert len(rows) == 1 + len(test_ds)

    def test_non_utf8_data_exits_2_naming_the_file(self, tmp_path, capsys):
        ckpt = tmp_path / "m.wslckpt"
        save_checkpoint(init_params(ModelConfig(input_dim=1, hidden_sizes=[2],
                                                num_classes=2)), ckpt)
        data = tmp_path / "bad.csv"
        data.write_bytes(b"\xff")
        assert main(["eval", "--checkpoint", str(ckpt), "--data", str(data),
                     "--out", str(tmp_path / "out")]) == 2
        assert f"{data}: not UTF-8" in capsys.readouterr().err

    def test_dataset_of_other_feature_dim_exits_2_naming_it(self, tmp_path, capsys):
        ckpt = tmp_path / "m.wslckpt"
        save_checkpoint(init_params(ModelConfig(input_dim=8, hidden_sizes=[2],
                                                num_classes=3)), ckpt)
        data = tmp_path / "data"
        assert main(["synth", "--config", str(tiny_config(tmp_path)), "--out", str(data)]) == 0
        out = tmp_path / "out"
        capsys.readouterr()
        assert main(["eval", "--checkpoint", str(ckpt), "--data",
                     str(data / "clean_test.csv"), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert str(data / "clean_test.csv") in err and "input_dim 8" in err
        assert not out.exists()

    def test_export_features_without_hidden_layer_exits_2_before_output(self, tmp_path,
                                                                          capsys):
        ckpt = tmp_path / "m.wslckpt"
        save_checkpoint(init_params(ModelConfig(input_dim=4, hidden_sizes=[],
                                                num_classes=3)), ckpt)
        data = tmp_path / "data"
        assert main(["synth", "--config", str(tiny_config(tmp_path)), "--out", str(data)]) == 0
        out = tmp_path / "out"
        capsys.readouterr()
        assert main(["eval", "--checkpoint", str(ckpt), "--data", str(data / "clean_test.csv"),
                     "--out", str(out), "--export-features"]) == 2
        assert f"{ckpt}: model has no hidden layer" in capsys.readouterr().err
        assert not (out / "eval.json").exists()

    def test_checkpoint_whose_logits_overflow_exits_2_before_output(self, tmp_path, capfd):
        params = init_params(ModelConfig(input_dim=4, hidden_sizes=[16, 16], num_classes=3))
        ckpt = tmp_path / "m.wslckpt"
        save_checkpoint(ModelParams(params.config, [w * 1e120 for w in params.weights],
                                    params.biases), ckpt)
        data = tmp_path / "data"
        assert main(["synth", "--config", str(tiny_config(tmp_path)), "--out", str(data)]) == 0
        out, first = tmp_path / "out", load_dataset(data / "clean_test.csv").ids[0]
        capfd.readouterr()
        assert main(["eval", "--checkpoint", str(ckpt), "--data", str(data / "clean_test.csv"),
                     "--out", str(out)]) == 2
        captured = capfd.readouterr()
        assert captured.err == (f"error: {ckpt}: row {first!r}: its features overflow the "
                                f"model (non-finite posterior)\n")
        assert captured.out == "" and not out.exists()

    def test_missing_checkpoint_exits_nonzero_without_output(self, tmp_path):
        eval_dir = tmp_path / "eval"
        code = main(["eval", "--checkpoint", str(tmp_path / "nope.wslckpt"),
                     "--data", str(tmp_path / "nope.csv"),
                     "--out", str(eval_dir)])
        assert code == 2
        assert not eval_dir.exists()


class TestEstimateNoise:
    def test_byte_identical_rerun_and_diagnostics(self, tmp_path, capsys):
        cfg0 = tiny_config(tmp_path)
        data_dir = tmp_path / "files"
        main(["synth", "--config", str(cfg0), "--out", str(data_dir)])
        out = tmp_path / "runs"
        main(["run", "--config", str(cfg0), "--out", str(out)])
        ckpt = out / "BL1" / "0" / "stage1" / "checkpoint.wslckpt"
        t1, t2 = tmp_path / "t1.json", tmp_path / "t2.json"
        assert main(["estimate-noise", "--checkpoint", str(ckpt),
                     "--web", str(data_dir / "web.json"), "--out", str(t1)]) == 0
        printed = capsys.readouterr().out
        assert "row sums" in printed
        assert main(["estimate-noise", "--checkpoint", str(ckpt),
                     "--web", str(data_dir / "web.json"), "--out", str(t2)]) == 0
        assert t1.read_bytes() == t2.read_bytes()

    def test_memberless_corpus_exits_2_naming_the_file(self, tmp_path, capsys):
        ckpt = tmp_path / "m.wslckpt"
        save_checkpoint(init_params(ModelConfig(input_dim=2, hidden_sizes=[3],
                                                num_classes=2)), ckpt)
        web = tmp_path / "web.json"
        web.write_text(json.dumps({"bags": [
            {"members": [], "query_id": f"q{c}", "transferred_label": c,
             "true_labels_hidden": []} for c in range(2)],
            "feature_dim": 2, "num_classes": 2}))
        out = tmp_path / "t.json"
        assert main(["estimate-noise", "--checkpoint", str(ckpt), "--web", str(web),
                     "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert str(web) in err and "empty corpus" in err
        assert "Traceback" not in err and not out.exists()

    def test_member_overflowing_the_oracle_exits_2_naming_it(self, tmp_path, capsys):
        ckpt = tmp_path / "m.wslckpt"  # a linear oracle whose logits overflow to +-inf
        save_checkpoint(ModelParams(ModelConfig(input_dim=2, hidden_sizes=[], num_classes=2),
                                    [10.0 * np.eye(2)], [np.zeros(2)]), ckpt)
        web = tmp_path / "web.json"
        save_web_corpus(WebCorpus(query_ids=["q0", "q1"], labels=[0, 1], offsets=[0, 1, 2],
                                  member_ids=["m0", "far"], X=[[0.1, 0.2], [1e308, -1e308]],
                                  num_classes=2), web)
        out = tmp_path / "t.json"
        assert main(["estimate-noise", "--checkpoint", str(ckpt), "--web", str(web),
                     "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert str(web) in err and "'far'" in err and "overflow" in err
        assert "Traceback" not in err and not out.exists()


class TestReport:
    def test_reaggregates_existing_run_directory(self, tmp_path):
        cfg = tiny_config(tmp_path, arms=["BL1", "BL2"], seeds=[0, 1])
        out = tmp_path / "runs"
        main(["run", "--config", str(cfg), "--out", str(out)])
        original = (out / "summary.csv").read_text()
        (out / "summary.csv").unlink()
        assert main(["report", "--runs", str(out)]) == 0
        assert (out / "summary.csv").read_text() == original

    def test_skips_non_integer_seed_directory(self, tmp_path, capsys):
        cfg = tiny_config(tmp_path)
        out = tmp_path / "runs"
        main(["run", "--config", str(cfg), "--out", str(out)])
        original = (out / "summary.csv").read_text()
        (out / "BL1" / "notaseed").mkdir()
        assert main(["report", "--runs", str(out)]) == 0
        assert "notaseed" in capsys.readouterr().err
        assert (out / "summary.csv").read_text() == original

    @staticmethod
    def write_cells(root, *names):
        doc = {"accuracy": 0.5, "macro_recall": 0.5, "kappa": 0.25, "auc_mean": None}
        for name in names:
            (root / "BL1" / name).mkdir(parents=True)
            (root / "BL1" / name / "eval.json").write_text(json.dumps(doc))

    def test_prints_the_aggregates_to_the_current_stdout(self, tmp_path, capsys):
        self.write_cells(tmp_path, "0")
        assert main(["report", "--runs", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "per-arm aggregates over seeds" in out
        assert "BL1 (n=1): accuracy=0.5000+/-0.0000" in out

    def test_counts_only_seed_names_that_run_writes(self, tmp_path, capsys):
        self.write_cells(tmp_path, "1", "01", "+1", "1_0")
        assert main(["report", "--runs", str(tmp_path)]) == 0
        assert [r["seed"] for r in read_summary(tmp_path / "summary.csv")] == ["1"]
        err = capsys.readouterr().err
        for name in ("01", "+1", "1_0"):
            assert f"note: skipping {tmp_path / 'BL1' / name}: not a seed directory" in err
        assert err.count("note: skipping") == 3

    def test_malformed_eval_json_is_a_failed_row_naming_the_file(self, tmp_path):
        cfg = tiny_config(tmp_path, seeds=[0, 1, 2, 3, 4])
        out = tmp_path / "runs"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
        bad = {"0": '{"accuracy": 0.5', "1": "{}", "2": "1e999", "3": "1.5"}
        for seed, text in bad.items():
            path = out / "BL1" / seed / "eval.json"
            doc = json.loads(path.read_text())
            path.write_text(text if seed in "01" else
                            json.dumps(doc).replace(repr(doc["accuracy"]), text))
        assert main(["report", "--runs", str(out)]) == 0
        rows = {r["seed"]: r for r in read_summary(out / "summary.csv")}
        for seed in bad:
            assert rows[seed]["status"] == "failed"
            assert str(out / "BL1" / seed / "eval.json") in rows[seed]["error"]
        assert "accuracy inf" in rows["2"]["error"] and "accuracy 1.5" in rows["3"]["error"]
        assert rows["4"]["status"] == "ok"


class TestOutputPathOfTheWrongKind:
    """An output path that is a file where a directory is needed, or the
    reverse, exits 2 naming it."""

    @pytest.mark.parametrize("verb", ["synth", "run", "eval", "estimate-noise", "report"])
    def test_exits_2_naming_the_path(self, tmp_path, capsys, verb):
        cfg = tiny_config(tmp_path)
        data = tmp_path / "data"
        assert main(["synth", "--config", str(cfg), "--out", str(data)]) == 0
        ckpt = tmp_path / "m.wslckpt"
        save_checkpoint(init_params(ModelConfig(input_dim=4, hidden_sizes=[8],
                                                num_classes=3)), ckpt)
        a_file, a_dir = tmp_path / "a_file", tmp_path / "a_dir"
        a_file.write_text("not a directory\n")
        a_dir.mkdir()
        argv, path = {
            "synth": (["--config", str(cfg), "--out", str(a_file)], a_file),
            "run": (["--config", str(cfg), "--out", str(a_file)], a_file),
            "eval": (["--checkpoint", str(ckpt), "--data", str(data / "clean_test.csv"),
                      "--out", str(a_file)], a_file),
            "estimate-noise": (["--checkpoint", str(ckpt), "--web", str(data / "web.json"),
                                "--out", str(a_dir)], a_dir),
            "report": (["--runs", str(a_file)], a_file),
        }[verb]
        capsys.readouterr()
        assert main([verb, *argv]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(path) in err
        assert "Traceback" not in err
        assert a_file.read_text() == "not a directory\n" and not any(a_dir.iterdir())


def _sections(config, prefix=()):
    """Every key path of a config, sections and leaves alike."""
    for key, value in config.items():
        yield prefix + (key,)
        if isinstance(value, dict):
            yield from _sections(value, prefix + (key,))


def json_values(numbers):
    return st.recursive(
        st.none() | st.booleans() | numbers | st.text(max_size=4),
        lambda inner: st.lists(inner, max_size=4) | st.dictionaries(
            st.text(max_size=4), inner, max_size=3),
        max_leaves=8)


JSON_VALUES = json_values(st.integers() | st.floats(allow_nan=False))
# numbers small enough that a retyped size synthesizes a few MB at most
SMALL_JSON_VALUES = json_values(st.integers(-2, 24) | st.floats(-4.0, 24.0))


def mutate(data, config: dict, values) -> None:
    """Rename, drop or retype (to a draw of ``values``) one key of ``config``."""
    *parents, key = data.draw(st.sampled_from(list(_sections(config))), label="key")
    section = config
    for name in parents:
        section = section[name]
    edit = data.draw(st.sampled_from(["rename", "drop", "retype"]), label="edit")
    value = section.pop(key)
    if edit == "rename":
        section[key + data.draw(st.text(min_size=1, max_size=2))] = value
    elif edit == "retype":
        section[key] = data.draw(values, label="value")


class TestConfigRoundTrip:
    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_mutated_config_loads_or_raises_webly_error(self, tmp_path, data):
        config = copy.deepcopy(DEFAULT_CONFIG)
        mutate(data, config, JSON_VALUES)
        path = tmp_path / "mutated.json"
        path.write_text(json.dumps(config))
        try:
            assert isinstance(load_config(str(path)), dict)
        except WeblyError:
            pass

    @settings(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_run_on_a_mutated_synth_section_exits_without_traceback(self, tmp_path, capsys,
                                                                     data):
        config = json.loads(tiny_config(tmp_path, arms=["BL1", "BL2", "Proposed"]).read_text())
        mutate(data, config["data"]["synth"], SMALL_JSON_VALUES)
        path = tmp_path / "mutated.json"
        path.write_text(json.dumps(config))
        code = main(["run", "--config", str(path), "--out", str(tmp_path / "runs"),
                     "--overwrite"])
        assert code in (0, 1, 2)
        assert "Traceback" not in capsys.readouterr().err

    @pytest.mark.parametrize("shape", ["train_dropout", "files_without_web"])
    def test_effective_config_reads_back_unchanged(self, tmp_path, shape):
        config = json.loads(tiny_config(tmp_path).read_text())
        if shape == "train_dropout":
            config["train_web"]["dropout_keep_prob"] = 0.8
            config["train_clean"]["dropout_keep_prob"] = 0.8
        else:
            assert main(["synth", "--config", str(tiny_config(tmp_path)),
                         "--out", str(tmp_path / "files")]) == 0
            config["data"] = {"clean_train": str(tmp_path / "files/clean_train.csv"),
                              "clean_test": str(tmp_path / "files/clean_test.csv")}
        cfg = tmp_path / "shape.json"
        cfg.write_text(json.dumps(config))
        out = tmp_path / "runs"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
        effective = out / "effective_config.json"
        assert load_config(str(effective)) == json.loads(effective.read_text())
        assert load_config(str(effective)) == {**load_config(str(cfg)),
                                               "output_dir": str(out)}

    def test_effective_config_reproduces_the_run(self, tmp_path, monkeypatch):
        monkeypatch.setenv("SOURCE_DATE_EPOCH", "946684800")
        cfg = tiny_config(tmp_path, arms=["BL1", "Proposed"])
        out1 = tmp_path / "r1"
        assert main(["run", "--config", str(cfg), "--out", str(out1)]) == 0
        effective = tmp_path / "effective.json"
        effective.write_text((out1 / "effective_config.json").read_text())
        out2 = tmp_path / "r2"
        assert main(["run", "--config", str(effective), "--out", str(out2)]) == 0
        for rel in ("summary.csv",
                    "BL1/0/eval.json",
                    "BL1/0/stage1/checkpoint.wslckpt",
                    "Proposed/0/transition.json",
                    "Proposed/0/stage2/checkpoint.wslckpt",
                    "Proposed/0/provenance.json"):
            assert (out1 / rel).read_bytes() == (out2 / rel).read_bytes(), rel


class TestDefaultConfigBytes:
    """Files and fingerprints of the default config, as the CSV and JSON
    formats define them; any change here breaks existing data and runs."""

    SYNTH_SHA256 = {
        "clean_train.csv": "2cadc74bf42647f4d56f5eba4ddcce90c2cbc6a6d2f7933c6a283c82e47fc782",
        "clean_test.csv": "4fdb1c1680f2138284ae8fa95d9c7d4698a59710b7db9518925bbda9b94dcd84",
        "web.json": "ebe85fd343df0851d278592b547c24594768315e7bcc5dc401b59e21e23e2aa3",
    }

    def test_synth_bytes_and_rewrite(self, tmp_path):
        out = tmp_path / "data"
        assert main(["synth", "--out", str(out)]) == 0
        for name, digest in self.SYNTH_SHA256.items():
            assert hashlib.sha256((out / name).read_bytes()).hexdigest() == digest, name
        for name in ("clean_train.csv", "clean_test.csv"):
            write_dataset_csv(load_dataset(out / name), tmp_path / name)
        save_web_corpus(load_web_corpus(out / "web.json"), tmp_path / "web.json")
        for name in self.SYNTH_SHA256:
            assert (tmp_path / name).read_bytes() == (out / name).read_bytes(), name

    # SHA-256 of the stage checkpoints of a default ``webly run --seed 0``
    CHECKPOINT_SHA256 = {
        "BL1/0/stage1": "d7b7117ce2c8af7a1993f1008753b65ef4c5afb571f3ebc19786640f2c6b2be6",
        "BL2/0/stage1": "d1e89f19a1c42f7a0bd4ecb3e004f3f84560bdd38b001f2ce82111335a388060",
        "BL2/0/stage2": "6f66fd688b5cc0b6ebe54fd6231306fe5be3d193ea401d7d7d82651d469c8528",
        "Proposed/0/stage1": "70625758685279deb5f0e9ad2a06c1f72bcd0fa296d8ef5c053ac1c66a5e224c",
        "Proposed/0/stage2": "da0209b3675fa71fbf7c09a70050dfb960bca0436a95237569ca45e72f138641",
    }

    # SHA-256 of each stage's log.jsonl of that run, ``elapsed_s`` removed
    LOG_SHA256 = {
        "BL1/0/stage1": "823506a14799da5763a1ce3da784ea81bb6fe89b10c620d2f63473f5008deef8",
        "BL2/0/stage1": "1193122a9664b3d4b81906738947800487cad93f8c11347b12caa4c26c58fff6",
        "BL2/0/stage2": "62e91556a0d947ac4b15064c26de891e3d51d58f30f1702f14866ee5972136de",
        "Proposed/0/stage1": "0a4c1079bb3313e5c45a5e1649894cc25efa010df5b98c3095de480bc802c7ac",
        "Proposed/0/stage2": "3080cd7e0b09144362ff1ab8cffdff5a4e4592cd8d1306ce2ae763a7b2a932b0",
    }

    @pytest.fixture(scope="class")
    def default_run(self, tmp_path_factory):
        out = tmp_path_factory.mktemp("default") / "runs"
        assert main(["run", "--out", str(out), "--seed", "0"]) == 0
        return out

    def test_run_checkpoint_bytes(self, default_run):
        got = {str(p.parent.relative_to(default_run)): hashlib.sha256(p.read_bytes()).hexdigest()
               for p in default_run.glob("*/0/stage*/checkpoint.wslckpt")}
        assert got == self.CHECKPOINT_SHA256

    def test_run_log_bytes(self, default_run):
        got = {}
        for path in default_run.glob("*/0/stage*/log.jsonl"):
            entries = [json.loads(line) for line in path.read_text().splitlines()]
            for entry in entries:
                del entry["elapsed_s"]
            text = "".join(canonical_json(entry) + "\n" for entry in entries)
            got[str(path.parent.relative_to(default_run))] = hashlib.sha256(
                text.encode()).hexdigest()
        assert got == self.LOG_SHA256

    def test_run_provenance_fingerprints(self, tmp_path):
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({"arms": ["Proposed"]}))
        out = tmp_path / "runs"
        assert main(["run", "--config", str(cfg), "--out", str(out),
                     "--seed", "0"]) == 0
        prov = json.loads((out / "Proposed" / "0" / "provenance.json").read_text())
        assert prov["inputs"] == {"clean_train": "dc3af1f496776946",
                                  "clean_test": "3ea7b7bfd34cc557",
                                  "web": "874b84d839cd07f7"}
        assert prov["transition_provenance"]["corpus"] == "874b84d839cd07f7"
        assert prov["transition_provenance"]["oracle"] == "475998844f87cf24"
