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

from conftest import csv_floats, csv_outcome, csv_texts
from webly import cli, metrics, noise, train
from webly.cli import DEFAULT_CONFIG, load_config, main
from webly.data import (
    WebCorpus,
    canonical_json,
    load_dataset,
    load_web_corpus,
    save_web_corpus,
    write_dataset_csv,
)
from webly.errors import ValidationError, WeblyError
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
    seed list, so provenance is compared whole.  A seed missing from
    ``per_seed`` failed in ``run``: its cells' error.txt is left out."""
    def cells(root):
        return {p.relative_to(root) for p in root.rglob("*")
                if p.is_file() and len(p.relative_to(root).parts) > 2}

    files = {rel for rel in cells(run) if int(rel.parts[1]) in per_seed}
    assert all(rel.name == "error.txt" for rel in cells(run) - files)
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

    @pytest.mark.parametrize("edit, seed, message", [
        (lambda doc: doc.update(data={"clean_train": "a.csv", "clean_test": "b.csv"}), "0",
         "config has no data.synth section"),
        (lambda doc: doc.update(data={"clean_train": "a.csv", "clean_test": "b.csv"}), "0",
         "config.json: config has no data.synth section"),
        (lambda doc: None, "0,1", "--seed '0,1': synth takes one seed offset"),
        (lambda doc: doc["data"]["synth"].update(train_fraction=0.99), "0",
         "train_fraction leaves no test groups"),
        (lambda doc: doc["data"]["synth"].update(train_fraction=0.99), "0",
         "config.json: data.synth.train_fraction leaves no test groups"),
    ], ids=["file-inputs", "file-inputs-names-the-file", "two-seeds", "no-test-group",
            "no-test-group-names-the-key"])
    def test_config_or_seed_it_cannot_synthesize_exits_2_without_output(
            self, tmp_path, capsys, edit, seed, message):
        cfg = tiny_config(tmp_path)
        doc = json.loads(cfg.read_text())
        edit(doc)
        cfg.write_text(json.dumps(doc))
        out = tmp_path / "data"
        assert main(["synth", "--config", str(cfg), "--out", str(out), "--seed", seed]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_split_failing_at_a_seed_names_its_split_seed(self, tmp_path, capsys):
        # at the paper's shape, train_fraction 0.8 leaves no test group at split seed
        # 200 + 5 (see TestRun's split test)
        doc = json.loads(TestPaperShapedConfigs.CONFIGS.joinpath("paper_shaped.json").read_text())
        doc["data"]["synth"]["train_fraction"] = 0.8
        cfg, out = tmp_path / "paper.json", tmp_path / "out"
        cfg.write_text(json.dumps(doc))
        assert main(["synth", "--config", str(cfg), "--out", str(out), "--seed", "5"]) == 2
        assert capsys.readouterr().err == (f"error: {cfg}: data.synth.train_fraction leaves "
                                           "no test groups at split seed 205\n")
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

    BAD_VALUES = [
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
        # the one loss form: the key is accepted as false only
        ("loss", "renormalize_modulated", True),
        # paths the file system cannot take: a lone surrogate, a NUL
        ("", "output_dir", "out-\ud800"),
        ("", "output_dir", "out\u0000x"),
        ("data", "clean_train", "train-\ud800.csv"),
        ("data", "clean_train", "train\u0000.csv"),
        # a grouped split needs two groups: group ids cycle within each class
        ("data.synth", "groups_per_class", 1),
        ("data.synth", "class_counts", [1, 1, 1, 1, 1]),
    ]

    # ids from the case itself, so a case added anywhere renames no other
    @pytest.mark.parametrize("section, key, value", BAD_VALUES,
                             ids=[f"{section}-{key}-{value}" for section, key, value in BAD_VALUES])
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

    def test_output_dir_of_a_surrogate_escaped_byte_runs(self, tmp_path, monkeypatch):
        # "\udcff" is how Python decodes the file-name byte 0xff: a valid path
        monkeypatch.chdir(tmp_path)
        assert main(["run", "--config", str(tiny_config(tmp_path, output_dir="o\udcff"))]) == 0
        assert (tmp_path / os.fsdecode(b"o\xff") / "summary.csv").exists()

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

    def test_split_failing_at_some_seeds_fails_only_their_cells_naming_the_key(self, tmp_path):
        # at the paper's shape, train_fraction 0.8 leaves no test group at seeds 0, 1, 2, 5
        # and 8 (split_seed + seed), and splits at seeds 3, 4, 6, 7 and 9
        doc = json.loads(TestPaperShapedConfigs.CONFIGS.joinpath("paper_shaped.json").read_text())
        doc["data"]["synth"]["train_fraction"] = 0.8
        doc.update(train_web={"epochs": 1}, train_clean={"epochs": 1}, seeds=[0, 3])
        cfg, out = tmp_path / "paper.json", tmp_path / "out"
        cfg.write_text(json.dumps(doc))
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 1
        rows = read_summary(out / "summary.csv")
        assert {(r["seed"], r["status"]) for r in rows} == {("0", "failed"), ("3", "ok")}
        for row in rows:
            if row["seed"] == "0":
                assert row["error"] == ("ValidationError: data.synth.train_fraction leaves no "
                                        "test groups at split seed 200")

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
            assert [p.name for p in (out / arm / "0").iterdir()] == ["error.txt"]
            assert (out / arm / "0" / "error.txt").read_bytes() == rows[arm]["error"].encode()

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

    def test_web_id_of_a_lone_surrogate_exits_2_naming_the_file_without_output(
            self, tmp_path, capsys):
        cfg, data_dir = self.file_config(tmp_path, arms=["BL1", "BL2"], seeds=[0, 1])
        path = data_dir / "web.json"
        doc = json.loads(path.read_text())
        doc["bags"][0]["members"][0]["id"] = "\ud800"  # json.dumps writes it escaped
        path.write_text(json.dumps(doc))
        out = tmp_path / "out"
        capsys.readouterr()
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"{path}: query and member ids must be UTF-8 text" in err
        assert "Traceback" not in err and not out.exists()

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
        assert captured.err == (f"error: {data / 'clean_test.csv'}, {ckpt}: row {first!r}: its "
                                f"features overflow the model (non-finite posterior)\n")
        assert captured.out == "" and not out.exists()

    def test_checkpoint_of_a_nan_parameter_exits_2_naming_it(self, tmp_path, capsys):
        ckpt, out = tmp_path / "m.wslckpt", tmp_path / "out"
        save_checkpoint(init_params(ModelConfig(input_dim=4, hidden_sizes=[2],
                                                num_classes=3)), ckpt)
        ckpt.write_bytes(ckpt.read_bytes()[:-8] + np.array([np.nan], "<f8").tobytes())  # last bias
        assert main(["eval", "--checkpoint", str(ckpt), "--data", str(tmp_path / "d.csv"),
                     "--out", str(out)]) == 2
        assert f"error: {ckpt}: non-finite parameter" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_feature_exits_2_naming_its_line(self, tmp_path, capsys, value):
        ckpt, data, out = tmp_path / "m.wslckpt", tmp_path / "nan.csv", tmp_path / "out"
        save_checkpoint(init_params(ModelConfig(input_dim=2, hidden_sizes=[2],
                                                num_classes=2)), ckpt)
        data.write_text(f"id,group_id,label,f0,f1\na,g,0,1.0,2.0\nb,g,1,{value},2.0\n")
        assert main(["eval", "--checkpoint", str(ckpt), "--data", str(data),
                     "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {data}: line 3: non-finite feature\n"
        assert not out.exists()

    def test_missing_checkpoint_exits_nonzero_without_output(self, tmp_path):
        eval_dir = tmp_path / "eval"
        code = main(["eval", "--checkpoint", str(tmp_path / "nope.wslckpt"),
                     "--data", str(tmp_path / "nope.csv"),
                     "--out", str(eval_dir)])
        assert code == 2
        assert not eval_dir.exists()


class TestEstimateNoise:
    # what estimate-noise prints after "wrote <out>" for the default synth corpus and
    # the BL1 stage-1 checkpoint of a default run at seed 0
    DEFAULT_STDOUT = (
        "row sums: ['1.000000000000', '1.000000000000', '1.000000000000', '1.000000000000', "
        "'1.000000000000']\n"
        "diagonally dominant rows: [True, True, True, True, True] (all: True)\n"
        "  0.999974 0.000001 0.000014 0.000000 0.000012\n"
        "  0.000000 0.999997 0.000003 0.000000 0.000000\n"
        "  0.000000 0.000000 1.000000 0.000000 0.000000\n"
        "  0.000003 0.000000 0.000000 0.999995 0.000002\n"
        "  0.000000 0.000004 0.000036 0.000000 0.999960\n")

    def test_stdout_at_the_default_config(self, tmp_path, capsys):
        cfg, data, runs = tmp_path / "bl1.json", tmp_path / "data", tmp_path / "runs"
        cfg.write_text(json.dumps({"arms": ["BL1"]}))  # BL1 trains as in a run of every arm
        assert main(["synth", "--out", str(data)]) == 0
        assert main(["run", "--config", str(cfg), "--out", str(runs), "--seed", "0"]) == 0
        ckpt, out = runs / "BL1/0/stage1/checkpoint.wslckpt", tmp_path / "transition.json"
        capsys.readouterr()
        assert main(["estimate-noise", "--checkpoint", str(ckpt), "--web", str(data / "web.json"),
                     "--out", str(out)]) == 0
        assert capsys.readouterr().out == f"wrote {out}\n" + self.DEFAULT_STDOUT

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

    @pytest.mark.parametrize("where", ["member", "query"])
    def test_id_of_a_lone_surrogate_exits_2_naming_the_file(self, tmp_path, capsys, where):
        ckpt = tmp_path / "m.wslckpt"
        save_checkpoint(init_params(ModelConfig(input_dim=2, hidden_sizes=[3],
                                                num_classes=2)), ckpt)
        web = tmp_path / "web.json"
        save_web_corpus(WebCorpus(query_ids=["q0", "q1"], labels=[0, 1], offsets=[0, 1, 2],
                                  member_ids=["m0", "m1"], X=[[0.1, 0.2], [0.3, 0.4]],
                                  num_classes=2), web)
        text = web.read_text()
        web.write_text(text.replace('"m1"' if where == "member" else '"q1"', '"\\udc80"'))
        out = tmp_path / "t.json"
        assert main(["estimate-noise", "--checkpoint", str(ckpt), "--web", str(web),
                     "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"{web}: query and member ids must be UTF-8 text" in err
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

    def test_corpus_of_other_feature_dim_exits_2_naming_both_files(self, tmp_path, capsys):
        ckpt = tmp_path / "m.wslckpt"
        save_checkpoint(init_params(ModelConfig(input_dim=8, hidden_sizes=[2],
                                                num_classes=3)), ckpt)
        data = tmp_path / "data"
        assert main(["synth", "--config", str(tiny_config(tmp_path)), "--out", str(data)]) == 0
        out = tmp_path / "t.json"
        capsys.readouterr()
        assert main(["estimate-noise", "--checkpoint", str(ckpt), "--web",
                     str(data / "web.json"), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert str(data / "web.json") in err and str(ckpt) in err
        assert "feature_dim 4" in err and "input_dim 8" in err
        assert "batch shape" not in err and not out.exists()


def synth_files(tmp_path, name, **synth):
    """The files ``webly synth`` writes to ``tmp_path / name`` for the tiny
    config (4 features, 3 classes) with ``synth`` over its data.synth."""
    doc = json.loads(tiny_config(tmp_path).read_text())
    doc["data"]["synth"].update(synth)
    cfg = tmp_path / f"{name}.json"
    cfg.write_text(json.dumps(doc))
    assert main(["synth", "--config", str(cfg), "--out", str(tmp_path / name)]) == 0
    return {"clean_train": tmp_path / name / "clean_train.csv",
            "clean_test": tmp_path / name / "clean_test.csv",
            "web": tmp_path / name / "web.json"}


class TestOneFitRule:
    """Every place where data meet a model rejects data of another feature_dim
    or class count with ``model.check_fit``'s one message; the verbs name the
    files it came from."""

    RUN_FILES = {  # a file input of other dims, and the data.synth it is made from
        "run-clean_test-features": ("clean_test", {"feature_dim": 5}),
        "run-web-features": ("web", {"feature_dim": 5}),
        "run-web-classes": ("web", {"num_classes": 4, "class_counts": [16, 12, 8, 8]}),
    }

    @staticmethod
    def message(d, k, model_dims):
        return (f"feature_dim {d} and num_classes {k} do not fit a model of "
                f"input_dim {model_dims[0]} and num_classes {model_dims[1]}")

    @pytest.mark.parametrize("site", ["train_stage", "train_stage-stacked",
                                      "estimate_transition", "evaluate", "eval",
                                      "estimate-noise", *RUN_FILES])
    def test_every_site_raises_the_one_message(self, tmp_path, capsys, site):
        files, out = synth_files(tmp_path, "data"), tmp_path / "out"
        model = init_params(ModelConfig(input_dim=8, hidden_sizes=[2], num_classes=3))
        ckpt = tmp_path / "m.wslckpt"
        save_checkpoint(model, ckpt)
        ds, web = load_dataset(files["clean_train"]), load_web_corpus(files["web"])
        want, cfg = self.message(4, 3, (8, 3)), train.TrainConfig(epochs=1, batch_size=8)
        calls = {
            "train_stage": lambda: train.train_stage(model, ds, cfg),
            "train_stage-stacked": lambda: train.train_stage(
                [model, model], train.SeedStack([ds, ds], [0, 1]), cfg, [None, None]),
            "estimate_transition": lambda: noise.estimate_transition(model, web),
            "evaluate": lambda: metrics.evaluate(model, ds),
        }
        if site in calls:
            with pytest.raises(ValidationError) as info:
                calls[site]()
            assert str(info.value) == want
            assert web.access_count == 0  # a corpus that does not fit is never flattened
            return
        capsys.readouterr()
        if site == "eval":
            argv = ["eval", "--checkpoint", str(ckpt), "--data", str(files["clean_test"]),
                    "--out", str(out), "--export-features"]
            want = f"{files['clean_test']}, {ckpt}: {want}"
        elif site == "estimate-noise":
            argv = ["estimate-noise", "--checkpoint", str(ckpt), "--web", str(files["web"]),
                    "--out", str(out)]
            want = f"{files['web']}, oracle {ckpt}: {want}"
        else:  # run on file inputs sizes the model from clean_train: 4 features, 3 classes
            name, synth = self.RUN_FILES[site]
            files[name] = synth_files(tmp_path, "other", **synth)[name]
            doc = json.loads(tiny_config(tmp_path, arms=["BL1", "BL2"]).read_text())
            doc["data"] = {key: str(path) for key, path in files.items()}
            cfg_path = tmp_path / "files.json"
            cfg_path.write_text(json.dumps(doc))
            argv = ["run", "--config", str(cfg_path), "--out", str(out)]
            d, k = synth.get("feature_dim", 4), synth.get("num_classes", 3)
            want = (f"{files[name]}: {self.message(d, k, (4, 3))} "
                    f"(sized by {files['clean_train']})")
        assert main(argv) == 2
        assert capsys.readouterr().err == f"error: {want}\n"
        assert not out.exists()


class TestNamedSources:
    """A verb puts the config file, and the key's section, in front of the
    error it fails with: each case pins the whole line."""

    CASES = {  # the config text, the verb, and the error after "<config>: "
        "not-json": ("not json", "run",
                     "cannot read a JSON document: Expecting value: line 1 column 1 (char 0)"),
        "unknown-key": ('{"train_web": {"epoch": 1}}', "run",
                        "unknown config key train_web.epoch"),
        "hidden-sizes-over-the-bound": (
            '{"model": {"hidden_sizes": [10000000000]}}', "run",
            "model.hidden_sizes [10000000000] with input_dim 8 and num_classes 5 pack "
            "140000000005 parameters, more than the 134217728 a model holds"),
        "class-means-shape": (
            '{"data": {"synth": {"class_means": [[1, 2]]}}}', "run",
            "data.synth.class_means must be num_classes x feature_dim = 5 x 8, "
            "got shape (1, 2)"),
        "synth-no-test-group": ('{"data": {"synth": {"train_fraction": 0.99}}}', "synth",
                                "data.synth.train_fraction leaves no test groups at split "
                                "seed 200"),
    }

    @pytest.mark.parametrize("case", CASES)
    def test_exits_2_with_the_one_line(self, tmp_path, capsys, case):
        text, verb, message = self.CASES[case]
        cfg, out = tmp_path / "config.json", tmp_path / "out"
        cfg.write_text(text)
        assert main([verb, "--config", str(cfg), "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {cfg}: {message}\n"
        assert not out.exists()


class TestReport:
    def test_reaggregates_existing_run_directory(self, tmp_path):
        cfg = tiny_config(tmp_path, arms=["BL1", "BL2"], seeds=[0, 1])
        out = tmp_path / "runs"
        main(["run", "--config", str(cfg), "--out", str(out)])
        original = (out / "summary.csv").read_text()
        (out / "summary.csv").unlink()
        assert main(["report", "--runs", str(out)]) == 0
        assert (out / "summary.csv").read_text() == original

    @staticmethod
    def seed_1_fails_its_data_build(monkeypatch):
        real = cli.build_cell_data

        def seed_1_fails(config, seed):
            if seed == 1:  # error.txt keeps its line ends as they are
                raise WeblyError("no data\r\nfor seed 1\n")
            return real(config, seed)

        monkeypatch.setattr(cli, "build_cell_data", seed_1_fails)

    @staticmethod
    def seed_1_bl1_overflows_in_evaluation(monkeypatch):
        real = cli.run_seeds

        def huge_bl1(*args, **kwargs):
            cells = real(*args, **kwargs)
            cells[1]["BL1"].stages[-1].params.flat[...] *= 1e120
            return cells

        monkeypatch.setattr(cli, "run_seeds", huge_bl1)

    @pytest.mark.parametrize("case", [
        # arms and seeds in another order than the recipe table's and ascending
        ("arms-out-of-order", {"arms": ["BL2", "BL1"], "seeds": [0, 1]}, None),
        ("seeds-out-of-order", {"seeds": [2, 0, 1]}, None),
        ("failed-data-build", {"arms": ["BL1", "BL2"], "seeds": [0, 1, 2]},
         seed_1_fails_its_data_build),
        # three layers, so weights scaled by 1e120 overflow the logits
        ("failed-evaluation", {"model": {"hidden_sizes": [16, 16]}, "seeds": [0, 1]},
         seed_1_bl1_overflows_in_evaluation),
    ], ids=lambda case: case[0])
    def test_rewrites_what_run_wrote(self, tmp_path, capsys, monkeypatch, case):
        _, overrides, fault = case
        if fault is not None:
            fault(monkeypatch)
        out = tmp_path / "runs"
        assert main(["run", "--config", str(tiny_config(tmp_path, **overrides)),
                     "--out", str(out)]) == (0 if fault is None else 1)
        printed = capsys.readouterr().out
        written = {name: (out / name).read_bytes() for name in ("summary.csv", "verdicts.csv")}
        for name in written:
            (out / name).unlink()
        assert main(["report", "--runs", str(out)]) == 0
        assert {name: (out / name).read_bytes() for name in written} == written
        rows = read_summary(out / "summary.csv")
        assert capsys.readouterr().out == (
            printed + f"wrote {out / 'summary.csv'} ({len(rows)} rows)\n")
        assert [(r["arm"], int(r["seed"])) for r in rows] == sorted(
            ((r["arm"], int(r["seed"])) for r in rows), key=lambda c: (cli.ARMS.index(c[0]), c[1]))
        assert len(rows) == len(overrides.get("arms", ["BL1"])) * len(overrides["seeds"])

    def test_directory_without_arm_directories_exits_2_writing_nothing(self, tmp_path, capsys):
        self.write_cells(tmp_path / "a", "0")  # a parent of several runs
        (tmp_path / "summary.csv").write_bytes(b"arm,seed\r\nBL1,0\r\n")
        assert main(["report", "--runs", str(tmp_path)]) == 2
        assert capsys.readouterr().err == (
            f"error: run directory {tmp_path} holds none of BL1, BL2, Proposed\n")
        assert (tmp_path / "summary.csv").read_bytes() == b"arm,seed\r\nBL1,0\r\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["a", "summary.csv"]

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

    def test_missing_run_directory_exits_2_naming_it(self, tmp_path, capsys):
        runs = tmp_path / "runs"
        assert main(["report", "--runs", str(runs)]) == 2
        assert f"error: run directory {runs} not found" in capsys.readouterr().err
        assert not runs.exists()

    def test_skips_non_arm_directories_and_fails_a_cell_without_eval_json(self, tmp_path):
        self.write_cells(tmp_path, "0")
        (tmp_path / "BL1" / "1").mkdir()
        (tmp_path / "notes" / "0").mkdir(parents=True)
        (tmp_path / "notes" / "0" / "eval.json").write_text(
            (tmp_path / "BL1" / "0" / "eval.json").read_text())
        assert main(["report", "--runs", str(tmp_path)]) == 0
        assert [(r["arm"], r["seed"], r["status"], r["error"])
                for r in read_summary(tmp_path / "summary.csv")] == [
            ("BL1", "0", "ok", ""), ("BL1", "1", "failed", "missing eval.json")]

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


class TestVerdicts:
    """``run`` and ``report`` write verdicts.csv beside summary.csv: per pair of
    arms, the paired accuracy difference over the seeds where both cells are ok."""

    @staticmethod
    def write_accuracies(root, accuracies):
        for (arm, seed), accuracy in accuracies.items():
            (root / arm / str(seed)).mkdir(parents=True)
            (root / arm / str(seed) / "eval.json").write_text(json.dumps(
                {"accuracy": accuracy, "macro_recall": 0.5, "kappa": 0.25, "auc_mean": None}))

    def test_known_differences_give_their_mean_se_and_t(self):
        accuracies = {"BL1": [0.5, 0.25], "BL2": [0.75, 1.0], "Proposed": [0.5, 0.25]}
        rows = [cli._summary_row(arm, seed, dict.fromkeys(cli.SCORES, accuracy))
                for arm, column in accuracies.items() for seed, accuracy in enumerate(column)]
        # differences [0.25, 0.75]: mean 0.5, sample std sqrt(0.125), SE that over sqrt(2)
        assert cli._verdicts(rows) == [
            {"earlier": "BL1", "later": "BL2", "accuracy_diff": 0.5, "se": 0.25, "t": 2.0,
             "n": 2, "left_out": 0},
            {"earlier": "BL1", "later": "Proposed", "accuracy_diff": 0.0, "se": None,
             "t": None, "n": 2, "left_out": 0},
            {"earlier": "BL2", "later": "Proposed", "accuracy_diff": -0.5, "se": 0.25,
             "t": -2.0, "n": 2, "left_out": 0}]

    def test_failed_cell_is_left_out_and_counted(self, tmp_path, capsys):
        self.write_accuracies(tmp_path, {("BL1", 0): 0.5, ("BL1", 1): 0.25, ("BL1", 2): 0.5,
                                         ("BL2", 0): 0.75, ("BL2", 1): 1.0})
        (tmp_path / "BL2" / "2").mkdir()  # no eval.json: a failed cell
        assert main(["report", "--runs", str(tmp_path)]) == 0
        assert (tmp_path / "verdicts.csv").read_bytes() == (
            b"earlier,later,accuracy_diff,se,t,n,left_out\r\nBL1,BL2,0.5,0.25,2.0,2,1\r\n")
        out = capsys.readouterr().out
        aggregates = out.index("per-arm aggregates")
        assert out.index("  BL2 - BL1: diff=0.5000 se=0.2500 t=2.0000 (n=2, left out 1)\n",
                         aggregates) > aggregates

    def test_one_seed_leaves_se_and_t_undefined_in_run_and_report(self, tmp_path, capsys):
        out = tmp_path / "runs"
        cfg = tiny_config(tmp_path, arms=["BL1", "BL2"], seeds=[0])
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
        printed = capsys.readouterr().out
        rows = read_summary(out / "summary.csv")
        diff = float(rows[1]["accuracy"]) - float(rows[0]["accuracy"])
        written = (out / "verdicts.csv").read_bytes()
        assert written == ("earlier,later,accuracy_diff,se,t,n,left_out\r\n"
                           f"BL1,BL2,{diff!r},,,1,0\r\n").encode()
        assert f"  BL2 - BL1: diff={diff:.4f} se=n/a t=n/a (n=1, left out 0)\n" in printed
        (out / "verdicts.csv").unlink()
        assert main(["report", "--runs", str(out)]) == 0
        assert (out / "verdicts.csv").read_bytes() == written


def reference_write_summary(rows, path):
    """The summary.csv writer that wrote the rows with ``csv.DictWriter``."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=cli.SUMMARY_FIELDS)
        writer.writeheader()
        writer.writerows(rows)


class TestSummaryCsv:
    SCORES = st.fixed_dictionaries({"accuracy": csv_floats, "macro_recall": csv_floats,
                                    "kappa": csv_floats, "auc_mean": st.none() | csv_floats})

    @settings(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(rows=st.lists(st.builds(cli._summary_row, st.sampled_from(cli.ARMS),
                                   st.integers(0, 2**63), st.none() | SCORES,
                                   csv_texts | st.text()), max_size=4))
    def test_rows_of_any_error_text_as_csv_dictwriter_writes_them(self, tmp_path, rows):
        assert (csv_outcome(cli._write_summary, tmp_path / "new.csv", rows)
                == csv_outcome(reference_write_summary, tmp_path / "old.csv", rows))


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


class TestPaperShapedConfigs:
    """The committed paper-shaped configs: 10 classes of the paper's skin-lesion
    counts, 16 features and 5 groups per class, everything else at the
    default; the twin's crawl noise is pair-flip 0.6."""

    CONFIGS = Path(__file__).resolve().parent.parent / "configs"

    @pytest.mark.parametrize("name", ["paper_shaped.json", "paper_shaped_pairflip.json"])
    def test_config_loads_and_builds_seed_0_at_the_paper_shape(self, name):
        config = load_config(str(self.CONFIGS / name))
        clean_train, clean_test, web = cli.build_cell_data(config, 0)
        assert (len(clean_train), len(clean_test), len(web.member_ids)) == (779, 520, 15580)
        assert clean_train.num_classes == 10 and clean_train.feature_dim == 16
        kernel = cli.synth_specs(config["data"]["synth"])[1].cross_category_kernel
        if name == "paper_shaped.json":  # the default uniform kernel, diagonal 0.7
            want = np.full((10, 10), (1 - 0.7) / 9)
            np.fill_diagonal(want, 0.7)
        else:
            want = 0.6 * np.eye(10) + 0.4 * np.roll(np.eye(10), 1, axis=1)
        assert np.array_equal(kernel, want)


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

    # SHA-256 of the reports of that run, made with SOURCE_DATE_EPOCH=0
    REPORT_SHA256 = {
        "BL1/0/eval.csv": "df0ad143315d9163a982012f4ebc87769110b04fbb9aaa9cc63f0bcec1375339",
        "BL2/0/eval.csv": "7717affa03e4c276c59e6624613d10be6996f9d48d8ef2f0e1a54f62cd198aa6",
        "Proposed/0/eval.csv": "9e55cae432ceb710821ca0516f1babc066a0be1d0dcd0f2e65f2a3d9f918a553",
        "BL1/0/eval.json": "52052856f0c2f76655691c101b0945c33c4ebe2fb7ab9e427eca557c09204d13",
        "BL2/0/eval.json": "765bc982b5fcdf952ed8dadc6bba9d867f272f741b2b55ca3971db30584d8eb2",
        "Proposed/0/eval.json": "fc390707de71e0a407d19f1a23c902d7fe0064a6509ef4e1c88aa18458ebabd7",
        "BL1/0/provenance.json":
            "2d8aec29db41c67b67a3180582508d5a19f7ea36f97cfb2d84d6b019861255d8",
        "BL2/0/provenance.json":
            "cbe79a2ad52f6b41d4f8d3391c79cdd2c13c43d799bd995ccdd6fdb52f187c8c",
        "Proposed/0/provenance.json":
            "776fb8210fd52acd54deefd89c19533b75f7ea9740ddd377caac415ed65ac461",
        "summary.csv": "9e8dd08fe7481a93e5d5ffd1ca4d75d8c1ac3f451a143bc7053c352570bfa1a4",
    }

    @pytest.fixture(scope="class")
    def default_run(self, tmp_path_factory):
        out = tmp_path_factory.mktemp("default") / "runs"
        with pytest.MonkeyPatch.context() as mp:
            mp.setenv("SOURCE_DATE_EPOCH", "0")
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

    def test_run_report_bytes(self, default_run):
        got = {name: hashlib.sha256((default_run / name).read_bytes()).hexdigest()
               for name in self.REPORT_SHA256}
        assert got == self.REPORT_SHA256

    def test_effective_config_bytes(self, default_run):
        # it holds the run's tmp output path, so it is checked against its own reading
        text = (default_run / "effective_config.json").read_text()
        assert text == json.dumps(json.loads(text), sort_keys=True, indent=2) + "\n"
        assert json.loads(text) == {**DEFAULT_CONFIG, "output_dir": str(default_run)}

    # SHA-256 of the files of ``estimate-noise`` and ``eval --export-features`` run on
    # the default synth data with that run's BL1 stage-1 checkpoint (SOURCE_DATE_EPOCH=0)
    VERB_SHA256 = {
        "transition.json": "c7ee4dac9ddca1998d965c328f04092502a6e5eb25d45dfa99045afdfcccb019",
        "eval/eval.json": "2e7ac8acbdc98e9da4f5e45e5ddb4309ae7a60a03a8559a14df1f8bcb394adac",
        "eval/eval.csv": "df0ad143315d9163a982012f4ebc87769110b04fbb9aaa9cc63f0bcec1375339",
        "eval/features.csv": "7da593034513e68994d0560e3620f451552b06d3c9d1376b1cbc718c2e1f4a39",
    }

    def test_estimate_noise_and_eval_bytes(self, default_run, tmp_path, monkeypatch):
        monkeypatch.setenv("SOURCE_DATE_EPOCH", "0")
        data, ckpt = tmp_path / "data", default_run / "BL1/0/stage1/checkpoint.wslckpt"
        assert main(["synth", "--out", str(data)]) == 0
        assert main(["estimate-noise", "--checkpoint", str(ckpt), "--web", str(data / "web.json"),
                     "--out", str(tmp_path / "transition.json")]) == 0
        assert main(["eval", "--checkpoint", str(ckpt), "--data", str(data / "clean_test.csv"),
                     "--out", str(tmp_path / "eval"), "--export-features"]) == 0
        got = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
               for name in self.VERB_SHA256}
        assert got == self.VERB_SHA256

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
