#!/usr/bin/env python3
"""Benchmark of the webly toolkit through its public CLI verbs.

Run from the root of a checkout:

    python3 perfbench/run.py --workload grid-default --seed 0 --seconds 40 --trace 0

Workloads (see perfbench/README.md for why each exists):

* ``grid-default``: ``webly run`` over arms BL1, BL2, Proposed and five seeds
  at the default config, one ``webly run`` per seed.
* ``files-io``: ``webly synth``, ``webly estimate-noise`` and ``webly eval
  --export-features`` at ``class_counts`` x10, against an oracle checkpoint
  trained in set-up by a BL1 run on the written CSVs.

Everything runs in this one process, serially, with BLAS pinned to one
thread.  The host's speed drifts, so every measured stretch of work is
followed by a sample of the fixed loop of ``reference.py``, and its wall time
is scaled by the mean of the samples on either side of it.  Set-up (imports,
configs, a warm-up run or the oracle training) is repeated and its median
reported as ``setup_s``; the imports are not scaled.  The timed part is then
repeated while the ``--seconds`` budget lasts, and ``wall_s`` is the number
of stretches in one iteration (the five seeds, or one) times the median
scaled stretch.  Every iteration's outputs are hashed: at the default seed
against ``golden.json``, on every seed against the run's first iteration.  A
cell or verb with a non-ok status, a non-zero exit or a digest mismatch
counts as failed.

With ``--trace 1`` the iterations alternate between untraced and traced, and
the per-module metrics of ``tracing.py`` are reported instead of the
end-to-end ones; they are not scaled.  The last line of standard output is
one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.
"""

import time

_START = time.perf_counter()

import argparse
import contextlib
import copy
import csv
import gc
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import traceback
from pathlib import Path

import reference
import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DEFAULT_SEED = 0
SETUP_REPS = 3
BLAS_THREADS = 1
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# The toolkit's default experiment, pinned here so that a change of the
# program's defaults does not silently change the benchmark's inputs.
BASE_CONFIG = {
    "model": {"hidden_sizes": [16, 16], "dropout_keep_prob": 0.8,
              "init_seed": 0, "init_scale": "sqrt_2_over_fan_in"},
    "train_web": {"epochs": 20, "batch_size": 32, "learning_rate_init": 0.01,
                  "momentum": 0.9, "lr_decay_factor": 0.5,
                  "lr_decay_every": 10, "shuffle_seed": 0,
                  "dropout_keep_prob": 0.8},
    "train_clean": {"epochs": 40, "batch_size": 16, "learning_rate_init": 0.01,
                    "momentum": 0.9, "lr_decay_factor": 0.5,
                    "lr_decay_every": 10, "shuffle_seed": 1,
                    "dropout_keep_prob": 0.8},
    "loss": {"renormalize_modulated": False},
    "data": {"synth": {
        "num_classes": 5, "feature_dim": 8,
        "class_counts": [120, 80, 80, 40, 20], "class_means": None,
        "separation": 2.4, "sigma": 1.0, "groups_per_class": 10,
        "seed": 100, "train_fraction": 0.5, "split_seed": 200,
        "noise": {"cross_category_kernel": None, "diagonal": 0.7,
                  "cross_domain_rate": 0.2, "bag_size": 20, "seed": 300},
        "background": {"mean_offset": 6.0, "scale": 1.5},
    }},
}

WORKLOADS = {
    "grid-default": {"arms": ["BL1", "BL2", "Proposed"], "seeds": 5,
                     "overrides": {}},
    "files-io": {"arms": ["BL1"], "seeds": 1,
                 "overrides": {"data": {"synth": {
                     "class_counts": [1200, 800, 800, 400, 200]}}}},
}

# Tiny inputs for the benchmark's own tests; also the warm-up of set-up.
SMOKE = {"train_web": {"epochs": 2}, "train_clean": {"epochs": 3},
         "data": {"synth": {"class_counts": [12, 8, 8, 4, 2],
                            "groups_per_class": 2, "noise": {"bag_size": 4}}}}
SMOKE_SEEDS = 2

E2E_UNITS = {"setup_s": "s", "wall_s": "s", "items_per_s": "1/s",
             "peak_rss_mb": "MB", "test_accuracy": "frac"}


def merge(base: dict, override: dict) -> dict:
    out = copy.deepcopy(base)
    for key, value in override.items():
        if isinstance(value, dict) and isinstance(out.get(key), dict):
            out[key] = merge(out[key], value)
        else:
            out[key] = copy.deepcopy(value)
    return out


def input_sizes(spec: dict) -> tuple[int, int, int]:
    """(clean train rows, clean test rows, web members) of a synth spec.

    The benchmark's specs give every group the same size, so the program's
    greedy grouped split takes the first ceil(fraction x groups) groups.
    """
    groups = spec["groups_per_class"]
    if any(c % groups for c in spec["class_counts"]):
        raise ValueError("class counts must be multiples of groups_per_class")
    group_rows = sum(spec["class_counts"]) // groups
    total = group_rows * groups
    train_groups = next(g for g in range(1, groups + 1)
                        if g * group_rows >= spec["train_fraction"] * total)
    train = train_groups * group_rows
    return train, total - train, train * spec["noise"]["bag_size"]


# Training stages of each arm, in order.
STAGES = {"BL1": ["clean"], "BL2": ["web", "clean"],
          "Proposed": ["clean", "web", "clean"]}


def inputs_record(config: dict, arms: list[str], n_seeds: int,
                  files_io: bool) -> dict:
    """Input sizes of one timed iteration.  SGD example-visits are the sum
    over stages of epochs x stage size; steps are epochs x batches."""
    train, test, web = input_sizes(config["data"]["synth"])
    visits = steps = 0
    for arm in [] if files_io else arms:
        for stage in STAGES[arm]:
            rows, sec = (web, config["train_web"]) if stage == "web" \
                else (train, config["train_clean"])
            visits += sec["epochs"] * rows * n_seeds
            steps += sec["epochs"] * math.ceil(rows / sec["batch_size"]) * n_seeds
    return {"web_members": web, "clean_train_rows": train,
            "clean_test_rows": test, "sgd_steps": steps,
            "sgd_example_visits": visits}


def flops_per_row(config: dict) -> tuple[int, int]:
    """Matmul flops per row of forward and of backward for the MLP."""
    spec = config["data"]["synth"]
    sizes = [spec["feature_dim"]] + config["model"]["hidden_sizes"] \
        + [spec["num_classes"]]
    dims = list(zip(sizes[:-1], sizes[1:]))
    fwd = sum(2 * a * b for a, b in dims)
    bwd = fwd + sum(2 * a * b for a, b in dims[1:])
    return fwd, bwd


def sha256_file(path: Path) -> str | None:
    try:
        return hashlib.sha256(path.read_bytes()).hexdigest()
    except OSError:
        return None


def git_commit() -> str:
    """Commit of the checkout from .git, or "unknown" outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


@contextlib.contextmanager
def quiet(log_path: Path):
    """Send the program's stdout and stderr to ``log_path``."""
    sys.stdout.flush()
    sys.stderr.flush()
    saved = os.dup(1), os.dup(2)
    with open(log_path, "ab") as fh:
        os.dup2(fh.fileno(), 1)
        os.dup2(fh.fileno(), 2)
        try:
            yield
        finally:
            sys.stdout.flush()
            sys.stderr.flush()
            os.dup2(saved[0], 1)
            os.dup2(saved[1], 2)
            os.close(saved[0])
            os.close(saved[1])


class Bench:
    """One benchmark process: a workload at one seed."""

    def __init__(self, args, webly, work: Path):
        self.args = args
        self.webly = webly
        self.work = work
        self.log = work / "program.log"
        spec = WORKLOADS[args.workload]
        self.files_io = args.workload == "files-io"
        self.arms = spec["arms"]
        n_seeds = SMOKE_SEEDS if args.smoke and spec["seeds"] > 1 else spec["seeds"]
        self.seeds = [args.seed * n_seeds + i for i in range(n_seeds)]
        self.config = merge(BASE_CONFIG, spec["overrides"])
        if args.smoke:
            self.config = merge(self.config, SMOKE)
        self.config.update(arms=self.arms, seeds=self.seeds)
        golden = json.loads((HERE / "golden.json").read_text())
        golden = golden["smoke"] if args.smoke else golden
        self.golden = golden[args.workload] if args.seed == DEFAULT_SEED else None
        self.first_digests: dict[str, str] = {}
        self.attempted = 0
        self.failed = 0
        self.accuracy: float | None = None
        self.tracer = tracing.Tracer() if args.trace else None
        self.traced = False
        self.stretches = 1 if self.files_io else len(self.seeds)
        self.refs: list[float] = []
        self.scaled: list[float] = []
        self.raw_wall = 0.0

    def verb(self, argv: list) -> int:
        """Run one CLI verb in this process; an exception counts as exit 1."""
        argv = [str(a) for a in argv]
        with quiet(self.log):
            try:
                if not self.traced:
                    return self.webly.cli.main(argv)
                with self.tracer.span(f"cli.verb.{argv[0]}"):
                    return self.webly.cli.main(argv)
            except Exception:
                traceback.print_exc()
                return 1

    @staticmethod
    def write_json(path: Path, doc: dict) -> Path:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(doc, sort_keys=True, indent=2))
        return path

    # -- set-up -----------------------------------------------------------

    def setup_once(self, rep: int) -> str | None:
        """Write configs, then warm up (grid-default) or train the oracle
        (files-io).

        Returns the oracle checkpoint's digest (None on grid-default)."""
        d = self.work / f"setup{rep}"
        seed = self.seeds[0]
        self.config_path = self.write_json(d / "config.json", self.config)
        if not self.files_io:
            warm = merge(merge(self.config, SMOKE), {"seeds": [seed]})
            argv = ["run", "--config", self.write_json(d / "warm.json", warm),
                    "--out", d / "warm", "--jobs", "1"]
            if self.verb(argv) != 0:
                raise RuntimeError("warm-up run failed")
            return None
        if self.verb(["synth", "--config", self.config_path,
                      "--out", d / "data", "--seed", seed]) != 0:
            raise RuntimeError("set-up synth failed")
        run_config = merge({k: v for k, v in self.config.items() if k != "data"},
                           {"data": {"clean_train": str(d / "data/clean_train.csv"),
                                     "clean_test": str(d / "data/clean_test.csv")}})
        if self.verb(["run", "--config", self.write_json(d / "run.json", run_config),
                      "--out", d / "runs", "--seed", seed, "--jobs", "1"]) != 0:
            raise RuntimeError("oracle training run failed")
        self.oracle = d / "runs" / "BL1" / str(seed) / "stage1" / "checkpoint.wslckpt"
        return sha256_file(self.oracle)

    def setup(self, import_s: float) -> tuple[float, float, bool]:
        """(setup_s, setup_s unscaled, whether every repetition gave the same
        oracle).  Each repetition is scaled like a stretch of the timed part;
        the imports are not, because they read files more than they compute
        and do not follow the reference loop's speed."""
        self.refs = [reference.sample()]
        raw, oracles = [], set()
        for rep in range(SETUP_REPS):
            self.raw_wall = 0.0
            oracles.add(self.stretch(lambda: self.setup_once(rep)))
            raw.append(self.raw_wall)
        setup = self.scaled[:]
        self.scaled.clear()
        return (import_s + statistics.median(setup),
                import_s + statistics.median(raw), len(oracles) == 1)

    def stretch(self, run):
        """Time ``run()`` as one stretch, then take a reference sample; return
        what ``run()`` returned.

        The stretch's wall time is added to ``self.raw_wall``, and the same
        time scaled by the mean of the reference samples on either side of
        it is appended to ``self.scaled``."""
        t0 = time.perf_counter()
        result = run()
        wall = time.perf_counter() - t0
        self.refs.append(reference.sample())
        self.raw_wall += wall
        self.scaled.append(wall * reference.NOMINAL_S / statistics.fmean(self.refs[-2:]))
        return result

    # -- timed part -------------------------------------------------------

    def iterate(self, out: Path) -> list[dict]:
        """Run the timed part once, as ``self.stretches`` stretches; return
        its operations.

        An operation is a cell or a verb: {"name", "ok", "files"}, where
        "files" maps a digest key to an output path.  grid-default runs one
        ``webly run`` per seed, each a stretch of its own, so that reference
        samples fall every few seconds; files-io is one stretch.
        """
        gc.collect()
        self.raw_wall = 0.0
        if self.files_io:
            outputs = {"synth": ["clean_train.csv", "clean_test.csv", "web.json"],
                       "estimate-noise": ["transition.json"],
                       "eval": ["eval/eval.json", "eval/eval.csv", "eval/features.csv"]}
            rcs = self.stretch(lambda: [
                self.verb(["synth", "--config", self.config_path, "--out", out,
                           "--seed", self.seeds[0]]),
                self.verb(["estimate-noise", "--checkpoint", self.oracle,
                           "--web", out / "web.json", "--out", out / "transition.json"]),
                self.verb(["eval", "--checkpoint", self.oracle,
                           "--data", out / "clean_test.csv", "--out", out / "eval",
                           "--export-features"]),
            ])
            ops = [{"name": name, "ok": rc == 0,
                    "files": {f"{name}/{f}": out / f for f in files}}
                   for (name, files), rc in zip(outputs.items(), rcs)]
            with contextlib.suppress(OSError, ValueError, KeyError):
                doc = json.loads((out / "eval" / "eval.json").read_text())
                self.accuracy = float(doc["accuracy"])
            return ops

        rows = {}
        for seed in self.seeds:
            seed_out = out / f"seed{seed}"
            self.stretch(lambda: self.verb(["run", "--config", self.config_path,
                                            "--out", seed_out, "--seed", seed,
                                            "--jobs", "1"]))
            with contextlib.suppress(OSError, ValueError, KeyError):
                with open(seed_out / "summary.csv", newline="", encoding="utf-8") as fh:
                    rows.update({(r["arm"], int(r["seed"])): r for r in csv.DictReader(fh)})
        ops, accs = [], []
        for arm in self.arms:
            for seed in self.seeds:
                ok = rows.get((arm, seed), {}).get("status") == "ok"
                cell = out / f"seed{seed}" / arm / str(seed)
                ops.append({"name": f"{arm}/{seed}", "ok": ok,
                            "files": {f"{arm}/{seed}/{p.parent.name}": p
                                      for p in sorted(cell.glob("stage*/checkpoint.wslckpt"))}})
                if ok and arm == "Proposed":
                    accs.append(float(rows[(arm, seed)]["accuracy"]))
        if accs:
            self.accuracy = statistics.fmean(accs)
        return ops

    def check(self, ops: list[dict]) -> None:
        """Count failed operations: bad status, or a digest that differs from
        the golden one (default seed) or from the run's first iteration."""
        if self.args.inject_fault:
            path = next((p for op in ops for p in op["files"].values() if p.is_file()), None)
            if path is not None:
                blob = bytearray(path.read_bytes())
                blob[-1] ^= 0x01
                path.write_bytes(bytes(blob))
        for op in ops:
            digests = {key: sha256_file(p) for key, p in op["files"].items()}
            ok = op["ok"] and None not in digests.values()
            if self.golden is not None:
                prefix = op["name"] + "/"
                expected = {k: v for k, v in self.golden.items() if k.startswith(prefix)}
                ok = ok and digests == expected
            for key, digest in digests.items():
                if self.first_digests.setdefault(key, digest) != digest:
                    ok = False
            self.attempted += 1
            self.failed += not ok

    def measure(self) -> dict:
        """Repeat the timed part while ``--seconds`` lasts.

        Untraced runs repeat it untraced; traced runs alternate untraced and
        traced iterations, so the pair ratio gives the tracing overhead."""
        fwd, bwd = flops_per_row(self.config)
        modes = [False, True] if self.tracer is not None else [False]
        walls: dict[bool, list[float]] = {False: [], True: []}
        scaled_stretches: list[float] = []
        self.scaled.clear()
        layer_runs, spans = [], []
        start = time.perf_counter()
        k = 0
        while True:
            traced = modes[k % len(modes)]
            out = self.work / f"iter{k}"
            if traced:
                tracing.install(self.tracer, self.webly)
            self.traced = traced
            try:
                ops = self.iterate(out)
            finally:
                self.traced = False
                if traced:
                    self.tracer.unwrap_all()
            wall = self.raw_wall
            walls[traced].append(wall)
            if not traced:
                scaled_stretches.extend(self.scaled)
            self.scaled.clear()
            self.check(ops)
            shutil.rmtree(out, ignore_errors=True)
            if traced:
                spans = self.tracer.take()
                layer_runs.append(tracing.iteration_metrics(spans, wall, fwd, bwd))
            k += 1
            elapsed = time.perf_counter() - start
            # Start another iteration if at least half of one still fits.
            if k >= len(modes) and elapsed * (k + 0.5) / k > self.args.seconds:
                break
        return {"walls": walls, "scaled_stretches": scaled_stretches,
                "layer_runs": layer_runs, "spans": spans, "iterations": k}


def layer_metrics(tracer: tracing.Tracer, m: dict) -> dict:
    """Median over traced iterations of each per-module metric, plus the
    trace's own wall time and overhead."""
    absent = set(tracing.absent_metrics(tracer))
    metrics = {}
    for name, (unit, _) in tracing.METRICS.items():
        if name not in absent:
            pick = statistics.median_low if unit in ("count", "bytes") \
                else statistics.median
            metrics[name] = {"value": pick(run[name] for run in m["layer_runs"]),
                             "unit": unit}
    untraced, traced = m["walls"][False], m["walls"][True]
    metrics["trace.wall_s"] = {"value": statistics.median(traced), "unit": "s"}
    ratios = [t / u for u, t in zip(untraced, traced)]
    metrics["trace.overhead_frac"] = {"value": statistics.median(ratios) - 1.0,
                                      "unit": "frac"}
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs, for the benchmark's own tests")
    parser.add_argument("--inject-fault", action="store_true",
                        help="flip one byte of an output after every iteration, "
                             "to test the digest check")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    src = ROOT / "src"
    if not (src / "webly" / "__init__.py").is_file():
        print(f"error: {src}/webly not found; run from the root of a webly "
              "checkout", file=sys.stderr)
        return 2
    for var in BLAS_VARS:
        os.environ[var] = str(BLAS_THREADS)
    os.environ["SOURCE_DATE_EPOCH"] = "0"
    sys.path.insert(0, str(src))
    import numpy
    import webly
    import webly.cli
    import webly.metrics
    import webly.model
    import webly.noise
    import webly.train
    if Path(webly.__file__).resolve().parent != (src / "webly").resolve():
        print(f"error: imported webly from {webly.__file__}, not {src}",
              file=sys.stderr)
        return 2
    import_s = time.perf_counter() - _START

    work = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    bench = Bench(args, webly, work)
    try:
        setup_s, raw_setup_s, setup_consistent = bench.setup(import_s)
        m = bench.measure()
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.stderr.write((work / "program.log").read_text()[-4000:])
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()

    inputs = inputs_record(bench.config, bench.arms, len(bench.seeds), bench.files_io)
    env = {
        "workload": args.workload, "seed": args.seed, "webly_seeds": bench.seeds,
        "smoke": args.smoke, "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas_threads": BLAS_THREADS, "python": platform.python_version(),
        "numpy": numpy.__version__, "git_commit": git_commit(),
        "inputs": inputs, "setup_reps": SETUP_REPS, "iterations": m["iterations"],
        "iteration_walls_s": {"untraced": m["walls"][False], "traced": m["walls"][True]},
        "raw_setup_s": raw_setup_s, "raw_wall_s": statistics.median(m["walls"][False]),
        "scaled_stretches_s": m["scaled_stretches"],
        "reference_s": {"nominal": reference.NOMINAL_S, "samples": bench.refs},
        "digest_check": "golden" if bench.golden is not None else "not applicable",
    }
    print("environment " + json.dumps(env, sort_keys=True))
    print("digests " + json.dumps(bench.first_digests, sort_keys=True))

    wall_s = bench.stretches * statistics.median(m["scaled_stretches"])
    if bench.files_io:
        items = 3 * inputs["web_members"] + inputs["clean_test_rows"]
    else:
        items = inputs["sgd_example_visits"]
    correct = bench.failed == 0 and setup_consistent and bench.accuracy is not None

    if args.trace:
        metrics = layer_metrics(bench.tracer, m)
        if bench.tracer.missing or bench.tracer.broken:
            print("missing " + json.dumps(sorted(bench.tracer.missing | bench.tracer.broken)))
            print("absent " + json.dumps(tracing.absent_metrics(bench.tracer)))
        out_dir = ROOT / ".bench_out"
        out_dir.mkdir(exist_ok=True)
        tracing.write_spans(m["spans"], out_dir / f"spans-{args.workload}-seed{args.seed}.csv")
    else:
        values = {
            "setup_s": setup_s,
            "wall_s": wall_s,
            "items_per_s": items / wall_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "test_accuracy": bench.accuracy if bench.accuracy is not None else 0.0,
        }
        metrics = {name: {"value": v, "unit": E2E_UNITS[name]}
                   for name, v in values.items()}

    for name, metric in metrics.items():
        print(f"{name} = {metric['value']!r} {metric['unit']}")
    print(f"ops_failed_frac = {bench.failed / bench.attempted!r} frac "
          f"({bench.failed} of {bench.attempted} cells or verbs)")
    if not bench.files_io and bench.accuracy is not None:
        print(f"accuracy_proposed = {bench.accuracy!r} frac")
    print(json.dumps({"correct": correct, "attempted": bench.attempted,
                      "failed": bench.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
