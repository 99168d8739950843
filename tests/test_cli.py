import csv
import gc
import importlib.util
import os
import pathlib
import subprocess
import sys
import weakref
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from cgankd import cgen, cli, m2_labeladjust, m3_distill, nncore
from cgankd.cli import (MANIFEST_HEADER, RUN_COLUMNS, ConfigError,
                        build_pipeline_config, load_config, main,
                        write_manifest)
from cgankd.synthdata import Dataset

TINY_CFG = """\
task=classification
data.n=240
data.classes=3
data.separation=3.0
data.noise_std=0.6
train_fraction=0.5
generator=oracle
oracle.flip=0.2
teacher.hidden=16
teacher.epochs=30
student.hidden=8
student.epochs=20
dr.hidden=16
dr.epochs=20
n_fake=300
rho=0.9
seed=0
"""


@pytest.fixture
def tiny_cfg(tmp_path):
    path = tmp_path / "tiny.cfg"
    path.write_text(TINY_CFG)
    return str(path)


def read(path):
    with open(path, newline="") as f:
        return list(csv.reader(f))


def test_unknown_key_rejected(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text(TINY_CFG + "bogus.key=1\n")
    assert main(["run", str(path), "--out-dir", str(tmp_path)]) == 2


def test_missing_config_exits_2(tmp_path):
    assert main(["run", str(tmp_path / "nope.cfg"),
                 "--out-dir", str(tmp_path)]) == 2


@pytest.mark.parametrize("head", ["", f"{MANIFEST_HEADER}\nseed=3\n---\n"],
                         ids=["config", "manifest-snapshot"])
def test_non_utf8_config_exits_2_and_writes_nothing(tmp_path, capsys, head):
    path = tmp_path / "bad.cfg"
    path.write_bytes(head.encode() + TINY_CFG.encode() + b"\xff\xfe\n")
    out = tmp_path / "out"
    out.mkdir()
    assert main(["run", str(path), "--out-dir", str(out)]) == 2
    assert f"cannot read config {path}:" in capsys.readouterr().err
    assert not any(out.iterdir())


def test_run_writes_single_row_report(tiny_cfg, tmp_path):
    out = tmp_path / "out"
    out.mkdir()
    assert main(["run", tiny_cfg, "--out-dir", str(out)]) == 0
    rows = read(out / "report.csv")
    assert len(rows) == 2  # header plus one data row
    assert rows[0][0] == "task"
    assert rows[1][0] == "classification"
    assert os.path.exists(out / "manifest.txt")


def test_run_seed_override_deterministic(tiny_cfg, tmp_path):
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        out.mkdir()
        assert main(["run", tiny_cfg, "--seed", "42",
                     "--out-dir", str(out)]) == 0
        outs.append((out / "report.csv").read_bytes())
    assert outs[0] == outs[1]
    row = read(tmp_path / "a" / "report.csv")[1]
    assert row[-1] == "42"


def test_run_from_manifest_reproduces_bytes(tiny_cfg, tmp_path):
    first = tmp_path / "first"
    first.mkdir()
    assert main(["run", tiny_cfg, "--seed", "3",
                 "--out-dir", str(first)]) == 0
    second = tmp_path / "second"
    second.mkdir()
    assert main(["run", str(first / "manifest.txt"),
                 "--out-dir", str(second)]) == 0
    assert (first / "report.csv").read_bytes() == \
        (second / "report.csv").read_bytes()


@pytest.mark.parametrize("writer,reader", [
    (["sweep", "--param", "rho", "--values", "0.5", "--seeds", "3"], ["run"]),
    (["ablation", "--seeds", "3"], ["run"]),
    (["run"], ["sweep", "--param", "rho", "--values", "0.5", "--seeds", "0"]),
    (["run"], ["ablation", "--seeds", "0"]),
], ids=["sweep-to-run", "ablation-to-run", "run-to-sweep", "run-to-ablation"])
def test_another_commands_manifest_exits_2_before_any_stage(
        tiny_cfg, tmp_path, monkeypatch, capsys, writer, reader):
    first = tmp_path / "first"
    first.mkdir()
    assert main([writer[0], tiny_cfg, *writer[1:],
                 "--out-dir", str(first)]) == 0
    stages = _counting(monkeypatch, m3_distill, "_stage")
    second = tmp_path / "second"
    second.mkdir()
    assert main([reader[0], str(first / "manifest.txt"), *reader[1:],
                 "--out-dir", str(second)]) == 2
    err = capsys.readouterr().err
    assert f"manifest of a {writer[0]!r} command" in err
    assert stages == [] and not any(second.iterdir())


def test_sweep_rows_sorted_with_stats(tiny_cfg, tmp_path):
    out = tmp_path / "sweep"
    out.mkdir()
    assert main(["sweep", tiny_cfg, "--param", "rho", "--values", "0.9,0,0.5",
                 "--seeds", "0,1", "--jobs", "2",
                 "--out-dir", str(out)]) == 0
    rows = read(out / "sweep.csv")
    header, body = rows[0], rows[1:]
    assert len(body) == 3 * (2 + 2)  # per-seed rows plus mean/stddev rows
    values = [float(r[1]) for r in body]
    assert values == sorted(values)
    # rho=0 cells run as literal baseline: both student columns coincide
    i_nokd = header.index("student_nokd_metric")
    i_kd = header.index("student_cgankd_metric")
    for r in body:
        if float(r[1]) == 0.0 and r[2] not in ("mean", "stddev"):
            assert r[i_nokd] == r[i_kd]


def test_sweep_unknown_param_exits_2(tiny_cfg, tmp_path):
    with pytest.raises(SystemExit):
        main(["sweep", tiny_cfg, "--param", "bogus", "--values", "1",
              "--seeds", "0", "--out-dir", str(tmp_path)])


def _no_training(*args, **kwargs):
    raise AssertionError("a pipeline ran")


@pytest.mark.parametrize("param,values,message", [
    ("rho", "0.5,1.5", "rho must lie in [0, 1]"),
    ("rho", "nan", "rho must lie in [0, 1]"),
    ("teacher-epochs", "5,-1", "epochs must be nonnegative"),
    ("mg", "-3", "fake_cap must be nonnegative")],
    ids=["rho-0.5,1.5", "rho-nan", "teacher-epochs-5,-1", "mg--3"])
def test_sweep_out_of_range_value_exits_2_before_training(
        tiny_cfg, tmp_path, monkeypatch, capsys, param, values, message):
    monkeypatch.setattr(cli, "run_pipelines", _no_training)
    assert main(["sweep", tiny_cfg, "--param", param, "--values", values,
                 "--seeds", "0", "--out-dir", str(tmp_path)]) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("argv, repeated", [
    (["sweep", "--param", "rho", "--values", "0.5,0.5", "--seeds", "3,4"],
     "repeated value 0.5"),
    (["sweep", "--param", "rho", "--values", "0.5,0.50", "--seeds", "3"],
     "repeated value 0.5"),
    (["sweep", "--param", "mg", "--values", "10,20,010", "--seeds", "3"],
     "repeated value 10"),
    (["sweep", "--param", "rho", "--values", "0.5,0.7", "--seeds", "3,3"],
     "repeated seed 3"),
    (["ablation", "--seeds", "4,5,4"], "repeated seed 4"),
], ids=["values", "values-after-parsing", "mg-values", "sweep-seeds",
        "ablation-seeds"])
def test_repeated_seed_or_value_exits_2_before_training(
        tiny_cfg, tmp_path, monkeypatch, capsys, argv, repeated):
    # A repeated cell would run one pipeline twice and report a stddev of
    # 0 across "two" runs that are the same run.
    monkeypatch.setattr(cli, "run_pipelines", _no_training)
    argv = argv[:1] + [tiny_cfg] + argv[1:] + ["--out-dir", str(tmp_path)]
    assert main(argv) == 2
    assert repeated in capsys.readouterr().err


@pytest.mark.parametrize("text,seeds,message", [
    (f"{MANIFEST_HEADER}\nseed=3\n{TINY_CFG}", "0",
     "manifest has no config snapshot section"),
    (TINY_CFG, "0,x", "bad seeds")], ids=["no-snapshot", "bad-seeds"])
def test_unreadable_manifest_or_seeds_exit_2_before_training(
        tmp_path, monkeypatch, capsys, text, seeds, message):
    monkeypatch.setattr(cli, "run_pipelines", _no_training)
    path = tmp_path / "config.txt"
    path.write_text(text)
    assert main(["ablation", str(path), "--seeds", seeds,
                 "--out-dir", str(tmp_path)]) == 2
    assert message in capsys.readouterr().err


def test_missing_out_dir_exits_2_before_running(tiny_cfg, tmp_path,
                                                monkeypatch, capsys):
    monkeypatch.setattr(cli, "run_pipelines", _no_training)
    missing = str(tmp_path / "missing")
    for argv in (["run", tiny_cfg],
                 ["sweep", tiny_cfg, "--param", "rho", "--values", "0.5",
                  "--seeds", "0"],
                 ["ablation", tiny_cfg, "--seeds", "0"]):
        assert main(argv + ["--out-dir", missing]) == 2
        assert "no output directory" in capsys.readouterr().err
    assert not os.path.exists(missing)


def test_manifest_always_loads_back(tmp_path, capsys):
    snapshot = TINY_CFG.replace("seed=0", "seed=7")
    write_manifest(tmp_path, "run", "tiny.cfg", snapshot, 3,
                   ["report.csv", "trace.jsonl"])
    path = tmp_path / "manifest.txt"
    assert "\nartifact=report.csv,trace.jsonl\n---\n" in path.read_text()
    assert load_config(path)[1:] == (snapshot, 3)
    # no metadata lines: the seed comes from the snapshot
    path.write_text(f"{MANIFEST_HEADER}\n---\n{snapshot}")
    kv, _, seed = load_config(path)
    assert seed is None and build_pipeline_config(kv).master_seed == 7
    path.write_text(f"{MANIFEST_HEADER}\nseed=abc\n---\n{snapshot}")
    assert main(["run", str(path), "--out-dir", str(tmp_path)]) == 2
    assert "bad value for 'seed'" in capsys.readouterr().err


def test_ablation_csv_shape(tiny_cfg, tmp_path):
    out = tmp_path / "abl"
    out.mkdir()
    assert main(["ablation", tiny_cfg, "--seeds", "0,1",
                 "--out-dir", str(out)]) == 0
    rows = read(out / "ablation.csv")[1:]
    seed_rows = [r for r in rows if r[1] not in ("mean", "stddev")]
    assert len(seed_rows) == 4 * 2
    assert len(rows) == 4 * 2 + 4 * 2


def _tiny_with(tmp_path, edits):
    """TINY_CFG with each key of `edits` set to its value, or dropped
    where the value is None."""
    lines = [ln for ln in TINY_CFG.splitlines()
             if ln.partition("=")[0] not in edits]
    lines += [f"{key}={value}" for key, value in edits.items()
              if value is not None]
    path = tmp_path / "tiny-edit.cfg"
    path.write_text("\n".join(lines) + "\n")
    return str(path)


@pytest.mark.parametrize("key,value", [("teacher.lr", "nan"),
                                       ("data.separation", "inf"),
                                       ("rho", "-inf"),
                                       ("dr.lr", "NaN")])
def test_nonfinite_float_exits_2(tmp_path, capsys, key, value):
    path = _tiny_with(tmp_path, {key: value})
    with pytest.raises(ConfigError, match="non-finite"):
        build_pipeline_config(load_config(path)[0])
    assert main(["run", path, "--out-dir", str(tmp_path)]) == 2
    assert "non-finite" in capsys.readouterr().err


CGAN = {"generator": "cgan", "gan.iterations": "10"}
BLKD = {"student.loss": "blkd"}
REGRESSION = {"task": "regression", "data.classes": None,
              "data.separation": None}
# Values that a constructor or a stage rejects, and keys that no field reads,
# with the message naming why.  Every network trains with one SGD recipe, so
# the momentum and weight-decay keys are unknown, at any value; the ring radii
# are constants, so the radius keys are unknown too.
BAD_VALUES = [
    ({**CGAN, "gan.iterations": "-1"}, "GAN config values must be positive"),
    ({"data.classes": "1"}, "n_classes >= 2"),
    ({"data.noise_std": "-1"}, "noise_std must be nonnegative"),
    ({**CGAN, "gan.noise_dim": "65"}, "noise_dim must be at most 64"),
    ({**BLKD, **REGRESSION}, "blkd loss does not fit a regression task"),
    ({"train_fraction": "1.5"}, "train_fraction must be in (0, 1)"),
    ({"dr.gamma": "0.5"}, "gamma must be >= 1"),
    ({**BLKD, "student.lam_kd": "2"}, "lam must lie in [0, 1]"),
    ({**BLKD, "student.temperature": "0"}, "temperature must be positive"),
    ({"student.lam_kd": "2"}, "lam must lie in [0, 1]"),
    ({"student.temperature": "0"}, "temperature must be positive"),
    ({"oracle.flip": "2"}, "probabilities must lie in [0, 1]"),
    ({**CGAN, "oracle.flip": "2"}, "probabilities must lie in [0, 1]"),
    ({**REGRESSION, "oracle.label_std": "-0.08"},
     "label_gauss_std must be nonnegative"),
    ({"oracle.junk_spread": "-1"}, "junk_spread must be nonnegative"),
    ({"data.classes": "4", "n_fake": "3"}, "cover every class"),
    ({"teacher.hidden": "0"}, "hidden_widths must be non-empty"),
    ({"teacher.momentum": "-0.5"}, "unknown config keys: teacher.momentum"),
    ({"student.momentum": "0.9"}, "unknown config keys: student.momentum"),
    ({"dr.momentum": "1.0"}, "unknown config keys: dr.momentum"),
    ({"teacher.weight_decay": "0"},
     "unknown config keys: teacher.weight_decay"),
    ({"student.weight_decay": "-0.01"},
     "unknown config keys: student.weight_decay"),
    ({"dr.weight_decay": "0"}, "unknown config keys: dr.weight_decay"),
    ({"teacher.lr_decay_epochs": "-3"}, "lr_decay_epochs must be nonnegative"),
    ({"data.n": "0"}, "class 0 has too few rows to split (0 < 2)"),
    ({"data.n": "4"}, "class 1 has too few rows to split (1 < 2)"),
    ({"task": "regression", "data.classes": None, "data.separation": None,
      "data.n": "1"}, "the dataset has too few rows to split (1 < 2)"),
    ({"data.radius_slope": "0", **REGRESSION},
     "unknown config keys: data.radius_slope"),
    ({"data.radius_base": "-2", **REGRESSION},
     "unknown config keys: data.radius_base"),
    ({"data.radius_base": "0", **REGRESSION},
     "unknown config keys: data.radius_base"),
    ({"data.radius_slope": "-2.5", **REGRESSION},
     "unknown config keys: data.radius_slope"),
    ({"task": "ranking"}, "unknown task"),
    ({"student.loss": "kd"}, "unknown student loss"),
    ({"generator": "vae"}, "unknown generator kind"),
    ({"data.n": None}, "missing required key 'data.n'"),
]


@pytest.mark.parametrize("edits,message", BAD_VALUES, ids=[
    ",".join(f"{k}={v}" for k, v in edits.items()) for edits, _ in BAD_VALUES])
def test_bad_config_value_exits_2_before_any_stage(
        tmp_path, monkeypatch, capsys, edits, message):
    monkeypatch.setattr(m3_distill, "_stage", _no_training)
    path = _tiny_with(tmp_path, edits)
    assert main(["run", path, "--out-dir", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and message in err


# Settings that are constants (SGD batch size 64, ring radii 2.0 and 1.5):
# a config that sets one names an unknown key, even at the constant's value.
CONSTANT_SETTINGS = [({}, "teacher.batch_size", "64"),
                     ({}, "student.batch_size", "32"),
                     ({}, "dr.batch_size", "0"),
                     (REGRESSION, "data.radius_base", "2.0"),
                     (REGRESSION, "data.radius_slope", "-2.5")]


@pytest.mark.parametrize("edits,key,value", CONSTANT_SETTINGS,
                         ids=[key for _, key, _ in CONSTANT_SETTINGS])
def test_constant_setting_exits_2_and_writes_nothing(
        tmp_path, monkeypatch, capsys, edits, key, value):
    monkeypatch.setattr(m3_distill, "_stage", _no_training)
    path = _tiny_with(tmp_path, {**edits, key: value})
    out = tmp_path / "out"
    out.mkdir()
    assert main(["run", path, "--out-dir", str(out)]) == 2
    assert f"unknown config keys: {key}" in capsys.readouterr().err
    assert not any(out.iterdir())


def test_diverged_training_exits_3(tmp_path, capsys):
    path = _tiny_with(tmp_path, {"teacher.lr": "1e300"})
    with np.errstate(all="ignore"):
        assert main(["run", path, "--out-dir", str(tmp_path)]) == 3
    err = capsys.readouterr().err
    assert "'teacher'" in err and "non-finite parameters" in err


@pytest.mark.parametrize("argv,output", [
    (["run"], "train.txt"),
    (["sweep", "--param", "rho", "--values", "0.5", "--seeds", "0"],
     "sweep.csv")], ids=["run", "sweep"])
def test_unwritable_output_exits_3(tiny_cfg, tmp_path, capsys, argv, output):
    # A directory where the command writes `output` makes its open fail.
    out = tmp_path / "out"
    (out / output).mkdir(parents=True)
    assert main([argv[0], tiny_cfg, *argv[1:], "--out-dir", str(out)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("write error:") and output in err


def test_ablation_stage_failure_exits_3(tiny_cfg, tmp_path, monkeypatch,
                                        capsys):
    def broken(config, real_train, seed):
        raise RuntimeError("generator exploded")
    monkeypatch.setattr(m3_distill, "_prepare_generator", broken)
    assert main(["ablation", tiny_cfg, "--seeds", "0",
                 "--out-dir", str(tmp_path)]) == 3
    err = capsys.readouterr().err
    assert "'generator'" in err and "generator exploded" in err


@pytest.fixture
def blas_threads():
    """OpenBLAS's (set, get) thread-count functions, with the count set to
    2 for the test and restored after it."""
    blas = cli._openblas()
    if blas is None:
        pytest.skip("no OpenBLAS with a settable thread count is loaded")
    set_threads, get_threads = blas
    before = get_threads()
    set_threads(2)
    yield blas
    set_threads(before)


def test_commands_run_on_one_blas_thread_and_restore_the_callers(
        tiny_cfg, tmp_path, monkeypatch, blas_threads):
    _, get_threads = blas_threads
    seen, stage = [], m3_distill._stage

    def recording(name, timings, fn):
        seen.append(get_threads())
        return stage(name, timings, fn)

    monkeypatch.setattr(m3_distill, "_stage", recording)
    assert main(["run", tiny_cfg, "--out-dir", str(tmp_path)]) == 0
    assert seen and set(seen) == {1}
    assert get_threads() == 2
    bad = _tiny_with(tmp_path, {"bogus.key": "1"})
    assert main(["run", bad, "--out-dir", str(tmp_path)]) == 2
    assert get_threads() == 2

    def broken(config, real_train, seed):
        raise RuntimeError("generator exploded")
    monkeypatch.setattr(m3_distill, "_prepare_generator", broken)
    assert main(["run", tiny_cfg, "--out-dir", str(tmp_path)]) == 3
    assert get_threads() == 2


# 64-wide layers trained at batch 64, with inference passes over 400 rows:
# a 64-wide layer over a few hundred rows crosses OpenBLAS's threading
# threshold, so with 2 threads those products split across both.
WIDE = {"data.n": "800", "teacher.hidden": "64,64", "dr.hidden": "64",
        "student.hidden": "64", "n_fake": "600"}


def test_checkpoints_are_byte_identical_on_one_and_two_blas_threads(
        tmp_path, blas_threads):
    set_threads, _ = blas_threads
    config = build_pipeline_config(load_config(_tiny_with(tmp_path, WIDE))[0])
    files = []
    for threads in (2, 1):
        set_threads(threads)
        out = tmp_path / f"threads{threads}"
        out.mkdir()
        m3_distill.run_pipelines([config], checkpoint_dir=str(out))
        files.append({p.name: p.read_bytes() for p in out.iterdir()})
    assert files[0] and files[0] == files[1]


def _counting(monkeypatch, module, name):
    """The argument tuples of every call of `module.name` from now on."""
    calls, real = [], getattr(module, name)

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, counting)
    return calls


def test_rho_sweep_trains_each_distinct_network_once(tiny_cfg, tmp_path,
                                                     monkeypatch):
    calls = _counting(monkeypatch, nncore, "train")
    runs = _counting(monkeypatch, nncore, "_train")
    assert main(["sweep", tiny_cfg, "--param", "rho", "--values", "0.3,0.7,1",
                 "--seeds", "0,1", "--out-dir", str(tmp_path)]) == 0
    # Each cell asks for its teacher, student-nokd, DR and student ...
    assert len(calls) == 3 * 2 * 4
    # ... but per seed only the students differ between rho values ...
    jobs = [len(args[0]) for args in runs]
    assert sum(jobs) == 2 * (3 + 3)
    # ... and they train together, one SGD loop per seed.
    assert sorted(jobs) == [1] * 2 * 3 + [3] * 2


REAL_TRAIN_N = 120  # TINY_CFG's data.n * train_fraction


def _role(params, dataset, *_):
    """The network of a TINY_CFG pipeline that a training fits."""
    if dataset.task.n_classes == 2:
        return "dr"
    if params.spec.hidden_widths == (16,):
        return "teacher"
    return "student-nokd" if dataset.n == REAL_TRAIN_N else "student"


def test_teacher_epochs_sweep_trains_dr_and_nokd_once_per_seed(
        tiny_cfg, tmp_path, monkeypatch):
    runs = _counting(monkeypatch, nncore, "_train")
    assert main(["sweep", tiny_cfg, "--param", "teacher-epochs",
                 "--values", "5,10", "--seeds", "0,1",
                 "--out-dir", str(tmp_path)]) == 0
    roles = Counter(_role(*job) for (jobs,) in runs for job in jobs)
    # M1 never reads the teacher, so the DR net is shared like the baseline.
    assert roles["teacher"] == 2 * 2
    assert roles["dr"] == roles["student-nokd"] == 2
    assert 2 <= roles["student"] <= 2 * 2
    # Each seed's students train in one SGD loop, apart from the others.
    loops = [Counter(_role(*job) for job in jobs) for (jobs,) in runs]
    student_loops = [loop["student"] for loop in loops if loop["student"]]
    assert len(student_loops) == 2
    assert sum(student_loops) == roles["student"]
    assert all(len(loop) == 1 for loop in loops)


def test_a_seed_trains_its_sweep_and_ablation_students_in_one_loop(
        tmp_path, monkeypatch):
    # Guards the stacked loop: training the cells one at a time would give
    # one SGD loop per student.
    # It also guards that each command runs only the stages its students
    # read.
    path = _tiny_with(tmp_path, REGRESSION)
    runs = _counting(monkeypatch, nncore, "_train")
    stages = _counting(monkeypatch, m3_distill, "_stage")
    assert main(["sweep", path, "--param", "rho", "--values", "0.3,0.7,1",
                 "--seeds", "4", "--out-dir", str(tmp_path)]) == 0
    # teacher, DR, student-nokd, then the three students
    assert [len(jobs) for (jobs,) in runs] == [1, 1, 1, 3]
    # every stage but "raw", once per cell
    assert Counter(name for name, *_ in stages) == Counter(
        {name: 3 for name in ("data", "teacher", "student-nokd", "generator",
                              "m1", "m2", "student", "evaluate")})
    runs.clear()
    stages.clear()
    assert main(["ablation", path, "--seeds", "4",
                 "--out-dir", str(tmp_path)]) == 0
    # teacher, DR, then the four variants' students
    assert [len(jobs) for (jobs,) in runs] == [1, 1, 4]
    # raw fakes but no baseline, a student stage per variant, "full" first,
    # one evaluation, and no stage name twice
    assert [name for name, *_ in stages] == [
        "data", "teacher", "generator", "m1", "raw", "m2", "student",
        "student-raw", "student-m1", "student-m1m2", "evaluate"]
    stages.clear()
    assert main(["run", path, "--out-dir", str(tmp_path)]) == 0
    assert [name for name, *_ in stages] == [
        "data", "teacher", "generator", "m1", "student-nokd", "m2", "student",
        "evaluate"]


@pytest.mark.parametrize("edits", [{}, REGRESSION],
                         ids=["classification", "regression"])
def test_a_rho_zero_run_trains_its_student_once(tmp_path, monkeypatch,
                                                edits):
    # A run keeps no fakes at rho 0, so with a plain loss its student is the
    # baseline's job, and the run's training memo answers it.
    out = tmp_path / "out"
    out.mkdir()
    runs = _counting(monkeypatch, nncore, "_train")
    assert main(["run", _tiny_with(tmp_path, {**edits, "rho": "0"}),
                 "--out-dir", str(out)]) == 0
    # the teacher, the DR and the baseline
    assert [len(jobs) for (jobs,) in runs] == [1, 1, 1]
    assert ((out / "student.txt").read_bytes()
            == (out / "student_nokd.txt").read_bytes())


def test_traced_ablation_repeats_no_stage(tmp_path):
    # The benchmark's span recorder (bench/spans.py) keys each stage inside
    # a `run_pipeline` call by its name and config, and fails a traced round
    # whose stage of one key gives two outputs; so the ablation's variant
    # students must run under stage names of their own.  They train after
    # `run_pipeline` returns, whether the command or a direct call runs it.
    spec = importlib.util.spec_from_file_location(
        "spans", pathlib.Path(__file__).resolve().parent.parent / "bench"
        / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    path = _tiny_with(tmp_path, REGRESSION)
    tracer = spans.Tracer()
    with tracer:
        assert cli.main(["ablation", path, "--seeds", "4,5",
                         "--out-dir", str(tmp_path)]) == 0
        config = build_pipeline_config(load_config(path)[0])
        m3_distill.run_pipelines([config], m3_distill.ABLATION_VARIANTS)
    m = spans.layer_metrics(tracer)
    assert not tracer.stage_mismatches
    assert (m["m3.stage_runs"], m["m3.stage_runs_repeat"]) == (3 * 11, 0)


def test_direct_calls_train_their_students_in_one_loop(tmp_path, monkeypatch):
    # Without `main` no command memo is open: `run_pipelines` opens one
    # around the whole call itself.
    config = build_pipeline_config(
        load_config(_tiny_with(tmp_path, REGRESSION))[0])
    runs = _counting(monkeypatch, nncore, "_train")
    m3_distill.run_pipelines([replace(config, rho=rho)
                              for rho in (0.3, 0.7, 1.0)])
    # the teacher, DR and student-nokd that the cells share, then the three
    # students
    assert [len(jobs) for (jobs,) in runs] == [1, 1, 1, 3]
    runs.clear()
    m3_distill.run_pipelines([config], m3_distill.ABLATION_VARIANTS)
    # teacher, DR, then the four variants' students
    assert [len(jobs) for (jobs,) in runs] == [1, 1, 4]
    assert nncore._memo is None


def test_a_sweep_seed_makes_one_split(tmp_path, monkeypatch):
    # `m3_distill` imports both functions from `synthdata` by name
    path = _tiny_with(tmp_path, REGRESSION)
    made = _counting(monkeypatch, m3_distill, "make_dataset")
    splits = _counting(monkeypatch, m3_distill, "split")
    assert main(["sweep", path, "--param", "rho", "--values", "0.3,0.7,1",
                 "--seeds", "4,5", "--out-dir", str(tmp_path)]) == 0
    assert (len(made), len(splits)) == (2, 2)
    made.clear()
    splits.clear()
    assert main(["run", path, "--out-dir", str(tmp_path)]) == 0
    assert (len(made), len(splits)) == (1, 1)


def test_cells_share_their_split_and_leave_it_untouched(tmp_path,
                                                         monkeypatch):
    config = build_pipeline_config(
        load_config(_tiny_with(tmp_path, REGRESSION))[0])
    data, teachers, stage = [], [], m3_distill._stage

    def recording(name, timings, fn):
        out = stage(name, timings, fn)
        if name in ("data", "teacher"):
            (data if name == "data" else teachers).append(out)
        return out

    def contents(pair):
        return [(d.features.tobytes(), d.labels.tobytes()) for d in pair]

    monkeypatch.setattr(m3_distill, "_stage", recording)
    m3_distill.run_pipelines([config])
    m3_distill.run_pipelines([replace(config, master_seed=1)])
    alone, other = map(contents, data)
    data.clear()
    teachers.clear()
    m3_distill.run_pipelines([replace(config, rho=rho)
                              for rho in (0.3, 0.7, 1.0)]
                             + [replace(config, master_seed=1)])
    # the students have trained: the split reads as a lone run's
    shared = data[0]
    assert all(pair is shared for pair in data[:3])
    assert contents(shared) == alone
    assert data[3][0] is not shared[0] and data[3][1] is not shared[1]
    assert contents(data[3]) == other != alone
    # one memo result serves every cell, so none may write into it
    for d in shared:
        for a in (d.features, d.labels):
            with pytest.raises(ValueError, match="read-only"):
                a[...] = 0
    # and the cells of one master seed train one teacher
    assert all(t is teachers[0] for t in teachers[:3])
    assert teachers[3] is not teachers[0]


def test_no_fake_set_outlives_the_stages_before_the_students(
        tmp_path, monkeypatch):
    # The students train on copies of their fake sets, so no set that M1,
    # M2 or raw sampling returned is alive when the first student trains.
    config = build_pipeline_config(
        load_config(_tiny_with(tmp_path, REGRESSION))[0])
    refs, alive, stage = [], [], m3_distill._stage

    def keeping(fn):
        def call(*args, **kwargs):
            out = fn(*args, **kwargs)
            refs.extend(weakref.ref(d) for d in
                        (out if isinstance(out, tuple) else (out,))
                        if isinstance(d, Dataset))
            return out
        return call

    def recording(name, timings, fn):
        if name.startswith("student") and name != "student-nokd":
            gc.collect()
            alive.append(sum(ref() is not None for ref in refs))
        return stage(name, timings, fn)

    monkeypatch.setattr(m3_distill, "_subsample_fakes",
                        keeping(m3_distill._subsample_fakes))
    monkeypatch.setattr(m2_labeladjust, "run_m2",
                        keeping(m2_labeladjust.run_m2))
    monkeypatch.setattr(cgen, "sample", keeping(cgen.sample))
    monkeypatch.setattr(m3_distill, "_stage", recording)
    for command in (
            lambda: m3_distill.run_pipelines([config]),
            lambda: m3_distill.run_pipelines(
                [config, replace(config, rho=0.5)]),
            lambda: m3_distill.run_pipelines(
                [config], m3_distill.ABLATION_VARIANTS)):
        refs.clear()
        alive.clear()
        command()
        assert refs and alive and set(alive) == {0}


def test_cgan_sweep_trains_the_gan_once_per_seed(tmp_path, monkeypatch):
    runs = _counting(monkeypatch, cgen, "_train_cgan")
    assert main(["sweep", _tiny_with(tmp_path, CGAN), "--param", "rho",
                 "--values", "0.5,1", "--seeds", "0,1",
                 "--out-dir", str(tmp_path)]) == 0
    assert len(runs) == 2


def test_every_command_runs_its_stages_in_a_memo_that_ends_with_it(
        tiny_cfg, tmp_path, monkeypatch):
    # `run_pipelines` alone opens the training memo, and every command runs
    # through it, so every stage sees the memo and every command leaves
    # none open, however it exits.
    seen, stage = [], m3_distill._stage

    def recording(name, timings, fn):
        seen.append(nncore._memo is not None)
        return stage(name, timings, fn)

    monkeypatch.setattr(m3_distill, "_stage", recording)
    out = ["--out-dir", str(tmp_path)]
    sweep = ["sweep", "--param", "rho", "--values", "0.5,1", "--seeds", "0"]
    for command in (["run"], sweep, ["ablation", "--seeds", "0"]):
        seen.clear()
        assert main(command + [tiny_cfg] + out) == 0
        assert seen and all(seen)
        assert nncore._memo is None
    bad = _tiny_with(tmp_path, {"bogus.key": "1"})
    assert main(sweep + [bad] + out) == 2
    assert nncore._memo is None

    def broken(config, real_train, seed):
        raise RuntimeError("generator exploded")
    monkeypatch.setattr(m3_distill, "_prepare_generator", broken)
    for command in (["run"], sweep, ["ablation", "--seeds", "0"]):
        assert main(command + [tiny_cfg] + out) == 3
        assert nncore._memo is None


def test_a_sweep_seed_drops_its_memo_before_the_next_seed(tmp_path,
                                                           monkeypatch):
    # Nothing is shared across seeds, so no network that seed 0 trains, its
    # teacher first, lives on through seed 1's cells.
    nets, alive, stage, train = [], [], m3_distill._stage, nncore._train

    def recording_train(jobs):
        results = train(jobs)
        nets.extend(weakref.ref(params) for params, _ in results)
        return results

    def recording(name, timings, fn):
        if name == "data":
            alive.append(sum(ref() is not None for ref in nets))
        return stage(name, timings, fn)

    monkeypatch.setattr(nncore, "_train", recording_train)
    monkeypatch.setattr(m3_distill, "_stage", recording)
    assert main(["sweep", _tiny_with(tmp_path, REGRESSION), "--param", "rho",
                 "--values", "0.3,0.7,1", "--seeds", "4,5",
                 "--out-dir", str(tmp_path)]) == 0
    # per seed: the teacher, DR and baseline that its cells share, then its
    # three students
    assert len(nets) == 2 * 6
    assert alive == [0, 3, 3, 0, 3, 3]
    assert all(ref() is None for ref in nets)


@pytest.mark.parametrize("edits", [{}, REGRESSION],
                         ids=["classification", "regression"])
@pytest.mark.parametrize("param,values", [("rho", "0,0.5,1"),
                                          ("teacher-epochs", "5,10"),
                                          ("mg", "0,50")])
def test_sweep_rows_equal_independent_pipeline_runs(tmp_path, param, values,
                                                    edits):
    # Every cell, all seeds, against a lone run_pipelines call of its own.
    # A regression MAE moves with any change to a network, where a top-1
    # over 120 rows can stay put.
    path = _tiny_with(tmp_path, edits)
    out = tmp_path / "sweep"
    out.mkdir()
    assert main(["sweep", path, "--param", param, "--values", values,
                 "--seeds", "0,1", "--out-dir", str(out)]) == 0
    base = build_pipeline_config(load_config(path)[0])
    cast = float if param == "rho" else int
    rows = []
    for value in map(cast, values.split(",")):
        per_seed = []
        for seed in (0, 1):
            config = cli._sweep_variant(replace(base, master_seed=seed),
                                        param, value)
            rep = m3_distill.run_pipelines([config])[0]
            per_seed.append((seed, (rep.metrics["teacher"].primary,
                                    rep.metrics["nokd"].primary,
                                    rep.metrics["full"].primary, rep.m_fake,
                                    rep.theta)))
        rows += cli._seed_rows((param, value), per_seed)
    want = tmp_path / "want.csv"
    cli.write_csv(want, cli.SWEEP_COLUMNS, rows)
    assert (out / "sweep.csv").read_bytes() == want.read_bytes()


@pytest.mark.parametrize("edits", [{}, REGRESSION],
                         ids=["classification", "regression"])
def test_run_tags_each_dataset_file_with_its_stage(tmp_path, edits):
    out = tmp_path / "out"
    out.mkdir()
    assert main(["run", _tiny_with(tmp_path, edits),
                 "--out-dir", str(out)]) == 0
    for name, tag in (("train.txt", "real"), ("eval.txt", "real"),
                      ("fakes_m1.txt", "fake_m1"),
                      ("fakes_m2.txt", "fake_m2")):
        rows = (out / name).read_text().splitlines()[3:]
        assert rows and {row.split(",")[1] for row in rows} == {tag}


def test_a_run_that_keeps_no_fakes_rewrites_fakes_m2_empty(tmp_path):
    out = tmp_path / "out"
    out.mkdir()
    kept, after = [], []
    for rho in ("0.9", "0"):
        assert main(["run", _tiny_with(tmp_path, {"rho": rho}),
                     "--out-dir", str(out)]) == 0
        row = read(out / "report.csv")[1]
        m_fake = int(row[RUN_COLUMNS.index("m_fake")])
        rows = (out / "fakes_m2.txt").read_text().splitlines()[3:]
        kept.append((m_fake, len(rows)))
        after.append(row[RUN_COLUMNS.index("consistency_after")])
    assert kept[0][0] > 0 and kept == [(kept[0][0], kept[0][0]), (0, 0)]
    # the teacher's consistency with an empty kept set is undefined, not 0
    assert 0.0 <= float(after[0]) <= 1.0 and after[1] == ""


@pytest.mark.parametrize("argv,name", [
    (["sweep", "--param", "rho", "--values", "0.5", "--seeds", "3"],
     "sweep.csv"),
    (["ablation", "--seeds", "3"], "ablation.csv")],
    ids=["sweep", "ablation"])
def test_sweep_and_ablation_manifests_record_no_seed(tiny_cfg, tmp_path,
                                                     argv, name):
    # each cell takes its seed from --seeds, so no one seed describes them
    first, second = tmp_path / "first", tmp_path / "second"
    for out in (first, second):
        out.mkdir()
        config = tiny_cfg if out == first else str(first / "manifest.txt")
        assert main([argv[0], config, *argv[1:], "--out-dir", str(out)]) == 0
    manifest = (first / "manifest.txt").read_text()
    assert "\nseed=" not in manifest.partition("\n---\n")[0]
    assert load_config(first / "manifest.txt", argv[0])[1:] == (TINY_CFG,
                                                                 None)
    assert (first / name).read_bytes() == (second / name).read_bytes()


def test_verify_bound_csv(tmp_path):
    setup = tmp_path / "bound.cfg"
    setup.write_text("kind=bound\ntrials=30\nn_mc=200\nseed=0\n")
    out = tmp_path / "vb"
    out.mkdir()
    assert main(["verify-bound", str(setup), "--out-dir", str(out)]) == 0
    rows = read(out / "bound.csv")
    header, body = rows[0], rows[1:]
    assert len(body) == 30
    i_rhs = header.index("rhs")
    i_frac = header.index("holds_fraction")
    assert len({r[i_rhs] for r in body}) == 1  # constant RHS
    fracs = {float(r[i_frac]) for r in body}
    assert len(fracs) == 1 and 0.0 <= fracs.pop() <= 1.0


@pytest.mark.parametrize("key,value,message", [
    ("n_real", "0", "bad sample counts"),
    ("rho", "0", "rho must lie in (0, 1]"),
    ("trials", "0", "trials must be positive"),
    ("n_mc", "1", "n_mc must be at least 2"),
    ("kind", "grid", "bound setups need kind=bound")])
def test_verify_bound_bad_setup_exits_2_and_writes_no_csv(
        tmp_path, capsys, key, value, message):
    setup = tmp_path / "bound.cfg"
    keys = {"kind": "bound", "n_mc": "20", key: value}
    setup.write_text("".join(f"{k}={v}\n" for k, v in keys.items()))
    out = tmp_path / "vb"
    out.mkdir()
    assert main(["verify-bound", str(setup), "--out-dir", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and message in err
    assert not (out / "bound.csv").exists()


def test_verify_bound_defaults_equal_the_standard_setup_file(tmp_path):
    import pathlib
    # configs/bound_standard.cfg spells out every key at its default value
    standard = (pathlib.Path(__file__).resolve().parent.parent / "configs"
                / "bound_standard.cfg")
    bare = tmp_path / "bare.cfg"
    bare.write_text("kind=bound\n")
    outs = []
    for name, setup in (("bare", bare), ("standard", standard)):
        out = tmp_path / name
        out.mkdir()
        assert main(["verify-bound", str(setup), "--out-dir", str(out)]) == 0
        assert "\nseed=0\n" in (out / "manifest.txt").read_text()
        outs.append((out / "bound.csv").read_bytes())
    assert outs[0] == outs[1]


def test_build_pipeline_config_ships_bench_files():
    import pathlib
    configs = pathlib.Path(__file__).resolve().parent.parent / "configs"
    for path in (configs / "bench_cls.cfg", configs / "bench_reg.cfg"):
        kv, snapshot, seed = load_config(path)
        config = build_pipeline_config(kv)
        assert config.n_fake == 8000
        assert snapshot and seed is None
    cls_cfg = build_pipeline_config(load_config(configs / "bench_cls.cfg")[0])
    assert cls_cfg.rho == 0.9 and cls_cfg.data.n_classes == 4
    reg_cfg = build_pipeline_config(load_config(configs / "bench_reg.cfg")[0])
    assert reg_cfg.rho == 0.7


@pytest.mark.parametrize("shipped, measured", [
    ("bench_cls.cfg", "cls.cfg"), ("bench_reg.cfg", "reg.cfg")])
def test_shipped_bench_configs_match_the_benchmarks(shipped, measured):
    # The README calls configs/bench_*.cfg the shipped benchmarks; they must
    # hold the settings that bench/ actually measures.
    import pathlib
    root = pathlib.Path(__file__).resolve().parent.parent
    assert (load_config(root / "configs" / shipped)[0]
            == load_config(root / "bench" / "configs" / measured)[0])


def test_readme_usage_lists_every_subcommand():
    import argparse
    import pathlib
    import re
    readme = pathlib.Path(__file__).resolve().parent.parent / "README.md"
    documented = set(re.findall(r"^cgankd ([\w-]+)", readme.read_text(),
                                re.MULTILINE))
    sub = next(a for a in cli.build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    assert documented == set(sub.choices)


def _readme_config_keys():
    import pathlib
    import re
    readme = pathlib.Path(__file__).resolve().parent.parent / "README.md"
    table = readme.read_text().partition("| key | meaning |")[2]
    rows = table.partition("\n\n")[0].splitlines()[2:]
    return {key for row in rows
            for key in re.findall(r"`([\w.]+)`", row.split("|")[1])}


def test_readme_config_table_lists_every_pipeline_key(tmp_path, monkeypatch):
    documented = _readme_config_keys()
    read, get = set(), cli._Reader.get

    def recording(self, key, *args, **kwargs):
        read.add(key)
        return get(self, key, *args, **kwargs)

    monkeypatch.setattr(cli._Reader, "get", recording)
    for edits in (CGAN, REGRESSION):
        build_pipeline_config(load_config(_tiny_with(tmp_path, edits))[0])
    assert documented == read


# Every optional key at the default the README config table documents.
ROLE_DEFAULTS = {"lr": "0.05", "lr_decay_epochs": ""}
DOCUMENTED_DEFAULTS = {
    "train_fraction": "0.5", "generator": "oracle", "oracle.flip": "0",
    "oracle.label_std": "0", "oracle.junk": "0", "oracle.junk_spread": "0",
    "teacher.hidden": "64,64", "student.hidden": "8", "dr.hidden": "32",
    "teacher.epochs": "100", "student.epochs": "100", "dr.epochs": "60",
    **{f"{role}.{key}": value for role in ("teacher", "student", "dr")
       for key, value in ROLE_DEFAULTS.items()},
    "student.loss": "plain", "student.lam_kd": "0.5",
    "student.temperature": "5", "dr.gamma": "1.2", "fake_cap": "0",
    "seed": "0"}
REQUIRED = {"task": "classification", "data.n": "240", "data.classes": "3",
            "data.separation": "3.0", "data.noise_std": "0.6",
            "n_fake": "300"}
# (bare edits of REQUIRED, documented defaults those edits bring in)
DEFAULT_CASES = {
    "classification-oracle": ({}, {"rho": "0.9"}),
    "regression": (REGRESSION, {"rho": "0.7"}),
    "cgan": (CGAN, {"rho": "0.9", "gan.batch_size": "64", "gan.lr_g": "0.02",
                    "gan.lr_d": "0.05", "gan.noise_dim": "4"}),
    "blkd": (BLKD, {"rho": "0.9"}),
}


def _without_none(kv):
    return {key: value for key, value in kv.items() if value is not None}


@pytest.mark.parametrize("case", DEFAULT_CASES)
def test_documented_defaults_build_the_bare_config(case):
    edits, extra = DEFAULT_CASES[case]
    bare = _without_none({**REQUIRED, **edits})
    spelled = _without_none({**bare, **DOCUMENTED_DEFAULTS, **extra, **edits})
    assert build_pipeline_config(spelled) == build_pipeline_config(bare)


def test_documented_defaults_cover_the_readme_table():
    spelled = set(DOCUMENTED_DEFAULTS).union(
        *(extra for _, extra in DEFAULT_CASES.values()))
    required = set(REQUIRED) | {"gan.iterations"}
    assert spelled | required == _readme_config_keys()


# Run in a fresh interpreter: a classification and a regression `run`, a
# `sweep`, an `ablation` with the oracle and one with a trained cGAN, and a
# `verify-bound`, on the configs its arguments name; then the numpy modules
# that were imported.
COMMANDS_SCRIPT = """\
import sys
sys.path.insert(0, sys.argv[1])
from cgankd import cli
cls, reg, cgan, bound, out = sys.argv[2:]
for argv in (["run", cls], ["run", reg],
             ["sweep", cls, "--param", "rho", "--values", "0.5,1",
              "--seeds", "0"],
             ["ablation", reg, "--seeds", "0"],
             ["ablation", cgan, "--seeds", "0"], ["verify-bound", bound]):
    assert cli.main(argv + ["--out-dir", out]) == 0, argv
print(" ".join(sorted(m for m in sys.modules if m.startswith("numpy."))))
"""


@pytest.fixture(scope="module")
def numpy_modules_after_commands(tmp_path_factory):
    """The numpy submodules loaded after COMMANDS_SCRIPT's commands."""
    tmp = tmp_path_factory.mktemp("commands")
    (tmp / "tiny.cfg").write_text(TINY_CFG)
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    bound = pathlib.Path(__file__).resolve().parent.parent / "configs"
    proc = subprocess.run(
        [sys.executable, "-c", COMMANDS_SCRIPT, src, str(tmp / "tiny.cfg"),
         _tiny_with(tmp_path_factory.mktemp("reg"), REGRESSION),
         _tiny_with(tmp_path_factory.mktemp("cgan"), {**REGRESSION, **CGAN}),
         str(bound / "bound_standard.cfg"), str(tmp)],
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    loaded = set(proc.stdout.splitlines()[-1].split())
    assert "numpy.linalg" in loaded  # numpy's own import loads it
    return loaded


def test_no_command_imports_numpy_ma(numpy_modules_after_commands):
    """np.unique, which np.percentile and np.setdiff1d call, imports
    numpy.ma, a module that no command needs."""
    assert "numpy.ma" not in numpy_modules_after_commands


def test_no_command_imports_numpy_random(numpy_modules_after_commands):
    """Every draw is counter-based (`cgankd.rng`), so no command loads
    numpy's generators, which would hold about 1.9 MB for the whole run."""
    assert "numpy.random" not in numpy_modules_after_commands
