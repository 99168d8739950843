"""Tests of the benchmark itself: each correctness check passes on real CLI
output and fails on a deliberately wrong copy of it; the span recorder's
self-time arithmetic holds on a hand-built tree; tracing changes no output.

Runs on tiny configs in a few seconds: python3 -m pytest bench -q
"""

import csv
import os
import shutil
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import checks  # noqa: E402
import spans  # noqa: E402
from cgankd import cli  # noqa: E402

COMMON = """data.n=400
data.noise_std={noise}
train_fraction=0.5
generator=oracle
oracle.junk=0.15
oracle.junk_spread=30.0
teacher.hidden=16
teacher.epochs=4
student.hidden=4
student.epochs=3
dr.hidden=8
dr.epochs=3
n_fake=402
"""
CLS = ("task=classification\ndata.classes=4\ndata.separation=2.0\n"
       "oracle.flip=0.2\nrho=0.9\n" + COMMON.format(noise=1.0))
REG = "task=regression\noracle.label_std=0.08\nrho=0.7\n" + COMMON.format(
    noise=0.1)
SEEDS = [3, 4]


def _cli(argv):
    assert cli.main(argv + ["--jobs", "1"]) == 0


def _config(tmp, name, text):
    path = os.path.join(tmp, name)
    with open(path, "w") as f:
        f.write(text)
    return path


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    tmp = str(tmp_path_factory.mktemp("bench"))
    cls_cfg = _config(tmp, "cls.cfg", CLS)
    reg_cfg = _config(tmp, "reg.cfg", REG)
    dirs = {k: os.path.join(tmp, k) for k in ("run", "sweep", "abl", "abl_run")}
    for d in dirs.values():
        os.makedirs(d)
    _cli(["run", cls_cfg, "--seed", "3", "--out-dir", dirs["run"]])
    _cli(["sweep", reg_cfg, "--param", "rho", "--values", "0,0.7,1",
          "--seeds", "3,4", "--out-dir", dirs["sweep"]])
    _cli(["ablation", reg_cfg, "--seeds", "3,4", "--out-dir", dirs["abl"]])
    _cli(["run", reg_cfg, "--seed", "3", "--out-dir", dirs["abl_run"]])
    return dict(dirs, cls=checks.read_config(cls_cfg),
                reg=checks.read_config(reg_cfg), tmp=tmp)


def _copy(outputs, key, name):
    dst = os.path.join(outputs["tmp"], f"{name}-{key}")
    shutil.rmtree(dst, ignore_errors=True)
    shutil.copytree(outputs[key], dst)
    return dst


def _edit_csv(path, edit):
    with open(path, newline="") as f:
        rows = list(csv.DictReader(f))
    fields = list(rows[0])
    edit(rows)
    with open(path, "w", newline="") as f:
        w = csv.DictWriter(f, fields)
        w.writeheader()
        w.writerows(rows)


def _bump(value, delta):
    return repr(float(value) + delta)


def test_nearest_rank_and_budgets():
    assert checks.nearest_rank("0.3", 8000) == 2400
    assert checks.nearest_rank("0.9", 2000) == 1800
    assert checks.nearest_rank("0.0", 5) == 0
    assert checks.class_budgets(402, 4) == [101, 101, 100, 100]


def test_run_check_passes_on_real_output(outputs):
    row = checks.check_run(outputs["run"], outputs["cls"], 3)
    assert int(row["m_fake"]) == 2 * 91 + 2 * 90  # ceil(.9*101), ceil(.9*100)


def _report_edit(column, change):
    def edit(rows):
        rows[0][column] = change(rows[0][column])
    return edit


@pytest.mark.parametrize("column,change", [
    ("m_fake", lambda v: str(int(v) + 1)),
    ("theta", lambda v: _bump(v, 1e-9)),
    ("n_real", lambda v: str(int(v) - 1)),
    ("teacher_metric", lambda v: _bump(v, 0.02)),
    ("student_cgankd_metric", lambda v: _bump(v, -0.02)),
])
def test_run_check_fails_on_wrong_report(outputs, column, change):
    d = _copy(outputs, "run", column)
    _edit_csv(os.path.join(d, "report.csv"), _report_edit(column, change))
    with pytest.raises(checks.CheckFailed):
        checks.check_run(d, outputs["cls"], 3)


def test_run_check_fails_on_missing_fake_row(outputs):
    d = _copy(outputs, "run", "fakes")
    path = os.path.join(d, "fakes_m1.txt")
    with open(path) as f:
        lines = f.readlines()
    with open(path, "w") as f:
        f.writelines(lines[:-1])
    with pytest.raises(checks.CheckFailed):
        checks.check_run(d, outputs["cls"], 3)


def test_direction_check_compares_seed_means():
    rows = [{"student_cgankd_metric": "0.80", "student_nokd_metric": "0.81"},
            {"student_cgankd_metric": "0.86", "student_nokd_metric": "0.85"}]
    checks.check_direction(rows)
    rows[1]["student_cgankd_metric"] = "0.85"
    with pytest.raises(checks.CheckFailed):
        checks.check_direction(rows)


def test_sweep_check_passes_on_real_output(outputs):
    mae = checks.check_sweep(outputs["sweep"], outputs["reg"],
                             ["0", "0.7", "1"], SEEDS)
    assert mae > 0.0


def _sweep_edit(value, seed, column, change):
    def edit(rows):
        for r in rows:
            if r["value"] == value and r["seed"] == seed:
                r[column] = change(r[column])
    return edit


@pytest.mark.parametrize("edit", [
    _sweep_edit("0.7", "3", "m_fake", lambda v: str(int(v) + 1)),
    _sweep_edit("0.0", "4", "student_cgankd_metric", lambda v: _bump(v, 1e-12)),
    _sweep_edit("1.0", "3", "teacher_metric", lambda v: _bump(v, 1e-12)),
    _sweep_edit("0.7", "mean", "student_cgankd_metric", lambda v: _bump(v, 1e-6)),
    _sweep_edit("1.0", "stddev", "teacher_metric", lambda v: _bump(v, 1e-6)),
])
def test_sweep_check_fails_on_wrong_output(outputs, edit):
    d = _copy(outputs, "sweep", "sweep")
    _edit_csv(os.path.join(d, "sweep.csv"), edit)
    with pytest.raises(checks.CheckFailed):
        checks.check_sweep(d, outputs["reg"], ["0", "0.7", "1"], SEEDS)


def test_ablation_checks_pass_on_real_output(outputs):
    assert checks.check_ablation(outputs["abl"], SEEDS) > 0.0
    checks.check_ablation_matches_run(outputs["abl"], outputs["abl_run"], 3)


@pytest.mark.parametrize("seed,change", [
    ("3", lambda v: "nan"),
    ("4", lambda v: "0.0"),
    ("mean", lambda v: _bump(v, 1e-6)),
])
def test_ablation_check_fails_on_wrong_output(outputs, seed, change):
    d = _copy(outputs, "abl", "abl")

    def edit(rows):
        for r in rows:
            if r["variant"] == "m1" and r["seed"] == seed:
                r["metric"] = change(r["metric"])
    _edit_csv(os.path.join(d, "ablation.csv"), edit)
    with pytest.raises(checks.CheckFailed):
        checks.check_ablation(d, SEEDS)


def test_ablation_run_agreement_fails_on_perturbed_metric(outputs):
    d = _copy(outputs, "abl_run", "abl_run")
    _edit_csv(os.path.join(d, "report.csv"), _report_edit(
        "student_cgankd_metric", lambda v: _bump(v, 1e-12)))
    with pytest.raises(checks.CheckFailed):
        checks.check_ablation_matches_run(outputs["abl"], d, 3)


def _span(sid, parent, start, end):
    s = spans.Span(sid, f"s{sid}", parent, start)
    s.end = end
    return s


def test_self_time_subtracts_the_union_of_children():
    tree = [_span(0, None, 0.0, 10.0),
            _span(1, 0, 1.0, 3.0),
            _span(2, 0, 2.0, 5.0),    # overlaps span 1
            _span(3, 2, 2.5, 4.0),    # grandchild: covered by span 2 already
            _span(4, 0, 8.0, 12.0),   # runs past its parent's end
            _span(5, None, 20.0, 21.5)]
    own = spans.self_times(tree)
    assert own[0] == pytest.approx(10.0 - 4.0 - 2.0)
    assert own[2] == pytest.approx(3.0 - 1.5)
    assert own[1] == pytest.approx(2.0)
    assert own[5] == pytest.approx(1.5)


def test_tracing_changes_no_output_and_counts_stage_repeats(outputs, tmp_path):
    reg_cfg = _config(str(tmp_path), "reg.cfg", REG)
    out = tmp_path / "out"
    out.mkdir()
    original = cli.main
    tracer = spans.Tracer()
    with tracer:
        assert cli.main is not original
        _cli(["sweep", reg_cfg, "--param", "rho", "--values", "0,0.7,1",
              "--seeds", "3,4", "--out-dir", str(out)])
    assert cli.main is original
    assert (checks.file_digests(str(out))
            == checks.file_digests(outputs["sweep"]))
    m = spans.layer_metrics(tracer)
    assert not tracer.stage_mismatches
    assert m["m3.stage_runs"] == 3 * 2 * 8
    # Per seed, the 2nd and 3rd rho repeat data, teacher, student-nokd,
    # generator and m1.
    assert m["m3.stage_runs_repeat"] == 2 * 2 * 5
    assert m["m2.in"] == 3 * 2 * 402
    assert m["m1.accepted"] == 3 * 2 * 402
    assert m["m1.candidates"] >= m["m1.accepted"]
    assert m["nncore.train.calls"] == 3 * 2 * 4
