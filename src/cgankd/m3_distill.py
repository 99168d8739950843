"""End-to-end pipeline: generate fakes, clean them up, augment the real
training set, and train teacher plus students.

A run executes data generation, teacher training, generator preparation,
density-ratio subsampling, quantile filtering with optional label
replacement, augmentation, student training, and evaluation.  Every stage
draws its randomness from a key derived from (master seed, stage name), so
two runs with the same config are bit-identical and the student seed is
shared between the NOKD baseline and the augmented students: with no
surviving fakes and a plain loss the two coincide exactly.
`run_pipeline` is the one stage sequence: its `variants` name the networks
it reports, and a stage runs only when one of them reads it.
`run_pipelines` runs several configs, such as the cells of one sweep seed,
inside a training memo (`nncore.reuse_training`) that no other code opens:
they share each distinct training and, given equal data, train fraction
and master seed, one read-only split.  Each student stage passes all their
students to `nncore.train` as its `together` batch, so the first trains
them in one stacked SGD loop.  Each is the student a lone run trains.
"""

import time
from dataclasses import dataclass, field, replace
from functools import partial, reduce

import numpy as np

from . import cgen, m1_subsample, m2_labeladjust, modelio, nncore, rng
from .cgen import CorruptedOracle, GanTrainConfig
from .m2_labeladjust import FilterReport
from .nncore import (Loss, Metrics, NetParams, NetSpec, TrainConfig,
                     check_loss, plain_loss)
from .synthdata import (Dataset, SynthConfig, check_splittable, class_budgets,
                        concat, label_groups, make_dataset, split,
                        write_dataset)

GENERATOR_KINDS = ("oracle", "cgan")


@dataclass(frozen=True)
class PipelineConfig:
    """Every setting of a run.  No field has a default: `cli` decodes a
    config file into all of them, and owns the defaults of its keys."""
    data: SynthConfig            # total pool size in data.n; data.seed is ignored
    train_fraction: float
    generator_kind: str
    oracle_flip: float
    oracle_label_std: float
    oracle_junk: float
    oracle_junk_spread: float
    gan: GanTrainConfig          # None unless generator_kind is "cgan"
    teacher_hidden: tuple
    teacher_train: TrainConfig
    student_hidden: tuple
    student_train: TrainConfig
    student_loss: Loss
    dr_hidden: tuple
    dr_train: TrainConfig
    dr_gamma: float              # M1 rejection ceiling headroom, >= 1
    n_fake: int                  # accepted count produced by subsampling
    rho: float
    fake_cap: int                # 0: keep everything surviving the filter
    master_seed: int

    def __post_init__(self):
        """Rejects, before any stage runs, the values a stage would reject,
        calling the constructor or check that owns a rule rather than
        restating it."""
        task = self.data.task
        if not 0.0 <= self.rho <= 1.0:
            raise ValueError("rho must lie in [0, 1]")
        if not 0.0 < self.train_fraction < 1.0:
            raise ValueError("train_fraction must be in (0, 1)")
        # split shares data.n and M1 shares n_fake over the label groups
        groups = len(label_groups(task, np.empty(0)))
        check_splittable(task, class_budgets(self.data.n, groups))
        if min(class_budgets(self.n_fake, groups)) < 1:
            raise ValueError("n_fake must cover every class, or the "
                             "regression set, at least once")
        if self.generator_kind not in GENERATOR_KINDS:
            raise ValueError(f"unknown generator kind {self.generator_kind!r}")
        _oracle(self)
        if self.generator_kind == "cgan" and self.gan is None:
            raise ValueError("cgan generator requires a GanTrainConfig")
        if self.fake_cap < 0:
            raise ValueError("fake_cap must be nonnegative")
        check_loss(self.student_loss, task)
        for hidden in (self.teacher_hidden, self.student_hidden,
                       self.dr_hidden):
            NetSpec(self.data.dim, hidden, "linear")
        if self.dr_gamma < 1.0:
            raise ValueError("gamma must be >= 1")


@dataclass
class PipelineReport:
    metrics: dict                # each variant's network -> its Metrics
    filter_report: FilterReport
    n_real: int
    n_fake: int
    m_fake: int                  # fakes surviving the filter (and cap)
    theta: float
    timings: dict = field(default_factory=dict)

    @property
    def teacher(self) -> Metrics:
        return self.metrics["teacher"]

    @property
    def student_nokd(self) -> Metrics:
        return self.metrics["nokd"]

    @property
    def student_cgankd(self) -> Metrics:
        return self.metrics["full"]


class StageError(RuntimeError):
    """A pipeline stage failed; .stage names the culprit."""

    def __init__(self, stage, cause):
        super().__init__(f"pipeline stage {stage!r} failed: {cause}")
        self.stage = stage


def _stage(name, timings, fn):
    start = time.perf_counter()
    try:
        out = fn()
    except StageError:
        raise
    except Exception as exc:
        raise StageError(name, exc) from exc
    timings[name] = time.perf_counter() - start
    return out


def _net_job(dataset: Dataset, hidden, train_cfg: TrainConfig, loss: Loss,
             seed: int, teacher: NetParams = None) -> list:
    """The `nncore.train` arguments that fit a fresh network of `hidden`
    widths to `dataset` under `loss`; the teacher, whose soft labels only
    blkd reads, is passed on for blkd alone."""
    spec = NetSpec(dataset.dim, hidden, *nncore.task_head(dataset.task))
    return [nncore.init_params(spec, seed), dataset,
            replace(train_cfg, seed=seed, loss=loss),
            teacher if loss.kind == "blkd" else None]


def augment(real: Dataset, fakes: Dataset) -> Dataset:
    """Union of the real training set and processed fakes."""
    return concat(real, fakes) if fakes.n else real


def train_student(d_aug: Dataset, hidden, train_cfg: TrainConfig, loss: Loss,
                  seed: int, teacher: NetParams = None,
                  together=()) -> NetParams:
    """Train the student on the (augmented) set under `loss` (see
    `_net_job`), with the `together` jobs (see `nncore.train`)."""
    params, _ = nncore.train(*_net_job(d_aug, hidden, train_cfg, loss, seed,
                                       teacher), together=together)
    return params


def _oracle(config: PipelineConfig) -> CorruptedOracle:
    return CorruptedOracle(config.data, flip_prob=config.oracle_flip,
                           label_gauss_std=config.oracle_label_std,
                           junk_prob=config.oracle_junk,
                           junk_spread=config.oracle_junk_spread)


def _prepare_generator(config: PipelineConfig, real_train: Dataset, seed: int):
    if config.generator_kind == "oracle":
        return _oracle(config)
    return cgen.train_cgan(real_train, replace(config.gan, seed=seed))


def _subsample_fakes(config: PipelineConfig, generator, real_train: Dataset,
                     seed_of) -> Dataset:
    """Module M1: density-ratio rejection until n_fake accepted, per label
    group with class budgets and labels drawn from the group's own rows."""
    fake_labels = cgen.sample_labels(real_train, real_train.n,
                                     seed=seed_of("m1-fake-labels"))
    fake_train = cgen.sample(generator, fake_labels, seed=seed_of("m1-fakes"))
    model = m1_subsample.train_dr(
        real_train, fake_train, config.dr_hidden,
        replace(config.dr_train, seed=seed_of("m1-dr")), config.dr_gamma,
        seed_of("m1"))
    reject = partial(m1_subsample.rejection_sample,
                     partial(cgen.sample_features, generator), real_train.task,
                     partial(m1_subsample.ratio_batch, model), model.m_max)
    groups = label_groups(real_train.task, real_train.labels)
    budgets = class_budgets(config.n_fake, len(groups))
    return reduce(concat, [
        reject(m1_subsample.empirical_labels(
                   real_train.labels[idx], seed=seed_of("m1-labels", *parts)),
               int(n), seed=seed_of("m1-reject", *parts))
        for (parts, idx), n in zip(groups, budgets)])


def _cap_fakes(fakes: Dataset, cap: int, seed: int) -> Dataset:
    if cap <= 0 or fakes.n <= cap:
        return fakes
    g = rng.generator(seed)
    idx = np.sort(g.permutation(fakes.n)[:cap])
    return fakes.subset(idx)


def _save(checkpoint_dir, name, writer, obj, *args):
    if checkpoint_dir is not None:
        writer(obj, f"{checkpoint_dir}/{name}", *args)


RUN_VARIANTS = ("teacher", "nokd", "full")
ABLATION_VARIANTS = ("raw", "m1", "m1m2", "full")


def run_pipeline(config: PipelineConfig, checkpoint_dir=None, batch=None,
                 variants=RUN_VARIANTS):
    """Execute the run's stages for the networks `variants` names and
    report their metrics; optionally checkpoint artifacts per stage.

    "teacher" reports the teacher, which every run trains for M2, and
    "nokd" the baseline student on the real set alone (stage
    "student-nokd").  Each other variant is the run's student, under
    `student_loss`, on the real set plus a fake set capped at `fake_cap`,
    in a stage of its own, "student" for "full" and "student-<variant>"
    otherwise: "raw" the generator's unprocessed fakes (stage "raw", run
    only for it), "m1" the subsampled ones, "m1m2" those M2 keeps and
    "full" those relabelled too (for classification, "m1m2" again).  No
    fake set outlives the stages before the students.

    With a `batch` list (see `run_pipelines`), the run stops before its
    student stages: it appends its students' `nncore.train` arguments to
    `batch` and returns a function that runs the rest, with `batch` as each
    student's `together` jobs, and returns the report.

    The data stage's (train, eval) split is read-only, and memoized by
    (data, train fraction, master seed): inside `run_pipelines` a run whose
    split the memo holds takes it and makes none.
    """
    timings = {}
    seed_of = partial(rng.derive_key, config.master_seed)

    def make_split():
        full = make_dataset(replace(config.data, seed=seed_of("data")))
        pair = split(full, config.train_fraction, seed_of("split"))
        for d in pair:
            d.features.flags.writeable = d.labels.flags.writeable = False
        return pair

    real_train, eval_set = _stage("data", timings, lambda: nncore.memoized(
        "split", [config.data, config.train_fraction, config.master_seed],
        make_split))
    _save(checkpoint_dir, "train.txt", write_dataset, real_train, "real")
    _save(checkpoint_dir, "eval.txt", write_dataset, eval_set, "real")

    teacher = _stage("teacher", timings, lambda: nncore.train(*_net_job(
        real_train, config.teacher_hidden, config.teacher_train,
        plain_loss(real_train.task), seed_of("teacher")))[0])
    _save(checkpoint_dir, "teacher.txt", modelio.write_netparams, teacher)

    nets = {"teacher": teacher}

    # The stages up to M2, in a scope of their own so that the fake sets die
    # when it returns.
    def prefix():
        generator = _stage("generator", timings, lambda: _prepare_generator(
            config, real_train, seed_of("generator")))
        _save(checkpoint_dir, "generator.txt", cgen.save_generator, generator)
        d_m1 = _stage("m1", timings, lambda: _subsample_fakes(
            config, generator, real_train, seed_of))
        _save(checkpoint_dir, "fakes_m1.txt", write_dataset, d_m1, "fake_m1")
        if "nokd" in variants:
            nets["nokd"] = _stage("student-nokd", timings, lambda: (
                train_student(real_train, config.student_hidden,
                              config.student_train,
                              plain_loss(real_train.task), seed_of("student"))))
            _save(checkpoint_dir, "student_nokd.txt", modelio.write_netparams,
                  nets["nokd"])
        sets = {"m1": d_m1}
        if "raw" in variants:
            sets["raw"] = _stage("raw", timings, lambda: cgen.sample(
                generator, cgen.sample_labels(real_train, config.n_fake,
                                              seed=seed_of("raw-labels")),
                seed=seed_of("raw-fakes")))
        sets["m1m2"], sets["full"], filter_report = _stage("m2", timings, (
            lambda: m2_labeladjust.run_m2(teacher, d_m1, config.rho)))
        capped = {v: _cap_fakes(sets[v], config.fake_cap, seed_of("fake-cap"))
                  for v in variants if v in sets}
        _save(checkpoint_dir, "fakes_m2.txt", write_dataset, capped["full"],
              "fake_m2")
        return filter_report, capped["full"].n, {v: (
            augment(real_train, fakes), config.student_hidden,
            config.student_train, config.student_loss, seed_of("student"),
            teacher) for v, fakes in capped.items()}

    filter_report, m_fake, student_args = prefix()
    if batch is not None:
        batch += [_net_job(*args) for args in student_args.values()]

    def finish():
        # "full" first, so that its "student" stage times the stacked loop
        for name in sorted(student_args, key=lambda v: v != "full"):
            stage = "student" if name == "full" else f"student-{name}"
            nets[name] = _stage(stage, timings, lambda: train_student(
                *student_args[name], together=batch or ()))
        _save(checkpoint_dir, "student.txt", modelio.write_netparams,
              nets["full"])
        metrics = _stage("evaluate", timings, lambda: {
            name: nncore.evaluate(nets[name], eval_set) for name in variants})
        return PipelineReport(
            metrics=metrics, filter_report=filter_report,
            n_real=real_train.n, n_fake=config.n_fake, m_fake=m_fake,
            theta=real_train.n / (real_train.n + m_fake), timings=timings)

    return finish() if batch is None else finish


def run_pipelines(configs, variants=RUN_VARIANTS) -> list:
    """`run_pipeline` of each config for `variants`, with the students of
    all the runs trained together in one stacked SGD loop.

    The whole call runs inside one training memo (`nncore.reuse_training`),
    so it trains each distinct network once, and runs with equal data,
    train fraction and master seed share one split, made by the first of
    them; the memo dies with the call.  Each run executes its stages up to
    M2 in turn, inside its own `run_pipeline` call, where the benchmark's
    traced stage-repeat check (bench/spans.py) finds them; then each run
    executes its student and evaluate stages in turn, and the first student
    stage trains every student.  The runs' students must share their
    network, schedule and loss, as the cells of one sweep seed do.  With two
    failing runs, the stage named may differ from one-by-one runs, since
    every run reaches M2 before any student trains; it is a StageError
    either way.
    """
    with nncore.reuse_training():
        batch = []
        finishes = [run_pipeline(config, batch=batch, variants=variants)
                    for config in configs]
        return [finish() for finish in finishes]


def run_ablation(config: PipelineConfig) -> dict:
    """Metrics of the module ablation's students by variant, in
    `ABLATION_VARIANTS` order (see `run_pipeline`), all trained in one
    stacked SGD loop; `full` is `run_pipeline`'s student for the config."""
    return run_pipelines([config], ABLATION_VARIANTS)[0].metrics
