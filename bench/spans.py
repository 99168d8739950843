"""Span recorder that times each cgankd module from outside the program.

`Tracer.install()` replaces public functions of the cgankd modules, and every
name another cgankd module imported for them, with wrappers that record one
span per call: name, start, end and parent, plus counts read from the call's
arguments and result.  `Tracer.uninstall()` puts the originals back.  Spans
stay in memory; `write_jsonl` writes them out once the run ends, and
`layer_metrics` reduces them to the per-layer figures.

The recorder keeps one stack of open spans for the whole process.  It
assumes that one thread at a time runs wrapped calls, which `--jobs 1`
gives: the CLI runs its single job on a pool thread while the calling
thread waits.
"""

import dataclasses
import hashlib
import importlib
import inspect
import json
import math
import os
import time
from collections import defaultdict

import numpy as np

STAGES = ("data", "teacher", "student-nokd", "generator", "m1", "m2",
          "student", "evaluate")
ROLES = ("teacher", "student", "dr")

# Wrapped public functions per module.  `m3_distill._stage` is the stage
# executor behind `run`/`sweep`; its spans are named after the stage.
WRAPPED = {
    "cli": ("main",),
    "m3_distill": ("run_pipeline", "run_ablation", "train_student",
                   "augment", "_stage"),
    "nncore": ("train", "forward_batch", "evaluate", "init_params"),
    "cgen": ("train_cgan", "sample", "sample_features", "sample_labels",
             "make_oracle", "save_generator"),
    "m1_subsample": ("train_dr", "rejection_sample", "ratio_batch"),
    "m2_labeladjust": ("run_m2", "filter_classification",
                       "filter_regression", "replace_labels"),
    "synthdata": ("make_dataset", "split", "concat", "write_dataset"),
    "modelio": ("write_netparams",),
    "rng": ("derive_key", "generator", "uniforms", "normals", "raw64"),
}

# PipelineConfig fields each stage of `run_pipeline` reads, directly or
# through the stages it consumes (None: every field).  Two executions of a
# stage with equal fields in one command have equal inputs; the traced run
# confirms it by comparing their output digests.
_DATA = ("master_seed", "data", "train_fraction")
_GENERATOR = _DATA + ("generator_kind", "oracle_flip", "oracle_label_std",
                      "oracle_junk", "oracle_junk_spread", "gan")
_M1 = _GENERATOR + ("dr_hidden", "dr_train", "dr_gamma", "n_fake")
STAGE_INPUTS = {
    "data": _DATA,
    "teacher": _DATA + ("teacher_hidden", "teacher_train"),
    "student-nokd": _DATA + ("student_hidden", "student_train"),
    "generator": _GENERATOR,
    "m1": _M1,
    "m2": _M1 + ("teacher_hidden", "teacher_train", "rho"),
    "student": None,
    "evaluate": None,
}


class Span:
    __slots__ = ("id", "name", "parent", "start", "end", "attrs")

    def __init__(self, sid, name, parent, start):
        self.id = sid
        self.name = name
        self.parent = parent
        self.start = start
        self.end = None
        self.attrs = {}

    @property
    def duration(self):
        return self.end - self.start


def self_times(spans):
    """Span id -> duration minus the part of it that child spans cover."""
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    out = {}
    for s in spans:
        covered, reach = 0.0, s.start
        for start, end in sorted(children[s.id]):
            start, end = max(start, reach), min(end, s.end)
            if end > start:
                covered += end - start
                reach = end
        out[s.id] = s.duration - covered
    return out


def digest(obj, h=None):
    """SHA-256 over arrays, dataclasses, containers and scalar reprs."""
    top = h is None
    h = hashlib.sha256() if top else h
    if isinstance(obj, np.ndarray):
        h.update(f"{obj.dtype.str}{obj.shape}".encode())
        h.update(np.ascontiguousarray(obj).tobytes())
    elif dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        h.update(type(obj).__name__.encode())
        for f in dataclasses.fields(obj):
            digest(getattr(obj, f.name), h)
    elif isinstance(obj, (list, tuple)):
        h.update(b"[")
        for item in obj:
            digest(item, h)
        h.update(b"]")
    elif isinstance(obj, dict):
        h.update(b"{")
        for key in sorted(obj, key=repr):
            h.update(repr(key).encode())
            digest(obj[key], h)
        h.update(b"}")
    else:
        h.update(repr(obj).encode())
    return h.hexdigest() if top else None


def _file_bytes(span, bound, out):
    span.attrs["bytes"] = os.path.getsize(bound.arguments["path"])


def _draws(span, bound, out):
    span.attrs["draws"] = int(np.size(bound.arguments["counters"]))


class Tracer:
    """Records spans around the wrapped cgankd functions while installed."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._patches = []
        self._stage_digests = {}
        self._configs = {}
        self.stage_mismatches = []

    # -- recording ---------------------------------------------------------
    def _open(self, name):
        parent = self._stack[-1].id if self._stack else None
        span = Span(len(self.spans), name, parent, time.perf_counter())
        self.spans.append(span)
        self._stack.append(span)
        return span

    def _close(self, span):
        span.end = time.perf_counter()
        self._stack.pop()

    def ancestor(self, span, name):
        while span.parent is not None:
            span = self.spans[span.parent]
            if span.name == name:
                return span
        return None

    def _wrap(self, name, fn, before=None, after=None):
        sig = inspect.signature(fn) if (before or after) else None

        def wrapper(*args, **kwargs):
            span = self._open(name)
            try:
                if sig is None:
                    return fn(*args, **kwargs)
                bound = sig.bind(*args, **kwargs)
                if before is not None:
                    before(span, bound)
                out = fn(*bound.args, **bound.kwargs)
            finally:
                self._close(span)
            if after is not None:
                after(span, bound, out)
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    # -- hooks that turn arguments and results into counts ------------------
    def _before_pipeline(self, span, bound):
        self._configs[span.id] = bound.arguments["config"]

    def _before_stage(self, span, bound):
        span.name = "m3_distill.stage." + bound.arguments["name"]

    def _after_stage(self, span, bound, out):
        run = self.ancestor(span, "m3_distill.run_pipeline")
        if run is None:
            return
        stage = bound.arguments["name"]
        command = self.ancestor(span, "cli.main")
        config = self._configs[run.id]
        fields = STAGE_INPUTS.get(stage) or [
            f.name for f in dataclasses.fields(config)]
        key = (command.id if command else None, stage,
               tuple(repr(getattr(config, f)) for f in fields))
        value = digest(out)
        first = self._stage_digests.get(key)
        span.attrs["repeat"] = first is not None
        if first is None:
            self._stage_digests[key] = value
        elif first != value:
            self.stage_mismatches.append(stage)

    def _before_reject(self, span, bound):
        source = bound.arguments["label_source"]
        span.attrs["candidates"] = 0

        def counted(indices):
            span.attrs["candidates"] += len(indices)
            return source(indices)
        bound.arguments["label_source"] = counted

    @staticmethod
    def _after_train(span, bound, out):
        n = bound.arguments["dataset"].n
        cfg = bound.arguments["config"]
        span.attrs["steps"] = cfg.epochs * math.ceil(n / cfg.batch_size)

    @staticmethod
    def _after_filter(span, bound, out):
        span.attrs["in"] = bound.arguments["fakes"].n
        span.attrs["kept"] = out[0].n

    def _hooks(self):
        def rows(arg):
            def after(span, bound, out):
                span.attrs["rows"] = len(bound.arguments[arg])
            return after
        return {
            "m3_distill.run_pipeline": (self._before_pipeline, None),
            "m3_distill._stage": (self._before_stage, self._after_stage),
            "nncore.train": (None, self._after_train),
            "nncore.forward_batch": (None, rows("X")),
            "cgen.train_cgan": (None, lambda s, b, o: s.attrs.update(
                iterations=b.arguments["config"].iterations)),
            "cgen.sample_features": (None, rows("labels")),
            "m1_subsample.rejection_sample": (
                self._before_reject,
                lambda s, b, o: s.attrs.update(accepted=o.n)),
            "m2_labeladjust.filter_classification": (None, self._after_filter),
            "m2_labeladjust.filter_regression": (None, self._after_filter),
            "synthdata.write_dataset": (None, _file_bytes),
            "modelio.write_netparams": (None, _file_bytes),
            "rng.uniforms": (None, _draws),
            "rng.normals": (None, _draws),
            "rng.raw64": (None, _draws),
        }

    # -- installation ------------------------------------------------------
    def install(self):
        modules = {name: importlib.import_module(f"cgankd.{name}")
                   for name in WRAPPED}
        hooks = self._hooks()
        for mod_name, functions in WRAPPED.items():
            for fn_name in functions:
                # A name the program no longer has records nothing.
                original = getattr(modules[mod_name], fn_name, None)
                if original is None:
                    continue
                span_name = f"{mod_name}.{fn_name}"
                wrapper = self._wrap(span_name, original,
                                     *hooks.get(span_name, (None, None)))
                # The defining module and every module that imported the
                # function by name.
                for module in modules.values():
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            self._patches.append((module, attr, original))
                            setattr(module, attr, wrapper)

    def uninstall(self):
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def records(self):
        """Spans as JSON-ready dicts, with their self time."""
        own = self_times(self.spans)
        return [{"id": s.id, "name": s.name, "parent": s.parent,
                 "start": s.start, "end": s.end, "self": own[s.id],
                 "attrs": s.attrs} for s in self.spans]


def write_jsonl(path, records):
    with open(path, "w") as f:
        for rec in records:
            f.write(json.dumps(rec) + "\n")


def _outermost(tracer, prefix):
    """Spans whose name starts with prefix and no ancestor's does."""
    out = []
    for s in tracer.spans:
        if s.name.startswith(prefix):
            p = s.parent
            while p is not None and not tracer.spans[p].name.startswith(prefix):
                p = tracer.spans[p].parent
            if p is None:
                out.append(s)
    return out


def _role(tracer, span):
    if tracer.ancestor(span, "m1_subsample.train_dr"):
        return "dr"
    if tracer.ancestor(span, "m3_distill.train_student"):
        return "student"
    return "teacher"


def layer_metrics(tracer):
    """Per-layer figures of one traced round (values only, units apart)."""
    by_name = defaultdict(list)
    for s in tracer.spans:
        by_name[s.name].append(s)

    def secs(name):
        return sum(s.duration for s in by_name[name])

    def count(name, attr):
        return sum(s.attrs.get(attr, 0) for s in by_name[name])

    m = {}
    stage_spans = [s for s in tracer.spans
                   if s.name.startswith("m3_distill.stage.")]
    for stage in STAGES:
        m[f"m3.stage_s.{stage}"] = secs(f"m3_distill.stage.{stage}")
    repeats = [s for s in stage_spans if s.attrs.get("repeat")]
    m["m3.stage_runs"] = len(stage_spans)
    m["m3.stage_runs_repeat"] = len(repeats)
    m["m3.repeat_s"] = sum(s.duration for s in repeats)

    train = by_name["nncore.train"]
    m["nncore.train.calls"] = len(train)
    m["nncore.train.s"] = secs("nncore.train")
    m["nncore.sgd_steps"] = count("nncore.train", "steps")
    for role in ROLES:
        mine = [s for s in train if _role(tracer, s) == role]
        steps = sum(s.attrs["steps"] for s in mine)
        m[f"nncore.step_us.{role}"] = (
            1e6 * sum(s.duration for s in mine) / steps if steps else 0.0)
    m["nncore.forward_batch.s"] = secs("nncore.forward_batch")
    m["nncore.forward_batch.rows"] = count("nncore.forward_batch", "rows")
    m["nncore.evaluate.s"] = secs("nncore.evaluate")

    m["cgen.train_cgan.s"] = secs("cgen.train_cgan")
    m["cgen.train_cgan.iterations"] = count("cgen.train_cgan", "iterations")
    m["cgen.sample_features.s"] = secs("cgen.sample_features")
    m["cgen.sample_features.rows"] = count("cgen.sample_features", "rows")

    reject_s = secs("m1_subsample.rejection_sample")
    candidates = count("m1_subsample.rejection_sample", "candidates")
    accepted = count("m1_subsample.rejection_sample", "accepted")
    m["m1.train_dr.s"] = secs("m1_subsample.train_dr")
    m["m1.rejection_sample.s"] = reject_s
    m["m1.candidates"] = candidates
    m["m1.accepted"] = accepted
    m["m1.accept_ratio"] = accepted / candidates if candidates else 0.0
    m["m1.candidates_per_s"] = candidates / reject_s if reject_s else 0.0

    filters = (by_name["m2_labeladjust.filter_classification"]
               + by_name["m2_labeladjust.filter_regression"])
    m["m2.s"] = sum(s.duration for s in _outermost(tracer, "m2_labeladjust."))
    m["m2.in"] = sum(s.attrs["in"] for s in filters)
    m["m2.kept"] = sum(s.attrs["kept"] for s in filters)

    m["synthdata.make_dataset.s"] = secs("synthdata.make_dataset")
    m["synthdata.write_dataset.s"] = secs("synthdata.write_dataset")
    m["synthdata.write_dataset.bytes"] = count("synthdata.write_dataset",
                                               "bytes")
    m["modelio.write_netparams.s"] = secs("modelio.write_netparams")
    m["modelio.write_netparams.bytes"] = count("modelio.write_netparams",
                                               "bytes")

    rng_outer = _outermost(tracer, "rng.")
    m["rng.derive_key.calls"] = len(by_name["rng.derive_key"])
    m["rng.draws"] = sum(s.attrs.get("draws", 0) for s in rng_outer)
    m["rng.s"] = sum(s.duration for s in rng_outer)

    own = self_times(tracer.spans)
    m["cli.self_s"] = sum(own[s.id] for s in by_name["cli.main"])
    return m
