"""Every module-level function and class in src/cgankd, private ones
included, and every public method and property of those classes, has a
caller in src/cgankd itself: a name that only tests reach belongs in the
tests, and a private one that nothing reaches is a leftover.  The same holds
for a defaulted parameter, which some src call must pass, and for a
dataclass field, which src must read.  It also checks that `PipelineConfig`
declares no field default, that `m3_distill.run_pipeline` is the one
function that runs pipeline stages, that `cli.main` is the one that
loads configs and writes results, and that no module names `numpy.random`."""

import ast
import functools
import pathlib
from collections import defaultdict

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "cgankd"
MODULES = {p.stem: ast.parse(p.read_text()) for p in sorted(SRC.glob("*.py"))}


def _unreferenced(modules):
    """`module.name` of each module-level function and class that nothing
    in `modules` names outside its own definition."""
    return {f"{mod}.{node.name}" for mod, tree in modules.items()
            for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and not _is_referenced(modules, mod, node)}


def _aliases(tree, module, name):
    """Names under which `tree` sees `module.name` directly, and names
    under which it sees `module` itself."""
    direct, modules = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            for alias in node.names:
                if node.module == module and alias.name == name:
                    direct.add(alias.asname or alias.name)
                if node.module is None and alias.name == module:
                    modules.add(alias.asname or alias.name)
    return direct, modules


def _is_referenced(modules, module, definition):
    name = definition.name
    for mod, tree in modules.items():
        direct, module_names = _aliases(tree, module, name)
        if mod == module:
            direct.add(name)
        stack = [tree]
        while stack:
            node = stack.pop()
            if node is definition:
                continue
            if isinstance(node, ast.Name) and node.id in direct:
                return True
            if (isinstance(node, ast.Attribute) and node.attr == name
                    and isinstance(node.value, ast.Name)
                    and node.value.id in module_names):
                return True
            stack.extend(ast.iter_child_nodes(node))
    return False


@functools.cache
def _unreferenced_in_src():
    """`_unreferenced(MODULES)`, scanned once for both rules below."""
    return _unreferenced(MODULES)


def test_every_public_name_is_used_in_src():
    unused = sorted(name for name in _unreferenced_in_src()
                    if not name.split(".")[1].startswith("_"))
    assert unused == [], "reached only from outside src/cgankd"


def test_every_private_name_is_used_in_src():
    unused = sorted(name for name in _unreferenced_in_src()
                    if name.split(".")[1].startswith("_"))
    assert unused == [], "reached from nowhere"


def _functions(modules):
    """(module, class name or None, function) for every function and method
    at module or class level."""
    for mod, tree in modules.items():
        for node in tree.body:
            if isinstance(node, ast.FunctionDef):
                yield mod, None, node
            elif isinstance(node, ast.ClassDef):
                for member in node.body:
                    if isinstance(member, ast.FunctionDef):
                        yield mod, node.name, member


def _public_members():
    """Public methods and properties of the classes in src/cgankd; names
    that start with an underscore, dunders included, are left out."""
    return [(mod, cls, node) for mod, cls, node in _functions(MODULES)
            if cls is not None and not node.name.startswith("_")]


def _is_read_as_attribute(definition):
    """Whether src/cgankd reads `.name` anywhere outside the definition:
    the receiver's class is not resolved, so any attribute of that name
    counts."""
    for tree in MODULES.values():
        stack = [tree]
        while stack:
            node = stack.pop()
            if node is definition:
                continue
            if isinstance(node, ast.Attribute) and node.attr == definition.name:
                return True
            stack.extend(ast.iter_child_nodes(node))
    return False


def test_every_public_method_is_used_in_src():
    unused = [f"{module}.{cls}.{definition.name}"
              for module, cls, definition in _public_members()
              if not _is_read_as_attribute(definition)]
    assert unused == [], "reached only from outside src/cgankd"


def test_pipeline_config_declares_no_defaults():
    """`cli` decodes every field of a run's config, so a default on
    `PipelineConfig` would be a second owner of a setting."""
    config = next(node for node in MODULES["m3_distill"].body
                  if isinstance(node, ast.ClassDef)
                  and node.name == "PipelineConfig")
    defaulted = [node.target.id for node in config.body
                 if isinstance(node, ast.AnnAssign) and node.value is not None]
    assert defaulted == []


# Defaulted parameters that no src call passes, each with why it stays.
UNPASSED_DEFAULTS_ALLOWED = {
    "cli.main(argv)": "console entry point: the installed script calls "
                      "main() bare, so argv defaults to sys.argv",
}

# Dataclass fields that src writes and never reads, each with why it stays:
# the planned run trace and `bound.csv` columns (ROADMAP) read them.
_TRACE = "the run trace will record it"
_BOUND_CSV = "bound.csv will carry it as a column"
UNREAD_FIELDS_ALLOWED = {
    "m2_labeladjust.FilterReport.thresholds": _TRACE,
    "m2_labeladjust.FilterReport.counts_in": _TRACE,
    "m2_labeladjust.FilterReport.counts_out": _TRACE,
    "m3_distill.PipelineReport.timings": _TRACE,
    "theory.BoundReport.r_hat": _BOUND_CSV,
    "theory.BoundReport.complexity_term": _BOUND_CSV,
    "theory.BoundReport.statistical_term": _BOUND_CSV,
    "theory.BoundReport.gap_term": _BOUND_CSV,
    "theory.BoundReport.approx_term": _BOUND_CSV,
    "theory.VerifyReport.tv": _BOUND_CSV,
    "theory.VerifyReport.r_hat_stderr": _BOUND_CSV,
}

# One violation of each rule below, and a pass of each kind it accepts.
PLANTED = ast.parse("""
from dataclasses import dataclass

@dataclass(frozen=True)
class Report:
    kept: int
    dropped: int
    per_class: dict

class Optimizer:
    def __init__(self, lr, momentum=0.0):
        self.lr = lr
    def step(self, grad, scale=1.0, clip=None):
        return self.lr * grad * scale

def scale_of(report, factor=2.0, offset=0.0):
    return report.kept * factor + offset

def tally(report, c):
    report.per_class[c] = report.kept
    report.per_class[c][0] += 1
    del report.per_class[c]

def run():
    opt = Optimizer(0.1, 0.9)
    return opt.step(scale_of(Report(1, 2, {}), offset=1.0), 0.5)

def _stage(name, fn):
    return fn()

def run_pipeline(config):
    def finish():
        return _stage("student", lambda: config)
    _stage("data", lambda: config)
    return finish

def run_ablation(config):
    return _stage("raw", lambda: config)

def _flat_params(params):
    return _flat_params(params.weights)

class _Stack:
    pass

def _write_result(out_dir, rows):
    write_csv(out_dir, rows)
    return write_manifest(out_dir)

def run_pipelines(configs):
    with nncore.reuse_training():
        return configs

def main(path, out_dir):
    with reuse_training():
        write_csv(out_dir, load_config(path))
    return write_manifest(out_dir)
""")
PLANTED_UNPASSED = {"planted.Optimizer.step(clip)", "planted.scale_of(factor)"}
PLANTED_UNREAD = {"planted.Report.dropped", "planted.Report.per_class"}
PLANTED_STAGE_CALLERS = {"planted.run_ablation"}
PLANTED_DRIVER_CALLERS = {"planted._write_result"}
PLANTED_MEMO_OPENERS = {"planted.main"}
PLANTED_UNREFERENCED = {"planted.tally", "planted.run", "planted.run_pipeline",
                        "planted.run_ablation", "planted._flat_params",
                        "planted._Stack", "planted._write_result",
                        "planted.run_pipelines", "planted.main"}


def _calls_by_name(modules):
    """Callee name -> calls of `name(...)` or `<anything>.name(...)`: the
    receiver is not resolved, so any callee of that name counts."""
    calls = defaultdict(list)
    for tree in modules.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "id", getattr(node.func, "attr",
                                                        None))
                calls[name].append(node)
    return calls


def _unpassed_defaults(modules):
    """`module.[Class.]function(param)` for each defaulted parameter that no
    call in `modules` passes by keyword or by position; a constructor is
    called by its class name, and a call with *args or **kwargs passes
    every parameter."""
    out, calls_of = set(), _calls_by_name(modules)
    for mod, cls, fn in _functions(modules):
        args = fn.args
        positional = args.posonlyargs + args.args
        bound = int(cls is not None and not any(
            getattr(d, "id", None) == "staticmethod"
            for d in fn.decorator_list))
        defaulted = positional[len(positional) - len(args.defaults):] + [
            arg for arg, default in zip(args.kwonlyargs, args.kw_defaults)
            if default is not None]
        calls = calls_of[cls if fn.name == "__init__" else fn.name]
        for arg in defaulted:
            index = (positional.index(arg) - bound if arg in positional
                     else None)
            if not any(
                    any(k.arg in (arg.arg, None) for k in call.keywords)
                    or any(isinstance(a, ast.Starred) for a in call.args)
                    or (index is not None and len(call.args) > index)
                    for call in calls):
                qualified = f"{cls}.{fn.name}" if cls else fn.name
                out.add(f"{mod}.{qualified}({arg.arg})")
    return out


def _is_dataclass(cls):
    for decorator in cls.decorator_list:
        if isinstance(decorator, ast.Call):
            decorator = decorator.func
        if "dataclass" in (getattr(decorator, "id", None),
                           getattr(decorator, "attr", None)):
            return True
    return False


def _written_through(tree):
    """Ids of the attribute nodes that are only the base of a subscript
    store, augmented assignment or `del`, as `report.counts[g] = n` is:
    such a statement writes into the field and reads nothing from it."""
    out = set()
    for node in ast.walk(tree):
        if (isinstance(node, ast.Subscript)
                and isinstance(node.ctx, (ast.Store, ast.Del))):
            base = node.value
            while isinstance(base, ast.Subscript):
                base = base.value
            if isinstance(base, ast.Attribute):
                out.add(id(base))
    return out


def _unread_fields(modules):
    """`module.Class.field` for each dataclass field that `modules` never
    read as an attribute.  The constructor writes every field, and so does
    a store through a subscript of it; the reader's receiver is not
    resolved, so any read of that attribute name counts."""
    read = set()
    for tree in modules.values():
        written = _written_through(tree)
        read |= {node.attr for node in ast.walk(tree)
                 if isinstance(node, ast.Attribute)
                 and isinstance(node.ctx, ast.Load)
                 and id(node) not in written}
    return {f"{mod}.{cls.name}.{node.target.id}"
            for mod, tree in modules.items() for cls in tree.body
            if isinstance(cls, ast.ClassDef) and _is_dataclass(cls)
            for node in cls.body if isinstance(node, ast.AnnAssign)
            and node.target.id not in read}


def test_every_defaulted_parameter_is_passed_in_src():
    unpassed = _unpassed_defaults(MODULES)
    assert sorted(unpassed - set(UNPASSED_DEFAULTS_ALLOWED)) == [], (
        "defaulted parameter that only tests pass")
    assert sorted(set(UNPASSED_DEFAULTS_ALLOWED) - unpassed) == [], (
        "stale allowlist entry")


def test_every_dataclass_field_is_read_in_src():
    unread = _unread_fields(MODULES)
    assert sorted(unread - set(UNREAD_FIELDS_ALLOWED)) == [], (
        "dataclass field that src writes and never reads")
    assert sorted(set(UNREAD_FIELDS_ALLOWED) - unread) == [], (
        "stale allowlist entry")


def test_caller_rule_flags_a_planted_violation():
    assert _unreferenced({"planted": PLANTED}) == PLANTED_UNREFERENCED


def test_unpassed_default_rule_flags_a_planted_violation():
    assert _unpassed_defaults({"planted": PLANTED}) == PLANTED_UNPASSED


def test_unread_field_rule_flags_a_planted_violation():
    assert _unread_fields({"planted": PLANTED}) == PLANTED_UNREAD


def _callers(modules, callees, owner):
    """`module.name` of each top-level definition but `owner` that calls one
    of `callees`, by name or as an attribute, anywhere in its body, nested
    functions included; `module.<module>` for a call outside any."""
    out = set()
    for mod, tree in modules.items():
        for top in tree.body:
            name = getattr(top, "name", "<module>")
            if name != owner and any(
                    isinstance(node, ast.Call) and callees & {
                        getattr(node.func, "id", None),
                        getattr(node.func, "attr", None)}
                    for node in ast.walk(top)):
                out.add(f"{mod}.{name}")
    return out


def _stage_callers(modules):
    """Callers of the stage executor `_stage` but `run_pipeline`."""
    return _callers(modules, {"_stage"}, "run_pipeline")


def _driver_callers(modules):
    """Callers of the config loader and the result writers but `main`."""
    return _callers(modules, {"load_config", "write_csv", "write_manifest"},
                    "main")


def _memo_openers(modules):
    """Openers of the training memo `reuse_training` but `run_pipelines`."""
    return _callers(modules, {"reuse_training"}, "run_pipelines")


def test_only_run_pipeline_runs_stages():
    """Run, sweep and ablation share one stage sequence: a second function
    that calls the stage executor would be a second copy of it."""
    assert sorted(_stage_callers(MODULES)) == []


def test_stage_caller_rule_flags_a_planted_violation():
    assert _stage_callers({"planted": PLANTED}) == PLANTED_STAGE_CALLERS


def test_only_main_loads_configs_and_writes_results():
    """Every command's config is loaded, and its CSV and manifest written,
    by `cli.main`: a second function that does either would be a second
    copy of the command driver."""
    assert sorted(_driver_callers(MODULES)) == []


def test_driver_caller_rule_flags_a_planted_violation():
    assert _driver_callers({"planted": PLANTED}) == PLANTED_DRIVER_CALLERS


def test_only_run_pipelines_opens_the_training_memo():
    """One owner per memo: the cells of one `run_pipelines` call share their
    trainings and split, and the memo dies with the call.  A second opener
    would keep networks alive that no later call can reuse."""
    assert sorted(_memo_openers(MODULES)) == []


def test_memo_opener_rule_flags_a_planted_violation():
    assert _memo_openers({"planted": PLANTED}) == PLANTED_MEMO_OPENERS


def _numpy_random_uses(modules):
    """`module:line` of each import of `numpy.random`, or of a name from
    it, and of each `np.random` or `numpy.random` attribute."""
    out = set()
    for mod, tree in modules.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module] + [f"{node.module}.{alias.name}"
                                         for alias in node.names]
            elif (isinstance(node, ast.Attribute) and node.attr == "random"
                  and getattr(node.value, "id", None) in ("np", "numpy")):
                names = ["numpy.random"]
            else:
                continue
            if any(name == "numpy.random" or name.startswith("numpy.random.")
                   for name in names):
                out.add(f"{mod}:{node.lineno}")
    return out


PLANTED_RANDOM = ast.parse("""\
import numpy as np
import numpy.random
from numpy import linalg, random
from numpy.random import Philox
import numpy.linalg

def draw(key, rng):
    return np.random.default_rng(key), np.linalg.norm, rng.random(3)
""")


def test_no_module_names_numpy_random():
    """All randomness is counter-based (`rng`): importing `numpy.random`
    would hold about 1.9 MB of memory for the whole run."""
    assert sorted(_numpy_random_uses(MODULES)) == []


def test_numpy_random_rule_flags_a_planted_violation():
    assert _numpy_random_uses({"planted": PLANTED_RANDOM}) == {
        "planted:2", "planted:3", "planted:4", "planted:8"}
