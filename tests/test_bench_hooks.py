"""The benchmark's span recorder (`bench/spans.py`) wraps cgankd functions
by name and reads their arguments by name, and it skips a name the program
no longer has without a word.  A rename in src would then zero a per-layer
figure unnoticed, so these tests read the recorder's source, without
running it, and hold every name it relies on against the program."""

import ast
import importlib
import inspect
import pathlib

SPANS = pathlib.Path(__file__).resolve().parent.parent / "bench" / "spans.py"
TREE = ast.parse(SPANS.read_text())

# Wrapped names the program lacks, each with why the recorder still lists it.
MISSING_ALLOWED = {
    "cgen.make_oracle": "stale in bench/: cgen no longer has it, and "
                        "the benchmark revision (ROADMAP item 1) drops it "
                        "from WRAPPED",
    "rng.generator": "stale in bench/: the counter-based draws replaced "
                     "rng's numpy generator, which no hook read, and the "
                     "benchmark revision (ROADMAP item 1) drops it from "
                     "WRAPPED",
    "m3_distill.run_ablation": "stale in bench/: every command now reaches "
                               "the pipeline through run_pipelines, which no "
                               "hook reads, and the benchmark revision "
                               "(ROADMAP item 1) drops it from WRAPPED",
}

# Every argument some hook reads; a hook the parser below stops seeing
# shows up as a missing name here.
HOOK_ARGUMENTS = {"dataset", "config", "fakes", "label_source", "path",
                  "counters", "X", "labels", "name"}


def _wrapped():
    node = next(node for node in TREE.body if isinstance(node, ast.Assign)
                and getattr(node.targets[0], "id", None) == "WRAPPED")
    return ast.literal_eval(node.value)


def _read_arguments(node):
    """Names read as `<bound>.arguments["name"]` anywhere under `node`."""
    return {sub.slice.value for sub in ast.walk(node)
            if isinstance(sub, ast.Subscript)
            and isinstance(sub.value, ast.Attribute)
            and sub.value.attr == "arguments"
            and isinstance(sub.slice, ast.Constant)}


def _hook_arguments():
    """Wrapped name -> the argument names its before and after hooks read.
    A hook is a function or method of the module, a lambda, or a call of a
    hook factory that takes the argument's name as a string."""
    functions = {node.name: node for node in ast.walk(TREE)
                 if isinstance(node, ast.FunctionDef)}
    table = next(node.value for node in ast.walk(functions["_hooks"])
                 if isinstance(node, ast.Return)
                 and isinstance(node.value, ast.Dict))
    out = {}
    for key, hooks in zip(table.keys, table.values):
        names = set()
        for hook in hooks.elts:
            if isinstance(hook, (ast.Name, ast.Attribute)):
                name = getattr(hook, "id", getattr(hook, "attr", None))
                names |= _read_arguments(functions[name])
            elif isinstance(hook, ast.Call):
                names |= {arg.value for arg in hook.args
                          if isinstance(arg, ast.Constant)}
            elif isinstance(hook, ast.Lambda):
                names |= _read_arguments(hook)
        out[key.value] = names
    return out


def _function(qualified):
    module, name = qualified.split(".")
    return getattr(importlib.import_module(f"cgankd.{module}"), name, None)


def test_every_wrapped_name_exists_in_cgankd():
    missing = {f"{module}.{name}" for module, names in _wrapped().items()
               for name in names if _function(f"{module}.{name}") is None}
    assert sorted(missing - set(MISSING_ALLOWED)) == [], (
        "bench/spans.py wraps a name cgankd no longer has")
    assert sorted(set(MISSING_ALLOWED) - missing) == [], (
        "stale allowlist entry")


def test_every_argument_a_hook_reads_is_a_parameter():
    hooks = _hook_arguments()
    wrapped = {f"{module}.{name}" for module, names in _wrapped().items()
               for name in names}
    assert set(hooks) <= wrapped
    assert set().union(*hooks.values()) == HOOK_ARGUMENTS
    absent = [f"{qualified}({arg})" for qualified, args in sorted(hooks.items())
              for arg in sorted(args)
              if arg not in inspect.signature(_function(qualified)).parameters]
    assert absent == [], "a hook reads an argument its function lacks"
