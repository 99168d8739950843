"""Every public module-level function and class in src/cgankd, and every
public method and property of those classes, has a caller in src/cgankd
itself: a name that only tests reach belongs in the tests.  It also checks
that `PipelineConfig` declares no field default."""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "cgankd"
MODULES = {p.stem: ast.parse(p.read_text()) for p in sorted(SRC.glob("*.py"))}


def _public_definitions():
    return [(mod, node) for mod, tree in MODULES.items() for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and not node.name.startswith("_")]


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


def _is_referenced(module, definition):
    name = definition.name
    for mod, tree in MODULES.items():
        direct, modules = _aliases(tree, module, name)
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
                    and node.value.id in modules):
                return True
            stack.extend(ast.iter_child_nodes(node))
    return False


def test_every_public_name_is_used_in_src():
    unused = [f"{module}.{definition.name}"
              for module, definition in _public_definitions()
              if not _is_referenced(module, definition)]
    assert unused == [], "reached only from outside src/cgankd"


def _public_members():
    """Public methods and properties of the classes in src/cgankd; names
    that start with an underscore, dunders included, are left out."""
    return [(mod, cls.name, node) for mod, tree in MODULES.items()
            for cls in tree.body if isinstance(cls, ast.ClassDef)
            for node in cls.body if isinstance(node, ast.FunctionDef)
            and not node.name.startswith("_")]


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
