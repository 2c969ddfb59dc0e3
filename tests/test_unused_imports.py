"""No module under ``src/repro`` imports a name it never uses.

Each module is parsed with :mod:`ast`; every name an ``import`` binds
must be read somewhere in the module: as a plain name, as the base of
an attribute, in a string annotation (``warp: "Warp"``, the
``TYPE_CHECKING`` idiom) or in ``__all__``.  Package ``__init__.py``
files are exempt, since importing a name there is how a package
re-exports it.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"


def _bound_names(tree: ast.AST):
    """(name, line) for every name an import statement binds."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                yield name, node.lineno
        elif isinstance(node, ast.ImportFrom):
            if node.module == "__future__":
                continue
            for alias in node.names:
                if alias.name != "*":
                    yield alias.asname or alias.name, node.lineno


def _annotations(tree: ast.AST):
    """Every annotation expression in the module."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            for arg in (args.posonlyargs + args.args + args.kwonlyargs
                        + [args.vararg, args.kwarg]):
                if arg is not None and arg.annotation is not None:
                    yield arg.annotation
            if node.returns is not None:
                yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def _used_names(tree: ast.AST) -> set:
    used = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name)}
    for annotation in _annotations(tree):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) \
                    and isinstance(node.value, str):
                parsed = ast.parse(node.value, mode="eval")
                used.update(sub.id for sub in ast.walk(parsed)
                            if isinstance(sub, ast.Name))
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
                isinstance(target, ast.Name) and target.id == "__all__"
                for target in node.targets):
            used.update(ast.literal_eval(node.value))
    return used


def unused_imports(path: Path) -> list:
    """``module:line name`` for each name ``path`` imports and never
    uses."""
    tree = ast.parse(path.read_text(), filename=str(path))
    used = _used_names(tree)
    module = path.relative_to(SRC.parent).as_posix()
    return [f"{module}:{line} {name}"
            for name, line in _bound_names(tree) if name not in used]


def test_no_module_imports_a_name_it_never_uses():
    unused = [entry for path in sorted(SRC.rglob("*.py"))
              if path.name != "__init__.py"
              for entry in unused_imports(path)]
    assert not unused, "unused imports:\n" + "\n".join(unused)


def test_the_check_sees_string_annotations_and_plain_uses():
    tree = ast.parse(
        "from __future__ import annotations\n"
        "from typing import TYPE_CHECKING, List\n"
        "import os.path\n"
        "import json\n"
        "from repro.config import Protocol as P\n"
        "if TYPE_CHECKING:\n"
        "    from repro.gpu.warp import Warp\n"
        "def f(warp: 'List[Warp]') -> None:\n"
        "    return os.path.join('a')\n")
    bound = {name for name, _ in _bound_names(tree)}
    assert bound - _used_names(tree) == {"json", "P"}
