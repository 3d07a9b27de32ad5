"""No module in ``src/repro`` imports a name it never uses.

There is no linter in the toolchain, so this walks the package with
:mod:`ast`.  Package ``__init__`` modules re-export by design and are
skipped; a name listed in ``__all__`` or used only inside a string
annotation (``Optional["TrialSpec"]``) counts as used.
"""

import ast
import os

from .bench.test_run_options import _package_sources


def _annotation_names(tree):
    """Names inside string annotations, which the parser leaves as text."""
    annotations = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotations.append(node.returns)
        elif isinstance(node, ast.arg):
            annotations.append(node.annotation)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
    for annotation in filter(None, annotations):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                for inner in ast.walk(ast.parse(node.value, mode="eval")):
                    if isinstance(inner, ast.Name):
                        yield inner.id


def _exported(tree):
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            yield from ast.literal_eval(node.value)


def unused_imports(source):
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    used.update(_annotation_names(tree), _exported(tree))
    return sorted(imported - used)


class TestNoUnusedImports:
    def test_every_imported_name_is_used(self):
        unused = {
            rel: names
            for rel, source in _package_sources()
            if os.path.basename(rel) != "__init__.py"
            for names in [unused_imports(source)]
            if names
        }
        assert unused == {}

    def test_the_scan_sees_string_annotations_and_all(self):
        source = (
            "from typing import Dict, List, Optional\n"
            "from .x import Spec, helper, unused\n"
            "__all__ = ['helper']\n"
            "def f(a: Optional['Spec']) -> List[int]:\n"
            "    return []\n"
        )
        assert unused_imports(source) == ["Dict", "unused"]
