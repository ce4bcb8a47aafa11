"""Every public top-level function and class in the package has a caller.

A name that only tests use is code the program carries for nothing; this
test parses src/mobicast/*.py and lists each public top-level def or class
that no package module refers to, by name or as an attribute.
"""

import ast
import glob
import os

SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src", "mobicast")


def unreferenced_names(src_dir: str) -> list:
    defined = []
    used = set()
    for path in sorted(glob.glob(os.path.join(src_dir, "*.py"))):
        with open(path, encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), filename=path)
        module = os.path.basename(path)[:-3]
        defined.extend((module, node.name) for node in tree.body
                       if isinstance(node, (ast.FunctionDef, ast.ClassDef))
                       and not node.name.startswith("_"))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    return [f"{module}.{name}" for module, name in defined if name not in used]


def test_every_public_name_is_used_by_the_package():
    assert unreferenced_names(SRC) == []
