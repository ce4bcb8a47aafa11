"""Every public top-level name in the package has a reader.

A name that only tests use is code the program carries for nothing; this
test parses src/mobicast/*.py and lists each public top-level def, class or
constant (a module-level assignment, such as a registry dict) that no
package module reads, by name or as an attribute.
"""

import ast
import glob
import os

SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src", "mobicast")


def defined_names(tree) -> list:
    """Public names a module's top level defines or assigns."""
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.extend(leaf.id for target in targets for leaf in ast.walk(target)
                         if isinstance(leaf, ast.Name))
    return [name for name in names if not name.startswith("_")]


def unreferenced_names(src_dir: str) -> list:
    defined = []
    used = set()
    for path in sorted(glob.glob(os.path.join(src_dir, "*.py"))):
        with open(path, encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), filename=path)
        module = os.path.basename(path)[:-3]
        defined.extend((module, name) for name in defined_names(tree))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    return [f"{module}.{name}" for module, name in defined if name not in used]


def test_every_public_name_is_used_by_the_package():
    assert unreferenced_names(SRC) == []
