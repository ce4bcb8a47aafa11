"""Every top-level name and every class member in the package has a reader.

A name that only tests use is code the program carries for nothing; these
tests parse src/mobicast/*.py and list each top-level def, class or
constant (a module-level assignment, such as a registry dict) that no
package module reads, by name or as an attribute: public names in one test,
private helpers (a leading underscore) in the other.  A third lists each
name a class body defines (a field, method, property or class attribute;
dunder names aside) that no package module reads as an attribute.  A fourth
lists each parameter a function declares with a default that no package
call passes, by keyword or by position.
"""

import ast
import glob
import os

SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src", "mobicast")


def defined_names(tree, private=False) -> list:
    """Public names, or with `private` underscored ones, a module's top
    level defines or assigns."""
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.extend(leaf.id for target in targets for leaf in ast.walk(target)
                         if isinstance(leaf, ast.Name))
    return [name for name in names if name.startswith("_") == private]


def unreferenced_names(src_dir: str, private=False) -> list:
    defined = []
    used = set()
    for path in sorted(glob.glob(os.path.join(src_dir, "*.py"))):
        with open(path, encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), filename=path)
        module = os.path.basename(path)[:-3]
        defined.extend((module, name) for name in defined_names(tree, private))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    return [f"{module}.{name}" for module, name in defined if name not in used]


def unread_members(src_dir: str) -> list:
    defined = []
    read = set()
    for path in sorted(glob.glob(os.path.join(src_dir, "*.py"))):
        with open(path, encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), filename=path)
        module = os.path.basename(path)[:-3]
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef):   # its body, read as a module's
                names = defined_names(node) + defined_names(node, private=True)
                defined.extend(f"{module}.{node.name}.{name}" for name in names
                               if not (name.startswith("__") and name.endswith("__")))
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
    return [member for member in defined if member.rsplit(".", 1)[1] not in read]


def test_every_public_name_is_used_by_the_package():
    assert unreferenced_names(SRC) == []


def test_every_private_name_is_used_by_the_package():
    assert unreferenced_names(SRC, private=True) == []


def test_every_class_member_is_read_by_the_package():
    assert unread_members(SRC) == []


# the console-script entry point: only the interpreter's caller omits argv
ENTRY_POINTS = {("cli.main", "argv")}


def defaulted_params(func) -> list:
    """(name, position) of each parameter of `func` declared with a default;
    the position counts the arguments a call writes (self, cls left out),
    and a keyword-only parameter has none."""
    args = func.args.posonlyargs + func.args.args
    skip = int(bool(args) and args[0].arg in ("self", "cls"))
    first = len(args) - len(func.args.defaults)
    out = [(arg.arg, i - skip) for i, arg in enumerate(args) if i >= first]
    out.extend((arg.arg, None) for arg, default
               in zip(func.args.kwonlyargs, func.args.kw_defaults) if default is not None)
    return out


def unpassed_defaults(src_dir: str) -> list:
    defs = []      # (qualified name, name a call spells, function node)
    calls = {}     # name a call spells -> [Call]
    values = set()   # names the package reads other than as a callee
    for path in sorted(glob.glob(os.path.join(src_dir, "*.py"))):
        with open(path, encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), filename=path)
        module = os.path.basename(path)[:-3]
        callees = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef):
                defs.extend((f"{module}.{node.name}.{item.name}",
                             node.name if item.name == "__init__" else item.name, item)
                            for item in node.body if isinstance(item, ast.FunctionDef))
            elif isinstance(node, ast.Call):
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                calls.setdefault(name, []).append(node)
                callees.add(id(func))
        defs.extend((f"{module}.{node.name}", node.name, node) for node in tree.body
                    if isinstance(node, ast.FunctionDef))
        for node in ast.walk(tree):
            if id(node) in callees or not isinstance(getattr(node, "ctx", None), ast.Load):
                continue
            if isinstance(node, ast.Name):
                values.add(node.id)
            elif isinstance(node, ast.Attribute):
                values.add(node.attr)

    def passed(call, name, position) -> bool:
        if any(kw.arg in (name, None) for kw in call.keywords):   # None: **mapping
            return True
        if any(isinstance(arg, ast.Starred) for arg in call.args):
            return True
        return position is not None and len(call.args) > position

    return [f"{qualname}({name})" for qualname, spelled, func in defs
            if spelled not in values
            for name, position in defaulted_params(func)
            if (qualname, name) not in ENTRY_POINTS
            and not any(passed(call, name, position) for call in calls.get(spelled, ()))]


def test_every_defaulted_parameter_is_passed_by_the_package():
    assert unpassed_defaults(SRC) == []
