"""Every Sphinx cross-reference in the package's docstrings names
something that exists, so a rename or a deletion cannot leave a
docstring pointing at nothing.

A ``:func:``, ``:class:``, ``:data:`` or ``:meth:`` target resolves as an
attribute path from its module's namespace, or as a full dotted path
from ``delsub``; a ``:mod:`` target is a module, a leading dot meaning
the package.  A ``:meth:`` target names its class too
(``Class.method``), so it reads the same wherever the docstring is shown,
and the class must hold the method."""

import ast
import importlib
import re
from pathlib import Path

import pytest

import delsub

PACKAGE = Path(delsub.__file__).resolve().parent
ROLE = re.compile(r":(func|meth|class|data|mod):`~?([^`]+)`")


def docstrings(tree):
    """The docstrings of the module and of every class and function in it."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            text = ast.get_docstring(node, clean=False)
            if text:
                yield text


def resolve(module, target):
    """The object a dotted target names, from the module's namespace or
    from an importable prefix of the target; AttributeError otherwise."""
    parts = target.split(".")
    owner, rest = module, parts
    for cut in range(len(parts), 0, -1):
        try:
            owner, rest = importlib.import_module(".".join(parts[:cut])), parts[cut:]
            break
        except ImportError:
            continue
    for part in rest:
        owner = getattr(owner, part)
    return owner


def broken_references(name):
    module = importlib.import_module(f"delsub.{name}" if name != "__init__" else "delsub")
    tree = ast.parse((PACKAGE / f"{name}.py").read_text())
    broken = []
    for text in docstrings(tree):
        for role, target in ROLE.findall(text):
            try:
                if role == "mod":
                    importlib.import_module(target, package="delsub")
                    continue
                owner = target.rpartition(".")[0]
                if role == "meth" and not (owner and isinstance(resolve(module, owner), type)):
                    raise AttributeError("no class named")
                resolve(module, target)
            except (AttributeError, ImportError) as exc:
                broken.append(f":{role}:`{target}` ({exc})")
    return broken


@pytest.mark.parametrize("name", sorted(p.stem for p in PACKAGE.glob("*.py")))
def test_docstring_references_resolve(name):
    assert broken_references(name) == []


def test_references_are_found():
    # the check reads real references, so an empty list above means something
    text = "\n".join(docstrings(ast.parse((PACKAGE / "intersect.py").read_text())))
    assert {role for role, _ in ROLE.findall(text)} >= {"func", "meth", "class", "data", "mod"}
