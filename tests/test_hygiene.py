"""Source hygiene checks that need no linter.

Every module under `src/vlmkit` (package `__init__` files aside, since they
import to re-export) uses each name it imports, every name a public
package lists in `__all__` exists, and every function, class and method the
package defines is read somewhere in `src/`, `tests/` or `bench/`. The
package imports and trains without scipy, which it does not depend on.
Every op name `numerics/ops.py` records on the tape is one the benchmark's
tracer times, so no op's time can hide in `numerics.ops.outside.share`.
Only `errors.py` catches the package's own errors, so an error gets the
prefix that names what it is about in one way, `errors.naming`.
"""

import ast
import importlib
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]
PACKAGE = REPO / "src" / "vlmkit"
MODULES = sorted(p for p in PACKAGE.rglob("*.py") if p.name != "__init__.py")


def _imported(tree):
    """Name bound by each import -> line of the import."""
    out = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                out[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                out[alias.asname or alias.name] = node.lineno
    return out


def _used(tree):
    """Names loaded anywhere, including inside quoted annotations."""
    annotations = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            every = args.posonlyargs + args.args + args.kwonlyargs + [args.vararg, args.kwarg]
            annotations += [a.annotation for a in every if a is not None and a.annotation]
            annotations += [node.returns] if node.returns else []
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for annotation in annotations:
        for n in ast.walk(annotation):
            if isinstance(n, ast.Constant) and isinstance(n.value, str):
                used |= {m.id for m in ast.walk(ast.parse(n.value, mode="eval"))
                         if isinstance(m, ast.Name)}
    return used


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.relative_to(PACKAGE).as_posix())
def test_module_uses_every_import(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    used = _used(tree)
    unused = [f"{name} (line {line})" for name, line in _imported(tree).items()
              if name not in used]
    assert not unused, f"{path.name} imports but never uses: {', '.join(unused)}"


@pytest.mark.parametrize("package", ["vlmkit", "vlmkit.data", "vlmkit.model", "vlmkit.numerics"])
def test_all_entries_resolve(package):
    module = importlib.import_module(package)
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert not missing, f"{package}.__all__ lists missing names: {', '.join(missing)}"
    assert len(set(module.__all__)) == len(module.__all__), f"{package}.__all__ repeats a name"


def _defined(tree):
    """(name, line) of each top-level function and class, and of each method."""
    out = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            out.append((node.name, node.lineno))
        if isinstance(node, ast.ClassDef):
            out += [(n.name, n.lineno) for n in node.body if isinstance(n, ast.FunctionDef)]
    return [(name, line) for name, line in out
            if not (name.startswith("__") and name.endswith("__"))]


def test_every_definition_is_read_somewhere():
    """A name counts as read where code loads it, bare or as an attribute; its
    own `def`/`class` line, an import or a mention in a string does not count."""
    reads = Counter()
    for path in (p for d in ("src", "tests", "bench") for p in (REPO / d).rglob("*.py")):
        for n in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
                reads[n.id] += 1
            elif isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load):
                reads[n.attr] += 1
    unread = [f"{path.relative_to(PACKAGE).as_posix()}:{line} {name}"
              for path in sorted(PACKAGE.rglob("*.py"))
              for name, line in _defined(ast.parse(path.read_text(encoding="utf-8")))
              if not reads[name]]
    assert not unread, f"defined but never read: {', '.join(unread)}"


WITHOUT_SCIPY = """
import sys
sys.modules["scipy"] = None     # any import of scipy now raises ImportError
import numpy as np
from vlmkit.data import BUILTIN_TEMPLATES, ByteTokenizer, Conversation, Turn, tokenize_and_label
from vlmkit.model import build_model, sequence_loss

model = build_model({}, seed=3)
conv = Conversation(id="s", image_path="x.ppm", turns=[
    Turn("human", "<image>\\nWhat color is the square?"), Turn("assistant", "red")])
sample = tokenize_and_label(conv, BUILTIN_TEMPLATES["llava_v1"], ByteTokenizer())
sample.image = np.zeros((3, model.image_size, model.image_size), dtype=np.float32)
loss, _ = sequence_loss(model, sample)
loss.backward()
print(loss.item())
"""


def test_imports_and_trains_without_scipy():
    src = str(PACKAGE.parent)
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", WITHOUT_SCIPY], env=env, capture_output=True,
                         text=True, timeout=300)
    assert out.returncode == 0, out.stderr
    assert float(out.stdout) > 0, out.stdout


def _recorded_ops():
    """Op names `numerics/ops.py` passes to `record` as a string literal."""
    tree = ast.parse((PACKAGE / "numerics" / "ops.py").read_text(encoding="utf-8"))
    return {n.args[0].value for n in ast.walk(tree)
            if isinstance(n, ast.Call) and isinstance(n.func, ast.Name) and n.func.id == "record"
            and n.args and isinstance(n.args[0], ast.Constant)}


def _traced_ops():
    """Op names `bench/tracing.py` times: `REPORTED_OPS` and the op names the
    `_OP_FUNCTIONS.update` calls add, read from the source without importing it."""
    tree = ast.parse((REPO / "bench" / "tracing.py").read_text(encoding="utf-8"))
    names = set()
    for n in ast.walk(tree):
        if isinstance(n, ast.Assign) and any(getattr(t, "id", None) == "REPORTED_OPS"
                                             for t in n.targets):
            names |= set(ast.literal_eval(n.value))
        elif (isinstance(n, ast.Call) and isinstance(n.func, ast.Attribute)
              and n.func.attr == "update" and getattr(n.func.value, "id", None) == "_OP_FUNCTIONS"):
            names |= set(ast.literal_eval(n.args[0]).values())
    return names


# Recorded ops the tracer does not time yet; it gains them with the next
# change to the benchmark.
UNTRACED_OPS = {"rms_norm"}


def test_every_recorded_op_is_one_the_tracer_times():
    recorded = _recorded_ops()
    assert "matmul" in recorded and "softmax" in recorded, recorded
    assert recorded - _traced_ops() == UNTRACED_OPS


def _package_errors():
    """The exception classes `errors.py` defines, read from the source, plus
    the built-in bases that catch them."""
    caught = {"Exception", "BaseException"}
    for n in ast.parse((PACKAGE / "errors.py").read_text(encoding="utf-8")).body:
        if isinstance(n, ast.ClassDef) and any(getattr(b, "id", None) in caught for b in n.bases):
            caught.add(n.name)
    return caught


def test_only_errors_py_catches_the_package_errors():
    caught = _package_errors()
    assert {"VlmkitError", "ValidationError", "DimensionError", "RegistryError"} <= caught
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        if path == PACKAGE / "errors.py":
            continue
        for n in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(n, ast.ExceptHandler):
                continue
            types = n.type.elts if isinstance(n.type, ast.Tuple) else [n.type]
            names = {t.id if isinstance(t, ast.Name) else getattr(t, "attr", None)
                     for t in types}
            if n.type is None or names & caught:
                found.append(f"{path.relative_to(PACKAGE).as_posix()}:{n.lineno}")
    assert not found, f"catches a package error outside errors.py: {', '.join(found)}"
