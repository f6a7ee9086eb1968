"""Source hygiene: no module in src/ or tests/ imports a name it never uses,
no function in src/ imports from the package or takes a parameter it never
reads, no definition in src/ is reached only from tests/, only the package
sets the BLAS thread count, and the configuration gains no settable value."""

import ast
import dataclasses
from pathlib import Path

import pytest

from monovio.pipeline import PipelineConfig

ROOT = Path(__file__).resolve().parent.parent
FILES = sorted(p for d in ("src", "tests") for p in (ROOT / d).rglob("*.py"))
# the code a run reaches: the package, the benchmark and the tools
RUN_FILES = sorted(p for d in ("src", "perfbench", "tools") for p in (ROOT / d).rglob("*.py"))
FUNCTION_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef)
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# the one module that sets them, at package import
BLAS_PIN = ROOT / "src" / "monovio" / "__init__.py"
# fields of PipelineConfig and of the config objects it reaches; a value
# stays settable only while something sets it to other than its default
SETTABLE_VALUES = 24


def _annotation_names(node):
    """Names inside string annotations, which the AST keeps as constants."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        try:
            node = ast.parse(node.value, mode="eval")
        except SyntaxError:
            return set()
    return {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, (ast.arg, ast.AnnAssign)) and node.annotation is not None:
            used |= _annotation_names(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns is not None:
            used |= _annotation_names(node.returns)
        elif (isinstance(node, ast.Assign) and isinstance(node.value, (ast.List, ast.Tuple))
              and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            used |= {e.value for e in node.value.elts if isinstance(e, ast.Constant)}
    return sorted(f"{name} (line {line})" for name, line in imported.items() if name not in used)


def package_imports_in_functions(source: str) -> list[str]:
    """Imports from the package (relative, or of monovio) inside a def: the
    package's module layering shows only in each module's own imports."""
    out = set()
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, FUNCTION_DEFS):
            continue
        for n in (n for stmt in node.body for n in ast.walk(stmt)):
            if isinstance(n, ast.ImportFrom):
                names = [n.module or ""] if n.level == 0 else ["monovio"]
            elif isinstance(n, ast.Import):
                names = [alias.name for alias in n.names]
            else:
                continue
            if any(name.split(".")[0] == "monovio" for name in names):
                out.add(f"{node.name} (line {n.lineno})")
    return sorted(out)


@pytest.mark.parametrize("path", [p for p in FILES if p.is_relative_to(ROOT / "src")],
                         ids=lambda p: str(p.relative_to(ROOT)))
def test_no_package_import_inside_a_function(path):
    assert package_imports_in_functions(path.read_text()) == []


def test_function_import_scanner_flags_package_and_keeps_others():
    src = (
        "from . import geometry\n"
        "def f():\n"
        "    from .geometry import skew\n"
        "    import scipy.sparse as sp\n"
        "    import monovio.pipeline\n"
        "def g():\n"
        "    from monovio import geometry\n"
        "    from numpy import linalg\n"
    )
    assert package_imports_in_functions(src) == ["f (line 3)", "f (line 5)", "g (line 7)"]


def unused_parameters(source: str) -> list[str]:
    """Parameters of each def that its body (nested defs included) never
    reads, an augmented assignment counting as a read; self, cls and names
    starting with an underscore are exempt."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        a = node.args
        params = [*a.posonlyargs, *a.args, *a.kwonlyargs, *filter(None, (a.vararg, a.kwarg))]
        read = set()
        for n in (n for stmt in node.body for n in ast.walk(stmt)):
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
                read.add(n.id)
            elif isinstance(n, ast.AugAssign) and isinstance(n.target, ast.Name):
                read.add(n.target.id)
        out += [f"{node.name}({p.arg}) (line {node.lineno})" for p in params
                if p.arg not in read and p.arg not in ("self", "cls") and not p.arg.startswith("_")]
    return sorted(out)


@pytest.mark.parametrize("path", FILES, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_scanner_flags_unused_and_keeps_used():
    src = (
        "from __future__ import annotations\n"
        "import os, sys as system\n"
        "from a.b import c, d as e\n"
        "def f(x: 'c') -> None:\n"
        "    return system.argv\n"
    )
    assert unused_imports(src) == ["e (line 3)", "os (line 2)"]


@pytest.mark.parametrize("path", [p for p in FILES if p.is_relative_to(ROOT / "src")],
                         ids=lambda p: str(p.relative_to(ROOT)))
def test_no_unused_parameters(path):
    assert unused_parameters(path.read_text()) == []


def test_parameter_scanner_flags_unread_and_keeps_read():
    src = (
        "class A:\n"
        "    def m(self, x, _y, *args, z=1, **kw):\n"
        "        def inner(cls):\n"
        "            return x\n"
        "        z = 2\n"
        "        kw += 1\n"
        "        return inner\n"
    )
    assert unused_parameters(src) == ["m(args) (line 2)", "m(z) (line 2)"]


def loaded_names(source: str) -> set[str]:
    """Every name, attribute and string constant that source loads."""
    out = set()
    for n in ast.walk(ast.parse(source)):
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
            out.add(n.id)
        elif isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load):
            out.add(n.attr)
        elif isinstance(n, ast.Constant) and isinstance(n.value, str):
            out.add(n.value)
    return out


def unreached_definitions(source: str, loaded: set[str]) -> list[str]:
    """Module-level functions and classes, and the non-dunder methods of
    those classes, whose name is not in loaded; main, the console entry, is
    exempt."""
    defs = []
    for node in ast.parse(source).body:
        if isinstance(node, (*FUNCTION_DEFS, ast.ClassDef)):
            defs.append((node.name, node.name, node.lineno))
        if isinstance(node, ast.ClassDef):
            defs += [(f"{node.name}.{m.name}", m.name, m.lineno) for m in node.body
                     if isinstance(m, FUNCTION_DEFS)
                     and not (m.name.startswith("__") and m.name.endswith("__"))]
    return sorted(f"{qual} (line {line})" for qual, name, line in defs
                  if name not in loaded and qual != "main")


def test_no_definition_reached_only_from_tests():
    loaded = set().union(*(loaded_names(p.read_text()) for p in RUN_FILES))
    unreached = {str(p.relative_to(ROOT)): unreached_definitions(p.read_text(), loaded)
                 for p in FILES if p.is_relative_to(ROOT / "src")}
    assert {k: v for k, v in unreached.items() if v} == {}


def test_reach_scanner_flags_unloaded_and_keeps_loaded():
    src = (
        "class A:\n"
        "    def __init__(self):\n"
        "        pass\n"
        "    def used(self):\n"
        "        return helper\n"
        "    def unused(self):\n"
        "        pass\n"
        "def helper():\n"
        "    pass\n"
        "def named_in_string():\n"
        "    pass\n"
        "def main():\n"
        "    pass\n"
        "def orphan():\n"
        "    def nested():\n"
        "        pass\n"
    )
    caller = "A().used()\nwrap(module, 'named_in_string')\n"
    loaded = loaded_names(src) | loaded_names(caller)
    assert unreached_definitions(src, loaded) == ["A.unused (line 6)", "orphan (line 14)"]


def _is_environ(node) -> bool:
    return (isinstance(node, ast.Attribute) and node.attr == "environ"
            or isinstance(node, ast.Name) and node.id == "environ")


def blas_thread_writes(source: str) -> list[str]:
    """Lines that may set a BLAS thread variable in the running process: an
    item of os.environ assigned, or a setenv or putenv call (monkeypatch's
    too). A key that is not a string constant counts when the module names
    one of the variables. An env dict handed to a child process is not a
    write."""
    tree = ast.parse(source)
    named = any(isinstance(n, ast.Constant) and n.value in BLAS_THREAD_VARS
                for n in ast.walk(tree))

    def may_set(key):
        return key.value in BLAS_THREAD_VARS if isinstance(key, ast.Constant) else named

    out = set()
    for n in ast.walk(tree):
        if isinstance(n, ast.Assign):
            if any(isinstance(t, ast.Subscript) and _is_environ(t.value) and may_set(t.slice)
                   for t in n.targets):
                out.add(n.lineno)
        elif (isinstance(n, ast.Call) and isinstance(n.func, ast.Attribute)
              and n.func.attr in ("setenv", "putenv") and (may_set(n.args[0]) if n.args else named)):
            out.add(n.lineno)
    return [f"line {line}" for line in sorted(out)]


def test_only_the_package_sets_the_blas_thread_count():
    files = sorted(p for d in ("src", "tools", "tests") for p in (ROOT / d).rglob("*.py"))
    writes = {str(p.relative_to(ROOT)): blas_thread_writes(p.read_text())
              for p in files if p != BLAS_PIN}
    assert {k: v for k, v in writes.items() if v} == {}


def test_blas_thread_scanner_flags_process_writes_and_keeps_child_envs():
    src = (
        "import os\n"
        "for var in ('OMP_NUM_THREADS',):\n"
        "    os.environ[var] = '1'\n"
        "os.environ['PATH'] = ''\n"
        "monkeypatch.setenv('OPENBLAS_NUM_THREADS', '2')\n"
        "os.putenv('HOME', '/')\n"
        "env = {'OMP_NUM_THREADS': '2', 'PATH': os.environ.get('PATH', '')}\n"
        "env.update(MKL_NUM_THREADS='1')\n"
        "subprocess.run(cmd, env=env)\n"
    )
    assert blas_thread_writes(src) == ["line 3", "line 5"]
    assert len(blas_thread_writes(BLAS_PIN.read_text())) == 1


def settable_values(config, prefix: str = "") -> list[str]:
    """Dotted names of the non-dataclass fields of config and of every
    dataclass its fields hold."""
    out = []
    for f in dataclasses.fields(config):
        value = getattr(config, f.name)
        if dataclasses.is_dataclass(value):
            out += settable_values(value, f"{prefix}{f.name}.")
        else:
            out.append(f"{prefix}{f.name}")
    return out


def test_no_new_settable_value():
    names = settable_values(PipelineConfig())
    assert len(names) <= SETTABLE_VALUES, (
        f"{len(names)} settable values, at most {SETTABLE_VALUES}: {', '.join(names)}")
