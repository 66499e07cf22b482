"""Checks on the package's source text."""

from __future__ import annotations

import ast
import importlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import casedraft

SOURCES = sorted(Path(casedraft.__file__).parent.glob("*.py"))
ROOT = Path(__file__).resolve().parent.parent


# an export left behind by a deletion would break `from casedraft.x import *`
def test_every_exported_name_resolves():
    modules = [casedraft] + [
        importlib.import_module(f"casedraft.{path.stem}") for path in SOURCES if path.stem != "__init__"
    ]
    missing = sorted(
        f"{module.__name__}.{name}"
        for module in modules
        for name in getattr(module, "__all__", ())
        if not hasattr(module, name)
    )
    assert missing == []


def test_no_imports_inside_functions():
    assert SOURCES
    found = sorted({
        f"{path.name}:{inner.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        for inner in ast.walk(node)
        if isinstance(inner, (ast.Import, ast.ImportFrom))
    })
    assert found == []


def _module_level_private_names(tree):
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, ast.Assign):
            names = [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names = [node.target.id]
        else:
            continue
        yield from (n for n in names if n.startswith("_") and not n.startswith("__"))


def test_no_unreferenced_private_names():
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in SOURCES}
    referenced = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
            elif isinstance(node, ast.alias):
                referenced.add(node.name)
    unreferenced = sorted(
        f"{module}:{name}"
        for module, tree in trees.items()
        for name in _module_level_private_names(tree)
        if name not in referenced
    )
    assert unreferenced == []


# A module-level cache keyed by bundle or text would let a long-lived process
# ground against stale evidence; these two are keyed by type and by nothing.
ALLOWED_CACHES = {"model._converter", "prompting.phrasing_table"}


def _cache_decorated_functions(module, tree):
    functools_names = {
        alias.asname or alias.name: alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "functools"
        for alias in node.names
    }
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for decorator in node.decorator_list:
            target = decorator.func if isinstance(decorator, ast.Call) else decorator
            if isinstance(target, ast.Attribute):
                name = target.attr
            elif isinstance(target, ast.Name):
                name = functools_names.get(target.id, "")
            else:
                continue
            if name in ("cache", "lru_cache"):
                yield f"{module}.{node.name}"


def test_no_new_function_caches():
    found = {
        name
        for path in SOURCES
        for name in _cache_decorated_functions(path.stem, ast.parse(path.read_text(encoding="utf-8")))
    }
    assert found <= ALLOWED_CACHES, sorted(found - ALLOWED_CACHES)


def test_cache_scan_sees_every_spelling():
    tree = ast.parse(
        "import functools\n"
        "from functools import cache as memo, lru_cache, cached_property\n"
        "@functools.cache\ndef a(x): pass\n"
        "@functools.lru_cache(maxsize=8)\ndef b(x): pass\n"
        "@lru_cache\ndef c(x): pass\n"
        "class K:\n    @memo\n    def d(self): pass\n"
        "    @cached_property\n    def e(self): pass\n"
    )
    assert list(_cache_decorated_functions("m", tree)) == ["m.a", "m.b", "m.c", "m.d"]


# model.to_data writes every document from its dataclass's fields; a hand-kept
# key list beside it would be a second serializer to keep in step.
def test_no_hand_written_to_dict():
    found = sorted(
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.name == "to_dict"
    )
    assert found == []


def _field_type_reads(tree) -> list[int]:
    """Lines that import or call what reads a dataclass's fields or their types."""
    return sorted(
        node.lineno
        for node in ast.walk(tree)
        if (isinstance(node, ast.ImportFrom) and node.module in ("dataclasses", "typing")
            and any(alias.name in ("fields", "get_type_hints") for alias in node.names))
        or (isinstance(node, ast.Attribute)
            and (node.attr in ("get_type_hints", "__dataclass_fields__")
                 or (node.attr == "fields" and getattr(node.value, "id", None) == "dataclasses")))
    )


# model.from_data decodes every document, backend profiles included, from its
# dataclass's field types; a module reading them itself would be a second
# decoder to keep in step
def test_only_the_model_reads_a_dataclass_s_field_types():
    reads = {
        path.name: _field_type_reads(ast.parse(path.read_text(encoding="utf-8"))) for path in SOURCES
    }
    assert reads.pop("model.py")
    assert {name: lines for name, lines in reads.items() if lines} == {}


def test_field_type_reads_are_seen():
    tree = ast.parse(
        "import dataclasses, typing\n"
        "from dataclasses import dataclass, field, fields\n"
        "from typing import Optional, get_type_hints as hints\n"
        "dataclasses.fields(C)\n"
        "typing.get_type_hints(C)\n"
        "C.__dataclass_fields__\n"
        "fields = [f.name for f in fields]\n"
        "dataclasses.field(default=0)\n"
    )
    assert _field_type_reads(tree) == [2, 3, 4, 5, 6]


def _called(node, names) -> bool:
    return isinstance(node, ast.Call) and (
        getattr(node.func, "id", None) in names or getattr(node.func, "attr", None) in names
    )


def _whole_store_reads(tree) -> list[int]:
    """Lines that call a whole-store reader or gather iter_store's records
    into one collection."""
    return sorted(
        node.lineno
        for node in ast.walk(tree)
        if _called(node, {"read_store"})
        or (_called(node, {"list", "tuple", "sorted"})
            and any(_called(arg, {"iter_store"}) for arg in node.args))
    )


# every command reads the store one record at a time
def test_no_command_reads_the_whole_store():
    reads = [
        f"{path.name}:{lineno}"
        for path in SOURCES
        for lineno in _whole_store_reads(ast.parse(path.read_text(encoding="utf-8")))
    ]
    assert reads == []


def test_whole_store_reads_are_seen():
    tree = ast.parse(
        "a = list(iter_store(p))\n"
        "b = sorted(pipeline.iter_store(p), key=k)\n"
        "c = tuple(iter_store(p))\n"
        "d = summarize(iter_store(p))\n"
        "e = read_store(p)\n"
    )
    assert _whole_store_reads(tree) == [1, 2, 3, 5]


# On ext4, cutting blocks that are already on disk stalls for tens of
# milliseconds, and a truncating rewrite cuts every block of the old file.
# So every -o output goes through cli._save_text, which overwrites in place,
# the store is only appended to, and nothing names O_TRUNC.
FILE_WRITERS = {"cli._save_text", "pipeline._appending"}
_WRITE_CALLS = {"write_text", "write_bytes", "copyfile"}


def _file_writes(tree) -> list[tuple[int, str, str]]:
    """(line, enclosing function, what) for each file write: a call of
    write_text, write_bytes or copyfile, an open() whose mode writes or an
    os.open() whose flags do, and every O_TRUNC wherever it stands."""

    def write(node) -> str | None:
        if "O_TRUNC" in (getattr(node, "id", None), getattr(node, "attr", None)):
            return "O_TRUNC"
        if _called(node, _WRITE_CALLS):
            return "write"
        if not _called(node, {"open"}):
            return None
        # open, io.open, os.open and gzip.open take the mode second; a
        # method such as Path.open takes it first
        method = isinstance(node.func, ast.Attribute) and getattr(node.func.value, "id", None) not in ("os", "io")
        modes = [k.value for k in node.keywords if k.arg in ("mode", "flags")] + node.args[1 - method:2]
        for mode in modes:
            if isinstance(mode, ast.Constant) and isinstance(mode.value, str):
                if set(mode.value) <= set("rwxabtU+") and set(mode.value) & set("wax+"):
                    return "open"
            elif {getattr(n, "id", None) or getattr(n, "attr", None) for n in ast.walk(mode)} & {"O_WRONLY", "O_RDWR"}:
                return "open"
        return None

    found = []

    def visit(node, function: str) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        what = write(node)
        if what:
            found.append((node.lineno, function, what))
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(tree, "")
    return sorted(found)


def test_only_the_output_writer_and_the_store_write_files():
    writes = [
        (f"{path.stem}.{function}", f"{path.name}:{line}:{what}")
        for path in SOURCES
        for line, function, what in _file_writes(ast.parse(path.read_text(encoding="utf-8")))
    ]
    assert {writer for writer, _ in writes} == FILE_WRITERS
    assert [where for writer, where in writes if writer not in FILE_WRITERS or where.endswith("O_TRUNC")] == []


def test_file_writes_are_seen():
    tree = ast.parse(
        "def a(p):\n"
        "    Path(p).write_text(t)\n"
        "    p.write_bytes(b)\n"
        "    shutil.copyfile(p, q)\n"
        "def b(p):\n"
        "    with open(p, 'w') as fh: pass\n"
        "    open(p, mode='a+b')\n"
        "    open(p, 'rb'), open(p), opener.open(request, timeout=3)\n"
        "    os.open(p, os.O_WRONLY | os.O_CREAT)\n"
        "    os.open(p, flags=os.O_RDONLY)\n"
        "    def c():\n"
        "        return O_TRUNC | os.O_RDWR\n"
        "x = open(p, 'x')\n"
        "def d(p):\n"
        "    Path(p).open('w'), p.open(mode='ab'), gzip.open(p, 'wt'), io.open(p, 'w')\n"
        "    p.open(), p.open('rb'), tarfile.open('data.tar'), open('x'), io.open('w.txt')\n"
    )
    assert _file_writes(tree) == [
        (2, "a", "write"), (3, "a", "write"), (4, "a", "write"),
        (6, "b", "open"), (7, "b", "open"), (9, "b", "open"),
        (12, "c", "O_TRUNC"), (13, "", "open"),
        (15, "d", "open"), (15, "d", "open"), (15, "d", "open"), (15, "d", "open"),
    ]


# bench/tracing.py times a layer by swapping each public module-level function
# for a wrapper; a table built at import that holds the function itself keeps
# calling the original, and the layer's span would read 0 with no error.  A
# lambda looks the function up when it runs, so it sees the wrapper.
def _function_captures(tree, public: set[str], modules: set[str]) -> list[tuple[int, str]]:
    """(line, name) for each public function that a module- or class-level
    assignment names outside a lambda, other than as the callee of a call."""

    def named(node):
        if isinstance(node, ast.Lambda):
            return
        if isinstance(node, ast.Call):  # the callee is called, not kept
            children = [*node.args, *node.keywords]
        else:
            children = list(ast.iter_child_nodes(node))
        if isinstance(node, ast.Name) and node.id in public:
            yield node.lineno, node.id
        elif (isinstance(node, ast.Attribute) and node.attr in public
              and isinstance(node.value, ast.Name) and node.value.id in modules):
            yield node.lineno, node.attr
        for child in children:
            yield from named(child)

    bodies = [tree.body] + [node.body for node in ast.walk(tree) if isinstance(node, ast.ClassDef)]
    return sorted(
        found
        for body in bodies
        for node in body
        if isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)) and node.value is not None
        for found in named(node.value)
    )


def test_no_table_captures_a_public_function():
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in SOURCES}
    public = {
        node.name
        for tree in trees.values()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and not node.name.startswith("_")
    }
    assert {"extract_claims", "score", "generate"} <= public
    found = [
        f"{module}.py:{lineno}:{name}"
        for module, tree in trees.items()
        for lineno, name in _function_captures(tree, public, set(trees))
    ]
    assert found == []


def test_function_captures_are_seen():
    tree = ast.parse(
        "A = score\n"
        "B = {'x': pipeline.score, 'y': lambda t: score(t), 'z': other.score}\n"
        "C = score(t)\n"
        "class K:\n"
        "    d = (1, verify)\n"
        "    e = lambda self: verify(self)\n"
        "    f: dict = field(default_factory=tokens_of)\n"
        "G = partial(score, 1)\n"
        "def h():\n"
        "    i = score\n"
    )
    assert _function_captures(tree, {"score", "verify", "tokens_of"}, {"pipeline"}) == [
        (1, "score"), (2, "score"), (5, "verify"), (7, "tokens_of"), (8, "score"),
    ]


# orjson decodes only the results store: it reads an integer past 64 bits as
# a float, which a bundle's size_bytes or a config's integer may not become
def test_only_the_store_reader_imports_orjson():
    importers = sorted(
        path.name
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if (isinstance(node, ast.Import) and any(a.name.split(".")[0] == "orjson" for a in node.names))
        or (isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "orjson")
    )
    assert importers == ["pipeline.py"]


# how each kind of backend drafts, and on which thread, is gateway.drafting's
# decision alone; the experiment loop only makes the calls it is handed
GATEWAY_ONLY = {"BackendKind", "InputFacts", "ThreadPoolExecutor"}


def test_only_the_gateway_names_backend_kinds_or_drafting_workers():
    found = sorted(
        f"{path.name}:{node.lineno}:{name}"
        for path in SOURCES
        if path.name != "gateway.py"
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        for name in (getattr(node, "id", None), getattr(node, "attr", None), getattr(node, "name", None))
        if name in GATEWAY_ONLY
    )
    assert found == []


# a drafting POST goes out once and its answer, 3xx or not, comes back as
# it is; urlopen and build_opener install a redirect handler by default
REDIRECTING = {"urlopen", "build_opener", "HTTPRedirectHandler", "HTTPErrorProcessor",
               "HTTPDefaultErrorHandler"}


def test_no_module_names_a_redirect_following_or_error_raising_urllib_part():
    found = sorted(
        f"{path.name}:{node.lineno}:{name}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        for name in (getattr(node, "id", None), getattr(node, "attr", None), getattr(node, "name", None))
        if name in REDIRECTING
    )
    assert found == []


# orjson is the one runtime dependency: every command imports the CLI, and
# whatever it loads beside the standard library a user has to install
def test_the_cli_loads_no_third_party_module_but_orjson():
    script = (
        "import json, sys; before = set(sys.modules); import casedraft.cli; "
        "print(json.dumps(sorted(set(sys.modules) - before)))"
    )
    src = str(Path(casedraft.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                         text=True, check=True).stdout
    # sysconfig's build data is a stdlib module whose name is platform-made
    loaded = {name.split(".")[0] for name in json.loads(out) if not name.startswith("_sysconfigdata_")}
    assert "casedraft" in loaded
    assert sorted(loaded - sys.stdlib_module_names - {"orjson", "casedraft"}) == []


def test_pyproject_declares_orjson_alone():
    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    block = re.search(r"^dependencies = (\[.*?\])", text, re.M | re.S)
    assert block is not None
    assert ast.literal_eval(block.group(1)) == ["orjson>=3.8"]
