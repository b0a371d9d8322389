"""Every name a racepred module imports is used in that module (the
package's __init__ imports only to re-export), and each module imports
only the racepred modules its layer allows."""

import ast
from pathlib import Path

import pytest

import racepred

MODULES = sorted(p for p in Path(racepred.__file__).parent.glob("*.py") if p.name != "__init__.py")

# the racepred modules each module may import: the trace model and vector
# times stand alone, and pass 1's race check needs neither engine
LAYERS = {
    "vclock": set(),
    "trace_model": set(),
    "race_reporter": {"trace_model", "vclock"},
    "wcp_engine": {"trace_model", "vclock"},
    "hb_engine": {"trace_model", "wcp_engine"},
    "oracle": {"trace_model"},
    "tracegen": {"trace_model"},
    "cli": {"hb_engine", "oracle", "race_reporter", "trace_model", "tracegen", "vclock",
            "wcp_engine"},
}


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                imported[a.asname or a.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for a in node.names:
                imported[a.asname or a.name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [f"line {line}: {name}" for name, line in imported.items() if name not in used]


def racepred_imports(source: str) -> set[str]:
    """The racepred modules that source imports, relatively or by name."""
    out = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            out.update(a.name.split(".")[1] for a in node.names if a.name.startswith("racepred."))
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if not node.level:
                if module.partition(".")[0] != "racepred":
                    continue
                module = module.partition(".")[2]
            if module:
                out.add(module.partition(".")[0])
            else:                                       # from . import x
                out.update(a.name for a in node.names)
    return out


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_import_is_used(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_an_unused_import_is_caught():
    assert unused_imports("from .vclock import join_into, leq\nleq((), ())\n") == \
        ["line 1: join_into"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_each_module_imports_only_its_layers(path):
    assert racepred_imports(path.read_text(encoding="utf-8")) <= LAYERS[path.stem]


def test_every_module_has_its_layers_listed():
    assert {p.stem for p in MODULES} == set(LAYERS)


def test_a_forbidden_import_is_caught():
    source = ("from .trace_model import READ\nfrom .wcp_engine import EngineError\n"
              "from . import oracle as o\nimport racepred.hb_engine\nfrom racepred.cli import main\n")
    assert racepred_imports(source) == {"trace_model", "wcp_engine", "oracle", "hb_engine", "cli"}
    assert not racepred_imports(source) <= LAYERS["race_reporter"]
