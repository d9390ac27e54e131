"""rackle runs on the standard library alone, in one process, and keeps
every name the benchmark calls."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def test_import_loads_no_numpy_or_process_pool():
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    code = (
        "import sys, rackle\n"
        "print(sorted({'numpy', 'concurrent.futures'} & set(sys.modules)))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


@pytest.mark.skipif(sys.version_info < (3, 11), reason="tomllib is Python 3.11+")
def test_no_runtime_dependency():
    import tomllib

    with open(ROOT / "pyproject.toml", "rb") as fh:
        project = tomllib.load(fh)["project"]
    assert project["dependencies"] == []


def test_benchmark_names_resolve():
    # perfbench/workloads.py calls rackle as the module R; a deleted export
    # would break the benchmark only when it runs
    import rackle

    tree = ast.parse((ROOT / "perfbench" / "workloads.py").read_text(encoding="utf-8"))
    used = {
        node.attr
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "R"
    }
    # the pass-through shim stays exactly as long as the benchmark calls it
    assert "ReconstructionContext" in used
    assert sorted(name for name in used if not hasattr(rackle, name)) == []


def test_benchmark_ops_run(tmp_path, monkeypatch):
    # every derive op at one seed, and the invariants op on S4 and the stall
    # lattice, whose .lat files the workload's own set-up steps write
    import importlib.util

    import rackle

    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", ROOT / "perfbench" / "workloads.py"
    )
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)
    spec.loader.exec_module(workloads)

    ops, _ = workloads.setup_derive(rackle, 1, tmp_path, False)
    assert {op.name: op.run() for op in ops} == {op.name: None for op in ops}

    s4, stall = tmp_path / "S4.lat", tmp_path / "stall.lat"
    workloads._build_lattice(rackle, "S4", s4)
    workloads._save_stall(rackle, stall)
    s4_expected = workloads._invariant_oracle(rackle, rackle.named_group("S4"))
    assert workloads._invariants_op(rackle, str(s4), 5, s4_expected) is None
    stall_expected = (
        workloads.STALL_CLASS_SIZES,
        workloads.STALL_BOOLEAN_ATOMS,
        workloads.STALL_NORMAL_ABELIAN_ATOMS,
        rackle.NOT_SOLVABLE,
        (-1) ** len(workloads.STALL_CLASS_SIZES),
    )
    assert workloads._invariants_op(rackle, str(stall), 0, stall_expected) is None


def test_lat_fixtures_are_canonical():
    # every shipped .lat is in the one form the writer produces
    from rackle.lattice import format_lattice, parse_lattice

    fixtures = sorted((ROOT / "src" / "rackle" / "fixtures").glob("*.lat"))
    assert fixtures
    for path in fixtures:
        text = path.read_text(encoding="utf-8")
        assert format_lattice(parse_lattice(text)) == text, path.name


def test_reconstruction_context_is_the_lattice():
    import rackle

    lat = rackle.stall_lattice()
    assert rackle.ReconstructionContext(lat) is lat


def test_traced_layers_resolve():
    # perfbench/layers.py times rackle.<layer>.<name>; a renamed or deleted
    # function would silently drop out of its layer's timing
    import importlib

    tree = ast.parse((ROOT / "perfbench" / "layers.py").read_text(encoding="utf-8"))
    layers = next(
        ast.literal_eval(node.value)
        for node in ast.walk(tree)
        if isinstance(node, ast.AnnAssign) and getattr(node.target, "id", None) == "LAYERS"
    )
    missing = {
        f"{layer}.{name}"
        for layer, names in layers.items()
        for name in names
        if not callable(getattr(importlib.import_module(f"rackle.{layer}"), name, None))
    }
    # deleted from rackle, still listed by the benchmark (ROADMAP item 4)
    assert missing == {"lattice.is_boolean_interval"}


def test_closedsets_imports_nothing_from_rackle():
    # every module imports the walker and the bitmask helpers, so importing
    # any rackle module from there would close a cycle
    tree = ast.parse((ROOT / "src" / "rackle" / "closedsets.py").read_text(encoding="utf-8"))
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            assert node.level == 0 and node.module.split(".")[0] != "rackle", node.module
        elif isinstance(node, ast.Import):
            assert all(a.name.split(".")[0] != "rackle" for a in node.names)


def unused_imports(path: Path) -> dict[str, int]:
    """Names a module imports and never reads, with the line of the import."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return {name: line for name, line in imported.items() if name not in read}


def test_no_unused_imports():
    # __init__.py files import to re-export
    found = {}
    for folder in ("src/rackle", "demos", "tests"):
        for path in sorted((ROOT / folder).glob("*.py")):
            if path.name == "__init__.py":
                continue
            unused = unused_imports(path)
            if unused:
                found[str(path.relative_to(ROOT))] = unused
    assert found == {}


def name_uses(path: Path) -> set[tuple[str, str | None]]:
    """(identifier, module-level definition it sits in, or None) for every
    name a file reads: plain names, attributes, and the parts of string
    constants that spell a dotted name, since the benchmark's tracer looks
    functions up by string."""
    uses = set()
    for top in ast.parse(path.read_text(encoding="utf-8")).body:
        owner = getattr(top, "name", None)
        for node in ast.walk(top):
            if isinstance(node, ast.Name):
                uses.add((node.id, owner))
            elif isinstance(node, ast.Attribute):
                uses.add((node.attr, owner))
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                uses.update((part, owner) for part in node.value.split(".") if part.isidentifier())
    return uses


def test_no_unreferenced_definitions():
    # a definition's own body and __init__.py's re-exports do not count
    files = [p for folder in ("src/rackle", "tests", "demos", "perfbench")
             for p in sorted((ROOT / folder).glob("*.py")) if p.name != "__init__.py"]
    where: dict[str, set] = {}
    for path in files:
        for name, owner in name_uses(path):
            where.setdefault(name, set()).add((path, owner))
    orphans = []
    for module in sorted((ROOT / "src" / "rackle").glob("*.py")):
        for node in ast.parse(module.read_text(encoding="utf-8")).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not (
                where.get(node.name, set()) - {(module, node.name)}
            ):
                orphans.append(f"{module.name}:{node.lineno} {node.name}")
    assert orphans == []
