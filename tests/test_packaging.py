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


def test_reconstruction_context_is_the_lattice():
    import rackle

    lat = rackle.stall_lattice()
    assert rackle.ReconstructionContext(lat) is lat
