"""The benchmark tracer wraps fsind functions by dotted path; every path must exist.

``perfbench/tracejob.py`` replaces each attribute listed in its ``TRACED`` and
``COUNTED`` tables as the module loads, so a renamed or deleted function makes
every traced benchmark run die with ``AttributeError``.  The first test
resolves the same paths without running the tracer.  The second does the
same for the names ``perfbench/capture_refs.py`` imports and calls.  The size
lambdas also read positional arguments and result attributes, which only a
traced run exercises, so the last test runs one README command per
subcommand under the tracer.
"""

from __future__ import annotations

import ast
import importlib
import importlib.util
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest
from test_golden_cli import CASES

ROOT = Path(__file__).resolve().parent.parent
TRACEJOB = ROOT / "perfbench" / "tracejob.py"
CAPTURE_REFS = ROOT / "perfbench" / "capture_refs.py"


def _load_tracejob():
    spec = importlib.util.spec_from_file_location("tracejob", TRACEJOB)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_paths_resolve():
    tracejob = _load_tracejob()
    paths = [
        (module_name, path)
        for table in (tracejob.TRACED, tracejob.COUNTED)
        for module_name, entries in table.items()
        for path in entries
    ]
    assert paths
    missing = []
    for module_name, path in paths:
        target = importlib.import_module(module_name)
        for attr in path.split("."):
            target = getattr(target, attr, None)
        if not callable(target):
            missing.append(f"{module_name}.{path}")
    assert missing == []


def test_captured_names_resolve():
    """Every name ``perfbench/capture_refs.py`` imports from fsind, and every
    method it calls on a spec, exists; read from its source, since running it
    rewrites the benchmark's reference data."""
    from fsind.indicators import CategorySpec

    tree = ast.parse(CAPTURE_REFS.read_text(encoding="utf-8"))
    imported, missing = {}, []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "fsind":
            for alias in node.names:
                try:
                    target = importlib.import_module(f"{node.module}.{alias.name}")
                except ModuleNotFoundError:
                    target = getattr(importlib.import_module(node.module), alias.name, None)
                imported[alias.asname or alias.name] = target
                if target is None:
                    missing.append(f"{node.module}.{alias.name}")
    assert {"cli", "spec_from_json", "spec_to_json", "nu_from_center"} <= imported.keys()
    spec_methods = set()
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)):
            continue
        owner, attr = node.func.value, node.func.attr
        if isinstance(owner, ast.Name) and owner.id in imported:
            if not callable(getattr(imported[owner.id], attr, None)):
                missing.append(f"{owner.id}.{attr}")
        elif (isinstance(owner, ast.Name) and owner.id == "spec"
              or isinstance(owner, ast.Attribute) and owner.attr == "spec"
              or isinstance(owner, ast.Call) and getattr(owner.func, "id", "") == "spec_from_json"):
            spec_methods.add(attr)
    assert "rho_label" in spec_methods
    missing += [f"CategorySpec.{attr}" for attr in sorted(spec_methods)
                if not callable(getattr(CategorySpec, attr, None))]
    assert missing == []


def _run(argv: list[str]) -> subprocess.CompletedProcess:
    path = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in path if p)}
    return subprocess.run(
        [sys.executable, *argv], env=env, cwd=ROOT, capture_output=True, text=True, timeout=300
    )


@pytest.mark.parametrize(
    "name",
    ["readme_gauss", "readme_indicators_ng2", "readme_verify_markdown",
     "readme_rigidity_ng1", "readme_agl_27"],
)
def test_traced_run_matches_untraced_run(name, tmp_path):
    argv = CASES[name]
    untraced = _run(["-m", "fsind", *argv])
    spans_out = tmp_path / "spans.json"
    traced = _run([str(TRACEJOB), str(spans_out), repr(time.perf_counter()), "--", *argv])
    assert traced.returncode == untraced.returncode, traced.stderr
    assert traced.stdout == untraced.stdout
    spans = json.loads(spans_out.read_text(encoding="utf-8"))["spans"]
    assert spans[0][0] == "job"
    assert [span for span in spans if span[2] is None] == []  # every span closed
