"""The benchmark tracer wraps fsind functions by dotted path; every path must exist.

``perfbench/tracejob.py`` replaces each attribute listed in its ``TRACED`` and
``COUNTED`` tables as the module loads, so a renamed or deleted function makes
every traced benchmark run die with ``AttributeError``.  This test resolves
the same paths without running the tracer.
"""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

TRACEJOB = Path(__file__).resolve().parent.parent / "perfbench" / "tracejob.py"


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
