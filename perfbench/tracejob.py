"""Run one fsind CLI job with spans around calls into fsind's public functions.

    python3 perfbench/tracejob.py SPANS_OUT SPAWN_TIME -- ARGV...
    python3 perfbench/tracejob.py - 0 -- ARGV...

SPAWN_TIME is the parent's ``time.perf_counter()`` just before it started
this process (CLOCK_MONOTONIC is shared between processes on Linux), so the
interpreter's start-up becomes the ``cli.interp`` span.  As each fsind module
finishes executing, the functions listed in TRACED are replaced in the module
by wrappers that record a span; modules that import them later bind the
wrappers, and methods are replaced on their class.  Nothing inside fsind is
edited.  The job's stdout is the CLI's own, so the runner checks it as for an
untraced job.  SPANS_OUT receives ``{"spans": [[name, start, end, parent,
sizes], ...], "counters": {...}}``; parent -1 marks the root span ``job``.
With SPANS_OUT ``-`` the job runs the same way with tracing off, which is
what the runner compares a traced run with to find the tracer's overhead.
"""

import time

T0 = time.perf_counter()

import functools  # noqa: E402
import importlib.abc  # noqa: E402
import importlib.machinery  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402

SPANS: list[list] = []
STACK = [0]
COUNTERS: dict[str, int] = {}


def _spec_sizes(spec) -> dict:
    sizes = {"G": spec.group.order}
    if spec.gp is not None:
        sizes["Gp"] = spec.gp.order
    if spec.h is not None:
        sizes["H"] = spec.h.order
    return sizes


# module -> {attribute path: size tags from (positional args, result)}
TRACED = {
    "fsind.abelian": {
        "FiniteAbelianGroup.elements": lambda a, r: {"G": a[0].order},
        "FiniteAbelianGroup.power_count": lambda a, r: {"G": a[0].order},
    },
    "fsind.qforms": {
        "QuadraticForm.__init__": lambda a, r: {"G": a[0].group.order},
        "QuadraticForm.scaled": lambda a, r: {"G": a[0].group.order},
        "monomial_form": lambda a, r: {"G": a[0].order},
        "gauss_sum": lambda a, r: {"G": a[0].group.order},
    },
    "fsind.fusion": {
        "make_near_group_ring": lambda a, r: {"G": a[0].order, "rank": r.rank},
        "make_hi_ring": lambda a, r: {"G": a[0].order, "rank": r.rank},
    },
    "fsind.center": {
        "center_ng1": lambda a, r: {"G": a[0].order, "rank": r.rank},
        "center_ng1_exceptional7": lambda a, r: {"G": 7, "rank": r.rank},
        "center_ng2": lambda a, r: {"G": a[0].order, "Gp": a[2].order, "rank": r.rank},
        "center_hi": lambda a, r: {"G": a[0].order, "H": a[1].order, "rank": r.rank},
    },
    "fsind.indicators": {
        "CategorySpec.period": lambda a, r: _spec_sizes(a[0]) | {"N": r},
        "nu_from_center": lambda a, r: {"rank": a[0].rank},
        "closed_form_nu": lambda a, r: _spec_sizes(a[0]),
        "rigidity_report": lambda a, r: _spec_sizes(a[0][0]) | {"specs": len(a[0]), "N": r.period},
        "build_agl": lambda a, r: {"q": a[0]},
        "nu_agl_bruteforce": lambda a, r: {"q": a[0]},
    },
    "fsind.tables": {
        "verify_tables": lambda a, r: {"rows": len(r)},
        "emit_report": lambda a, r: {"rows": len(a[0])},
    },
}
# Calls too frequent for a span each are only counted.
COUNTED = {"fsind.indicators": ("AGLGroup.mul",)}


def _open(name: str, sizes=None) -> int:
    SPANS.append([name, time.perf_counter(), None, STACK[-1], sizes])
    STACK.append(len(SPANS) - 1)
    return STACK[-1]


def _close(idx: int) -> None:
    STACK.pop()
    SPANS[idx][2] = time.perf_counter()


def _traced(name: str, fn, sizes):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        idx = _open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            _close(idx)
        SPANS[idx][4] = sizes(args, result)
        return result

    return wrapper


def _counted(name: str, fn):
    COUNTERS[name] = 0

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        COUNTERS[name] += 1
        return fn(*args, **kwargs)

    return wrapper


def _replace(module, path: str, wrap) -> None:
    owner_path, _, attr = path.rpartition(".")
    owner = getattr(module, owner_path) if owner_path else module
    setattr(owner, attr, wrap(getattr(owner, attr)))


def _patch(module) -> None:
    short = module.__name__.removeprefix("fsind.")
    for path, sizes in TRACED.get(module.__name__, {}).items():
        _replace(module, path, lambda fn, n=f"{short}.{path}", s=sizes: _traced(n, fn, s))
    for path in COUNTED.get(module.__name__, ()):
        _replace(module, path, lambda fn, n=f"{short}.{path}": _counted(n, fn))


class _Finder(importlib.abc.MetaPathFinder):
    """Patch each fsind module right after it executes; span the table build."""

    def find_spec(self, name, path, target=None):
        if not name.startswith("fsind."):
            return None
        spec = importlib.machinery.PathFinder.find_spec(name, path)
        execute = spec.loader.exec_module

        def exec_module(module):
            # fsind.tables builds its reference rows eagerly at import.
            idx = _open("tables.rows_build") if name == "fsind.tables" else None
            try:
                execute(module)
            finally:
                if idx is not None:
                    _close(idx)
                    SPANS[idx][4] = {"rows": len(module.builtin_rows())}
            _patch(module)

        spec.loader.exec_module = exec_module
        return spec


def main() -> int:
    spans_out, spawn = sys.argv[1], float(sys.argv[2])
    argv = sys.argv[sys.argv.index("--") + 1:]
    if spans_out == "-":
        import fsind.cli

        return fsind.cli.main(argv)
    SPANS.append(["job", spawn, None, -1, {"command": argv[0]}])
    SPANS.append(["cli.interp", spawn, T0, 0, None])
    sys.meta_path.insert(0, _Finder())
    rc = 1
    try:
        idx = _open("cli.import")
        import fsind.cli

        _close(idx)
        idx = _open("cli.main", {"command": argv[0]})
        try:
            rc = fsind.cli.main(argv)
        finally:
            _close(idx)
    finally:
        SPANS[0][2] = time.perf_counter()
        with open(spans_out, "w", encoding="utf-8") as handle:
            json.dump({"spans": SPANS, "counters": COUNTERS}, handle)
    return rc


if __name__ == "__main__":
    sys.exit(main())
