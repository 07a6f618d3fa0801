"""Route independence, pinned by the names each route's code reads.

fsind computes nu_k(rho) three ways: the Drinfeld-center sum, the closed
Gauss-sum formulas and the AGL_1(F_q) brute force.  Their agreement means
something only if they share no code.  These tests read ``co_names`` of each
route function's code object and of every code object nested in it (lambdas,
comprehensions, generators), and follow each name that resolves, in the
reading function's module, to a function or class defined in fsind.  They
check that the closed and center routes share only the ``root_sums`` kernel,
that the center route counts no power of G as the closed route's theta_k(e) does,
that the AGL code reads nothing of fsind but ``abelian``, and that no module
of the program imports the tests' reference code in ``oracles``.

A last test traces the golden cases under ``sys.setprofile`` and checks that
every program function either runs or is named by the benchmark's scripts.
"""

import ast
import sys
import types
from pathlib import Path

import fsind
from fsind import abelian, center, cli, fusion, indicators, qforms, tables

MODULES = (abelian, qforms, center, fusion, indicators, tables, cli)

CLOSED_ROUTE = (
    indicators.ng1_closed_values,
    indicators.ng2_closed_values,
    indicators.hi_closed_values,
)
CENTER_ROUTE = tuple(
    obj for obj in vars(center).values() if getattr(obj, "__module__", None) == center.__name__
) + (indicators.center_values, indicators.nu_from_center)
AGL_CODE = (
    indicators.AGLGroup,
    indicators.build_agl,
    indicators.agl_rho_character,
    indicators.nu_agl_bruteforce,
)

# names that hand a caller the closed formulas, or the family table that holds them
CLOSED_NAMES = {fn.__name__ for fn in CLOSED_ROUTE} | {"closed", "closed_values", "closed_form_nu"}
TABLE_NAMES = {"FAMILIES", "ROUTES"}


def _code_objects(code):
    yield code
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            yield from _code_objects(const)


def _functions(obj):
    """The functions whose code ``obj`` runs: itself, or a class's own methods."""
    if isinstance(obj, types.FunctionType):
        yield obj
    elif isinstance(obj, type):
        for attr in vars(obj).values():
            attr = attr.fget if isinstance(attr, property) else attr
            attr = attr.__func__ if isinstance(attr, (staticmethod, classmethod)) else attr
            if isinstance(attr, types.FunctionType):
                yield attr


def _is_fsind_code(obj) -> bool:
    return isinstance(obj, (types.FunctionType, type)) and obj.__module__.startswith("fsind.")


def reach(roots):
    """(names, objects): every name the code of ``roots`` reads, and every fsind
    function and class that code reaches, the roots included."""
    names, seen, todo = set(), set(), list(roots)
    while todo:
        obj = todo.pop()
        if obj in seen:
            continue
        seen.add(obj)
        for fn in _functions(obj):
            for code in _code_objects(fn.__code__):
                for name in code.co_names:
                    names.add(name)
                    target = fn.__globals__.get(name)
                    if _is_fsind_code(target):
                        todo.append(target)
    return names, seen


def _defined(module) -> set[str]:
    """The module-level names ``module``'s own source binds: its functions,
    classes and assigned constants, and no imported name."""
    tree = ast.parse(Path(module.__file__).read_text(encoding="utf-8"))
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names |= {target.id for target in targets if isinstance(target, ast.Name)}
    return names


def _fsind_names() -> set[str]:
    return set().union(*(_defined(module) for module in MODULES))


def test_the_walk_sees_each_route_body():
    closed_names, closed = reach(CLOSED_ROUTE)
    center_names, centers = reach(CENTER_ROUTE)
    agl_names, agl = reach(AGL_CODE)
    assert {qforms.gauss_values, qforms.root_sums, qforms.qz} <= closed
    assert {"power_count", "gauss_values"} <= closed_names
    assert {center._pairing_counts, center._presentation, qforms.root_sums} <= centers
    assert {"elements", "pairs", "histogram"} <= center_names
    assert {abelian.factor_prime_power, abelian.prime_factors} <= agl
    assert {"mul", "factor_prime_power"} <= agl_names


def test_closed_route_reaches_no_center_name():
    names, objects = reach(CLOSED_ROUTE)
    bad = names & (_defined(center) | {"center"} | TABLE_NAMES)
    bad |= {obj.__qualname__ for obj in objects if obj.__module__ == center.__name__}
    assert not bad, sorted(bad)


def test_center_route_reaches_no_closed_formula_and_no_gauss_sum():
    names, objects = reach(CENTER_ROUTE)
    bad = names & (CLOSED_NAMES | TABLE_NAMES | {"power_count"})
    names |= {obj.__name__ for obj in objects}
    bad |= {name for name in names if name.startswith("gauss_sum")}
    assert not bad, sorted(bad)


def test_closed_and_center_routes_share_only_root_sums():
    shared = reach(CLOSED_ROUTE)[1] & reach(CENTER_ROUTE)[1]
    assert shared == {qforms.root_sums}, sorted(obj.__qualname__ for obj in shared)


def test_agl_code_reaches_no_fsind_name_outside_abelian():
    names, objects = reach(AGL_CODE)
    own = {obj.__name__ for obj in AGL_CODE}
    bad = names & (_fsind_names() - _defined(abelian) - own)
    bad |= {obj.__qualname__ for obj in objects if obj.__module__ != abelian.__name__} - own
    assert not bad, sorted(bad)


def test_no_program_module_imports_the_oracles():
    for path in sorted(Path(fsind.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module or ""] + [alias.name for alias in node.names]
            else:
                continue
            assert not any("oracles" in m.split(".") for m in modules), (path.name, node.lineno)


# Every src/fsind function that no golden case enters, with what keeps it in
# the program: the benchmark's scripts name it, or it is the process entry.
KEPT_UNRUN = {
    "abelian.format_element": "perfbench/capture_refs.py calls CategorySpec.rho_label",
    "abelian.group_label": "perfbench/tracejob.py wraps the ring constructors that call it",
    "abelian.grho_label": "perfbench/capture_refs.py calls CategorySpec.rho_label",
    "abelian.group_to_json": "perfbench/capture_refs.py calls spec_to_json",
    "qforms.form_to_json": "perfbench/capture_refs.py calls spec_to_json",
    "fusion.FusionRing.rank": "perfbench/tracejob.py reads it",
    "fusion.make_near_group_ring": "perfbench/tracejob.py wraps it",
    "fusion.make_hi_ring": "perfbench/tracejob.py wraps it",
    "fusion._freeze": "perfbench/tracejob.py wraps the ring constructors that call it",
    "indicators.CategorySpec.rho_label": "perfbench/capture_refs.py calls it",
    "indicators.nu_from_center": "perfbench/tracejob.py wraps it; capture_refs.py calls it",
    "indicators.spec_to_json": "perfbench/capture_refs.py imports it",
    "cli.run": "the process entry, which test_process_entry_output runs",
}


def _function_defs(module) -> dict:
    """(file, first line) -> dotted name of each function ``module``'s source
    defines, nested ones included.  A code object starts at its first
    decorator, and ``co_qualname`` is newer than the oldest Python fsind runs on."""
    path = Path(module.__file__)
    defs = {}

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                defs[(str(path), first)] = prefix + child.name
                visit(child, prefix + child.name + ".<locals>.")
            elif isinstance(child, ast.ClassDef):
                visit(child, prefix + child.name + ".")
            else:
                visit(child, prefix)

    visit(ast.parse(path.read_text(encoding="utf-8")), module.__name__.removeprefix("fsind.") + ".")
    return defs


def test_every_program_function_runs_or_is_kept_by_name():
    """Aim 2, no code without a caller: every function in ``src/fsind`` is
    entered by some golden case or by a spec missing a parameter, or is listed
    in KEPT_UNRUN with what keeps it."""
    from test_golden_cli import CASES, run_case

    sources = {path.name for path in Path(fsind.__file__).parent.glob("*.py")}
    assert sources - {Path(m.__file__).name for m in MODULES} == {"__init__.py", "__main__.py"}
    defs = {}
    for module in MODULES:
        defs.update(_function_defs(module))
    tables.builtin_rows.cache_clear()  # an earlier test's rows would hide the loaders
    entered = set()

    def profile(frame, event, arg):
        if event == "call":
            entered.add((frame.f_code.co_filename, frame.f_code.co_firstlineno))

    missing_parameter = '{"family":"NG2","group":{"cyclic_factors":[3]}}'
    sys.setprofile(profile)
    try:
        for argv in CASES.values():
            run_case(argv)
        assert run_case(["indicators", "--spec", missing_parameter]) == (2, "")
    finally:
        sys.setprofile(None)
    unrun = {name for key, name in defs.items() if key not in entered}
    assert unrun == set(KEPT_UNRUN)
