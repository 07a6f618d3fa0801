import itertools
import json
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import CountedWeight, parser_choices
from fsind import indicators
from fsind.abelian import FiniteAbelianGroup, cyclic, group_label
from fsind.center import center_ng1_exceptional7, center_ng2
from fsind.fusion import make_hi_ring, make_near_group_ring
from fsind.indicators import (
    FAMILIES,
    CategorySpec,
    agl_rho_character,
    build_agl,
    center_values,
    closed_form_nu,
    closed_values,
    factor_prime_power,
    ng1_closed_values,
    nu_agl_bruteforce,
    nu_from_center,
    rigidity_report,
    spec_from_json,
    spec_to_json,
)
from fsind.qforms import QuadraticForm, jacobi_symbol, monomial_form
from fsind.tables import JacobiLawClaim, builtin_rows, load_hi_spec, load_ng2_spec
from oracles import conjugate_spec, indicator_vector, ng1_equivalence_classes, replace

TOL = 1e-9


def _row_spec(table_id, row_id):
    return next(
        r.spec for r in builtin_rows() if (r.table_id, r.row_id) == (table_id, row_id)
    )


def test_nu_ng1_closed_examples():
    assert abs(ng1_closed_values(cyclic(2), 3, Fraction(0))(2) - 1) < TOL
    assert abs(ng1_closed_values(cyclic(3), 2, Fraction(0))(3) - 2) < TOL
    for n, p in ((1, 2), (2, 3), (3, 2), (4, 5), (6, 7), (7, 2), (8, 3)):
        assert abs(ng1_closed_values(cyclic(n), p, Fraction(0))(1)) < TOL


NG1X = CategorySpec("NG1X", cyclic(7))


def test_nu_ng1x_closed_examples():
    assert abs(closed_form_nu(NG1X, 2) - (-1)) < TOL
    assert abs(closed_form_nu(NG1X, 7) - 6) < TOL
    assert abs(closed_form_nu(NG1X, 1)) < TOL


def test_ng1x_center_matches_closed_form():
    pres = center_ng1_exceptional7()
    for k in range(1, 29):
        assert abs(nu_from_center(pres, "rho", k) - closed_form_nu(NG1X, k)) < TOL



def test_ng1x_closed_form_is_exact():
    # every value is an integer: conj(i)^k = (-1)^(k/2) carries no rounding
    for k in range(1, 29):
        value = closed_form_nu(NG1X, k)
        assert value.imag == 0 and value.real == round(value.real)


@pytest.mark.parametrize("factors", [(1, 7), (7, 1)])
def test_ng1x_accepts_any_presentation_of_z7(factors):
    spec = CategorySpec("NG1X", FiniteAbelianGroup(factors))
    for path in ("center", "closed"):
        assert indicator_vector(spec, path) == indicator_vector(NG1X, path)
    with pytest.raises(ValueError, match="NG1X lives over Z7"):
        CategorySpec("NG1X", FiniteAbelianGroup((7, 7)))


def test_ng2_closed_table_values():
    spec5 = _row_spec("ng5", 1)
    assert abs(closed_form_nu(spec5, 5) - (5 + math.sqrt(5)) / 2) < TOL
    spec9 = _row_spec("ng9", 1)
    assert abs(closed_form_nu(spec9, 9) - 3) < TOL
    for table_id, row_id in (("ng3", 1), ("ng5", 3), ("ng13", 2)):
        spec = _row_spec(table_id, row_id)
        assert abs(closed_form_nu(spec, 1)) < TOL


def test_nu_from_center_direct_convention_example():
    # with q = g^2/3 feeding the doubled-twist convention, the calibrated
    # partner is -g^2/7 and nu_3 lands on (3 + i sqrt 3)/2
    q = monomial_form(cyclic(3), (1,))
    qp = monomial_form(cyclic(7), (-1,))
    pres = center_ng2(cyclic(3), q, cyclic(7), qp)
    assert abs(nu_from_center(pres, "rho", 1)) < TOL
    assert abs(nu_from_center(pres, "rho", 3) - (3 + 1j * math.sqrt(3)) / 2) < TOL


def test_ng2_jacobi_law():
    """The generic-k law (1 - (k / |G||G'|))/2 of the m = |G| tables."""
    law21 = JacobiLawClaim("(1-(k/21))/2", -1, 21, ())
    assert abs(law21.expected(2) - 1) < TOL
    assert abs(law21.expected(22)) < TOL  # 22 = 1 mod 21
    law45 = JacobiLawClaim("(1-(k/45))/2", -1, 45, ())
    expected = (1 - jacobi_symbol(2, 45)) / 2
    assert abs(law45.expected(2) - expected) < TOL
    spec = _row_spec("ng5", 1)
    assert abs(law45.expected(2) - closed_form_nu(spec, 2)) < TOL


def test_hi_closed_examples():
    spec = _row_spec("hi3", 1)
    for k in (2, 5, 7, 11):
        expected = (1 - jacobi_symbol(k, 13)) / 2
        assert abs(closed_form_nu(spec, k) - expected) < TOL
    spec5 = _row_spec("hi5", 3)
    assert abs(closed_form_nu(spec5, 5) - 3) < TOL
    assert abs(closed_form_nu(spec, 1)) < TOL


def _element_order(agl, x) -> int:
    """The least n >= 1 with x^n = e, by repeated multiplication (at most |AGL|)."""
    power = x
    for n in range(1, agl.order + 1):
        if power == (0, 1):
            return n
        power = agl.mul(power, x)
    raise AssertionError(f"{x} has no order dividing {agl.order}")


def _power(agl, x, k: int):
    """x^k by square-and-multiply: the reference for the one-period walk."""
    result, base = (0, 1), x
    while k:
        if k & 1:
            result = agl.mul(result, base)
        base, k = agl.mul(base, base), k >> 1
    return result


def _prime_powers(limit: int) -> list[int]:
    qs = []
    for q in range(2, limit + 1):
        try:
            factor_prime_power(q)
        except ValueError:
            continue
        qs.append(q)
    return qs


AGL_QS = _prime_powers(64)


def test_build_agl_small_groups():
    s3 = build_agl(3)
    assert s3.order == 6
    x, y = s3.elements[1], s3.elements[2]
    assert s3.mul(x, y) != s3.mul(y, x)  # nonabelian, so it is S_3
    a4 = build_agl(4)
    assert a4.order == 12
    orders = [_element_order(a4, x) for x in a4.elements]
    assert max(orders) == 3  # A_4 has no 6-cycle
    assert build_agl(2).order == 2
    with pytest.raises(ValueError):
        build_agl(6)
    with pytest.raises(ValueError):
        build_agl(128)


def test_agl_bruteforce_examples():
    assert nu_agl_bruteforce(3)(2) == 1
    assert nu_agl_bruteforce(4)(3) == 2
    for q in (3, 4, 5, 8, 9):
        assert nu_agl_bruteforce(q)(1) == 0


def _assert_agl_closed_route(q: int, ks) -> None:
    """The brute force equals NG1's closed route on the AGL class
    NG(F_q^*, q - 2) with zeta1 = 0, exactly: equal real part, imaginary part 0."""
    spec = CategorySpec("NG1", cyclic(q - 1), p=factor_prime_power(q)[0], zeta1=Fraction(0))
    closed, brute = closed_values(spec), nu_agl_bruteforce(q)
    for k in ks:
        assert closed(k).imag == 0 and closed(k).real == brute(k), k


def test_agl_matches_ng1_closed_form():
    for q in (3, 4, 5, 8, 9):
        _assert_agl_closed_route(q, range(1, 16))


@pytest.mark.parametrize("q", AGL_QS)
def test_agl_tables_are_a_field(q):
    agl = build_agl(q)
    add, times = agl.add, agl.times
    field, units = list(range(q)), list(range(1, q))
    for a in field:
        assert add[0][a] == a and times[1][a] == a and times[0][a] == 0
        assert sorted(add[a]) == field
        if a:
            assert sorted(times[a][1:]) == units
        for b in field:
            assert add[a][b] == add[b][a] and times[a][b] == times[b][a]
    for a, b, c in itertools.product(field, repeat=3):
        assert times[a][add[b][c]] == add[times[a][b]][times[a][c]]
        assert add[add[a][b]][c] == add[a][add[b][c]]
        assert times[times[a][b]][c] == times[a][times[b][c]]

    def powers(g: int) -> set[int]:
        power, seen = g, set()
        for _ in units:
            seen.add(power)
            power = times[power][g]
        return seen

    assert any(powers(g) == set(units) for g in units)  # F_q^* is cyclic


@pytest.mark.parametrize("q", AGL_QS)
def test_agl_bruteforce_matches_closed_form_over_two_periods(q):
    p, _ = factor_prime_power(q)
    period = math.lcm(p, q - 1)  # the exponent of AGL_1(F_q)
    _assert_agl_closed_route(q, range(2 * period + 1))


def test_agl_period_walk_matches_square_and_multiply():
    for q in _prime_powers(27):
        agl = build_agl(q)
        brute = nu_agl_bruteforce(q)
        period = math.lcm(factor_prime_power(q)[0], q - 1)  # the exponent of AGL_1(F_q)
        for k in range(61):
            total = sum(agl_rho_character(agl, _power(agl, x, k)) for x in agl.elements)
            assert brute(k) == Fraction(total, agl.order), (q, k)
            assert brute(-k) == brute(k), (q, k)  # rho is real, so nu_{-k} = nu_k
            assert brute(k + period) == brute(k), (q, k)


def test_indicator_vector_periodicity_is_exact():
    for spec in (_row_spec("ng3", 1), _row_spec("hi3", 1)):
        pres, target = spec.center(), spec.rho_label()
        period = spec.period()
        ks = range(1, 2 * period + 1)
        for values in ([*map(center_values(pres), ks)], [*map(closed_values(spec), ks)]):
            assert values[:period] == values[period:]  # identical floats
            # real weights: nu_{N-k} is exactly the conjugate of nu_k
            assert all(values[period - 1 - k] == values[k - 1].conjugate() for k in ks[:period])
        vec = indicator_vector(spec)
        assert vec.values == tuple(map(center_values(pres), ks[:period]))
        for k in range(1, period + 1):
            again = nu_from_center(pres, target, k + period)
            assert again == nu_from_center(pres, target, k)  # phases are exact


def _seeded_ng2_specs(group, gp, count, seed):
    """NG2 specs whose coefficients are units modulo each cyclic factor."""
    return _unit_ng2_specs(random.Random(seed), [(group, gp)] * count)


def _unit_ng2_specs(rng, groups):
    """One NG2 spec per (G, G') in ``groups``: ``rng`` draws a unit coefficient
    for each cyclic factor of G, then of G', as the benchmark's ladder does."""

    def form(g):
        units = [[c for c in range(1, n) if math.gcd(c, n) == 1] for n in g.cyclic_factors]
        return monomial_form(g, [rng.choice(u) for u in units])

    return [CategorySpec("NG2", g, q=form(g), gp=gp, qp=form(gp)) for g, gp in groups]


def test_center_vector_matches_scalar_reference():
    specs = [row.spec for row in builtin_rows()]
    specs += _seeded_ng2_specs(cyclic(21), cyclic(25), 2, seed=21)
    specs += _seeded_ng2_specs(FiniteAbelianGroup((3, 7)), FiniteAbelianGroup((5, 5)), 2, seed=37)
    for spec in specs:
        pres, target = spec.center(), spec.rho_label()
        ks = range(1, spec.period() + 1)
        for k, value in zip(ks, map(center_values(pres), ks)):
            assert abs(value - nu_from_center(pres, target, k)) < 1e-12, (spec.describe(), k)


def test_conjugate_spec_gives_conjugate_indicators():
    specs = [r.spec for r in builtin_rows()]
    specs += ng1_equivalence_classes(3)
    for spec in specs:
        vec = indicator_vector(spec)
        conj_vec = indicator_vector(conjugate_spec(spec))
        assert vec.period == conj_vec.period
        for k in range(1, vec.period + 1):
            assert abs(conj_vec.value(k) - vec.value(k).conjugate()) < TOL


def test_rigidity_examples():
    specs = ng1_equivalence_classes(3)
    report = rigidity_report(specs)
    assert report.classes == ((0,), (1,))
    assert report.separators == ((0, 1, 2),)
    nu2 = [indicator_vector(s).value(2) for s in specs]
    assert abs(nu2[0] - 1) < TOL and abs(nu2[1] + 1) < TOL

    single = rigidity_report(specs[:1])
    assert single.classes == ((0,),)

    empty = rigidity_report([])
    assert (empty.period, empty.classes, empty.separators) == (1, (), ())

    with pytest.raises(ValueError, match="ring"):
        rigidity_report([specs[0], ng1_equivalence_classes(2)[0]])



def _count_draws(monkeypatch) -> list[list[complex]]:
    """Wrap ``indicators.root_sums``; the list gets one list per map it makes,
    in the order they are made, with one root per residue that map sums: the
    products taken by one of its weights."""
    drawn = []
    root_sums = indicators.root_sums

    def counted(weights, n):
        drawn.append([])
        r = min(r for r, w in weights.items() if w)
        return root_sums({**weights, r: CountedWeight(weights[r], drawn[-1])}, n)

    monkeypatch.setattr(indicators, "root_sums", counted)
    return drawn


def test_rigidity_coprime_periods_stops_at_first_separator(monkeypatch):
    # periods 59,838 and 59,802 have an lcm near 6e8; the report must not
    # tabulate either vector past its own period, and evaluates each class
    # only up to the separator k = 2
    specs = [CategorySpec("NG1", cyclic(3), p=2, zeta1=Fraction(1, d)) for d in (9973, 9967)]
    drawn = _count_draws(monkeypatch)
    report = rigidity_report(specs)
    assert list(map(len, drawn)) == [2, 2]
    assert report.period == math.lcm(*(indicator_vector(s).period for s in specs))
    assert report.period > 10**8
    assert report.classes == ((0,), (1,))
    assert report.separators == ((0, 1, 2),)

def test_rigidity_hi_pairs():
    rows = [r.spec for r in builtin_rows() if r.table_id == "hi3"]
    report = rigidity_report(rows)
    assert report.classes == ((0, 1), (2, 3))
    # the printed columns first differ at k = 3; the nu_1 anomaly of the
    # sign '-' rows already separates them at k = 1
    assert all(k == 1 for _, _, k in report.separators)
    vec_plus = indicator_vector(rows[0])
    vec_minus = indicator_vector(rows[2])
    assert abs(vec_plus.value(3) - 1) < TOL
    assert abs(vec_minus.value(3) - 2) < TOL


def test_rigidity_builds_each_class_histogram_once(monkeypatch):
    calls = []
    histogram = indicators.center_hi  # counts rho's histogram
    monkeypatch.setattr(
        indicators, "center_hi", lambda *args: calls.append(1) or histogram(*args)
    )
    rows = [r.spec for r in builtin_rows() if r.table_id == "hi3"]
    assert rigidity_report(rows).classes == ((0, 1), (2, 3))
    assert len(calls) == 4  # one per spec; the two class vectors reuse theirs


def test_one_route_map_serves_vectors_and_cli():
    spec = _row_spec("ng3", 1)
    assert parser_choices("indicators", "--path") == (*indicators.ROUTES, "both")
    assert set(indicators.ROUTES) == {"center", "closed"}
    for path, route in indicators.ROUTES.items():
        vec = indicator_vector(spec, path)
        assert vec.values == tuple(map(route(spec), range(1, spec.period() + 1)))
    with pytest.raises(ValueError, match="unknown path"):
        indicator_vector(spec, "both")


@pytest.mark.parametrize("path", sorted(indicators.ROUTES))
def test_each_route_is_one_map_over_every_integer(path):
    """A route's map takes every integer k, negative ones too: a fresh map asked
    in shuffled order gives the same floats, the values repeat exactly with
    period N, and nu_{-k} is the conjugate of nu_k."""
    specs = [_row_spec("ng3", 1), _row_spec("hi3", 1), _row_spec("ng9", 3), NG1X]
    specs += [CategorySpec("NG1", cyclic(3), p=2, zeta1=Fraction(1, 3)),
              CategorySpec("NG1", cyclic(8), p=3, zeta1=Fraction(0))]
    route, rng = indicators.ROUTES[path], random.Random(0)
    for spec in specs:
        n = spec.period()
        ks = range(-2 * n, 2 * n + 1)
        values = dict(zip(ks, map(route(spec), ks)))
        shuffled = rng.sample(ks, len(ks))
        assert dict(zip(shuffled, map(route(spec), shuffled))) == values, spec.describe()
        for k in ks:
            assert k + n not in values or values[k + n] == values[k], (spec.describe(), k)
            assert abs(values[-k] - values[k].conjugate()) < 1e-12, (spec.describe(), k)


def test_ring_name_agrees_with_ring_equality():
    """rigidity compares (ring name, G); that is equality of the built rings."""
    built = {
        "NG1": lambda g: make_near_group_ring(g, g.order - 1),
        "NG1X": lambda g: make_near_group_ring(g, g.order - 1),
        "NG2": lambda g: make_near_group_ring(g, g.order),
        "HI": make_hi_ring,
    }
    specs = [row.spec for row in builtin_rows()]
    specs += [spec for n in (1, 2, 3, 7) for spec in ng1_equivalence_classes(n)]
    specs += [
        load_ng2_spec(cyclic(1), (0,), cyclic(5), (2,))[0],
        load_ng2_spec(cyclic(3), (1,), cyclic(7), (1,))[0],
        load_hi_spec(cyclic(1), cyclic(5), (1,))[0],
    ]
    keys = [(FAMILIES[s.family].ring, s.group.key) for s in specs]
    rings = [built[s.family](s.group) for s in specs]
    equal_pairs = same_order_unequal_pairs = 0
    for (key_a, ring_a), (key_b, ring_b) in itertools.combinations(zip(keys, rings), 2):
        assert (key_a == key_b) == (ring_a == ring_b), (key_a, key_b)
        equal_pairs += key_a == key_b
        same_order_unequal_pairs += math.prod(key_a[1]) == math.prod(key_b[1]) and ring_a != ring_b
    assert equal_pairs and same_order_unequal_pairs
    # one ring name over isomorphic groups: the labels of NG(Z/21, 21) differ
    # from those of NG(Z3xZ7, 21), but the CRT map g -> (g mod 3, g mod 7)
    # carries one ring onto the other
    z21, z3x7 = cyclic(21), FiniteAbelianGroup((3, 7))
    assert z21.key == z3x7.key == (3, 7)
    ring21, ring37 = make_near_group_ring(z21, 21), make_near_group_ring(z3x7, 21)
    assert ring21 != ring37
    relabel = {group_label((g,)): group_label((g % 3, g % 7)) for g in range(21)}
    perm = [ring37.labels.index(relabel.get(label, label)) for label in ring21.labels]
    assert sorted(perm) == list(range(ring37.rank))
    assert ring37.unit == perm[ring21.unit]
    assert all(ring37.dual[perm[i]] == perm[ring21.dual[i]] for i in range(ring21.rank))
    for i, j, k in itertools.product(range(ring21.rank), repeat=3):
        assert ring37.N[perm[i]][perm[j]][perm[k]] == ring21.N[i][j][k]
    # so rigidity accepts the two groups: g^2/21 is (1, -2) under the CRT map,
    # since 1/21 = 1/3 - 2/7, and (1, 1) is another class
    specs = [_ng2_over_z25(z21, (1,)), _ng2_over_z25(z3x7, (1, -2)), _ng2_over_z25(z3x7, (1, 1))]
    report = rigidity_report(specs)
    assert report.period == 525
    assert report.classes == ((0, 1), (2,))
    assert report.separators == ((0, 2, 1), (1, 2, 1))


def _ng2_over_z25(group, coeffs):
    z25 = cyclic(25)
    return CategorySpec(
        "NG2", group, q=monomial_form(group, coeffs), gp=z25, qp=monomial_form(z25, (1,))
    )


def test_rigidity_accepts_one_group_written_two_ways():
    trivial = [
        CategorySpec("NG1", FiniteAbelianGroup(factors), p=2, zeta1=Fraction(0))
        for factors in ((), (1,))
    ]
    assert rigidity_report(trivial).classes == ((0, 1),)
    z3 = [
        CategorySpec("NG2", g, q=monomial_form(g, (0,) * (g.rank - 1) + (1,)), gp=cyclic(7),
                     qp=monomial_form(cyclic(7), (1,)))
        for g in (FiniteAbelianGroup((1, 3)), cyclic(3))
    ]
    assert rigidity_report(z3).classes == ((0, 1),)


def _class_key(spec):
    center = spec.center()
    return center.histogram, center.period, center.dim


def _vectors_agree(first, second) -> bool:
    """The center vectors agree within TOL at every k up to the lcm of their periods."""
    u, v = indicator_vector(first), indicator_vector(second)
    ks = range(1, math.lcm(u.period, v.period) + 1)
    return all(abs(u.value(k) - v.value(k)) < TOL for k in ks)


def _fixed_groups():
    """The bundled rows grouped by table and G, and the NG1 classes."""
    groups = {}
    for row in builtin_rows():
        groups.setdefault((row.table_id, row.spec.group), []).append(row.spec)
    return list(groups.values()) + [ng1_equivalence_classes(n) for n in (1, 2, 3, 7)]


def test_histogram_verdict_matches_vectors_on_fixed_pairs():
    pairs = [pair for specs in _fixed_groups() for pair in itertools.combinations(specs, 2)]
    assert len(pairs) == 36
    verdicts = []
    for first, second in pairs:
        same = _class_key(first) == _class_key(second)
        assert same == _vectors_agree(first, second), (first.describe(), second.describe())
        verdicts.append(same)
    assert any(verdicts) and not all(verdicts)


def test_rigidity_classes_do_not_depend_on_tolerance(monkeypatch):
    isometric = [_ng2_over_z25(cyclic(21), (c,)) for c in (1, 4)]  # 4 is a square unit
    for specs in _fixed_groups() + [isometric]:
        classes = set()
        for tol in (1e-15, 1e-9, 1e-3):
            monkeypatch.setattr(indicators, "DEFAULT_TOL", tol)
            classes.add(rigidity_report(specs).classes)
        assert len(classes) == 1, [spec.describe() for spec in specs]
    monkeypatch.setattr(indicators, "DEFAULT_TOL", 1e-15)
    assert rigidity_report(isometric).classes == ((0, 1),)


def test_rigidity_refuses_to_merge_classes_within_tolerance(monkeypatch):
    specs = ng1_equivalence_classes(3)
    drawn = _count_draws(monkeypatch)
    monkeypatch.setattr(indicators, "DEFAULT_TOL", 10)
    with pytest.raises(ValueError, match="differ"):
        rigidity_report(specs)
    # the scan ran to the lcm, so it read each class over its whole period,
    # which sums every residue of the period once
    assert list(map(len, drawn)) == [spec.period() // 2 + 1 for spec in specs]


def _rigidity_by_whole_vectors(specs, tol=TOL):
    """The period, classes and separators of ``rigidity_report`` from whole
    vectors: one ``indicator_vector`` per spec, each spec in the class of the
    first spec it matches within ``tol`` at every k up to the lcm of their
    periods, and each pair across classes separated at its first k up to that
    lcm where the two differ by more than ``tol``."""
    vectors = [indicator_vector(spec) for spec in specs]

    def first_gap(i, j):
        u, v = vectors[i], vectors[j]
        ks = range(1, math.lcm(u.period, v.period) + 1)
        return next((k for k in ks if abs(u.value(k) - v.value(k)) > tol), None)

    first = [next(i for i in range(j + 1) if first_gap(i, j) is None) for j in range(len(specs))]
    pairs = itertools.combinations(range(len(specs)), 2)
    return (
        math.lcm(*(u.period for u in vectors)),
        tuple(tuple(j for j, f in enumerate(first) if f == i) for i in sorted(set(first))),
        tuple((i, j, first_gap(i, j)) for i, j in pairs if first[i] != first[j]),
    )


def _report_triple(specs):
    report = rigidity_report(specs)
    return report.period, report.classes, report.separators


# three NG2 classes over (Z/21, Z/25) by the coefficients of (q, q'), and the
# smallest k that separates each two of them
SHUFFLED_CLASSES = {"a": (1, 1), "b": (1, 2), "c": (2, 1)}
SHUFFLED_SEPARATORS = {"ab": 5, "ac": 1, "bc": 1}


def _shuffled_copies():
    """Three differently labelled copies of each class of :data:`SHUFFLED_CLASSES`,
    shuffled; copy i scales q by 4^i, a square unit mod 21, so it is written with
    another coefficient but has the same class."""
    z21, z25 = cyclic(21), cyclic(25)
    specs = [
        CategorySpec("NG2", z21, q=monomial_form(z21, (c * 4**i,)), gp=z25,
                     qp=monomial_form(z25, (cp,)), labels=(("class", tag), ("copy", str(i))))
        for tag, (c, cp) in SHUFFLED_CLASSES.items() for i in range(3)
    ]
    random.Random(35).shuffle(specs)
    return specs


def test_lazy_rigidity_matches_whole_vector_scan_on_fixed_groups():
    for specs in _fixed_groups() + [_shuffled_copies()]:
        assert _report_triple(specs) == _rigidity_by_whole_vectors(specs)
    # repeated classes: each spec is looked up in the class of its first copy
    specs = _shuffled_copies()
    tags = [dict(spec.labels)["class"] for spec in specs]
    report = rigidity_report(specs)
    assert report.classes == tuple(
        tuple(i for i, tag in enumerate(tags) if tag == first) for first in dict.fromkeys(tags)
    )
    assert len(report.classes) == 3 and len(set(tags[:3])) < 3  # some class repeats early
    assert report.separators == tuple(
        (i, j, SHUFFLED_SEPARATORS["".join(sorted(tags[i] + tags[j]))])
        for i, j in itertools.combinations(range(len(specs)), 2) if tags[i] != tags[j]
    )


@pytest.mark.parametrize("seed", range(1, 6))
def test_lazy_rigidity_matches_whole_vector_scan_on_ladder_triples(seed):
    # the ladder benchmark draws one spec over each of (Z/21, Z/25) and
    # (Z3xZ7, Z5xZ5) before the three it passes to rigidity
    z21, z25 = cyclic(21), cyclic(25)
    groups = [(z21, z25), (FiniteAbelianGroup((3, 7)), FiniteAbelianGroup((5, 5)))]
    specs = _unit_ng2_specs(random.Random(seed), groups + [(z21, z25)] * 3)[2:]
    assert _report_triple(specs) == _rigidity_by_whole_vectors(specs)


def test_ng1_equivalence_classes_validation():
    with pytest.raises(ValueError):
        ng1_equivalence_classes(5)


def test_spec_json_round_trip():
    # a spec's fields are exactly its JSON keys, so the round trip is the identity
    params = {par.name for family in FAMILIES.values() for par in family.params}
    assert set(CategorySpec._fields) == {"family", "group", "labels"} | params
    specs = [row.spec for row in builtin_rows()]
    specs += ng1_equivalence_classes(2) + ng1_equivalence_classes(7)
    specs.append(CategorySpec("NG1X", cyclic(7)))
    specs.append(
        CategorySpec(
            "NG2",
            cyclic(5),
            q=monomial_form(cyclic(5), (2,)),
            gp=FiniteAbelianGroup((3, 3)),
            # (x^2 + xy + 2y^2)/3 as numerators over 6: not monomial, so stored as a table
            qp=QuadraticForm(
                FiniteAbelianGroup((3, 3)),
                tuple(2 * (x * x + x * y + 2 * y * y) for x in range(3) for y in range(3)),
            ),
            labels=(("c", "-"),),
        )
    )
    assert {spec.family for spec in specs} == {"NG1", "NG1X", "NG2", "HI"}
    for spec in specs:
        data = spec_to_json(spec)
        back = spec_from_json(data)
        assert back == spec
        assert back.describe() == spec.describe()
        assert back.family == spec.family
        assert back.group == spec.group
        for k in (1, 2, 3):
            assert abs(closed_form_nu(back, k) - closed_form_nu(spec, k)) < TOL


# odd groups, one tuple of cyclic factors each, with two presentations of Z/15
ODD_GROUPS = [(1,), (3,), (5,), (7,), (9,), (3, 3), (11,), (13,), (15,), (3, 5), (17,)]


def unit_forms(factors):
    """Monomial forms with a unit coefficient on each cyclic factor."""
    group = FiniteAbelianGroup(factors)
    units = [st.sampled_from([a for a in range(n) if math.gcd(a, n) == 1]) for n in factors]
    return st.tuples(*units).map(lambda coeffs: monomial_form(group, coeffs))


@st.composite
def ng2_specs(draw):
    g = draw(st.sampled_from([f for f in ODD_GROUPS if math.prod(f) <= 13]))
    gp = draw(st.sampled_from([f for f in ODD_GROUPS if math.prod(f) == math.prod(g) + 4]))
    q, qp = draw(unit_forms(g)), draw(unit_forms(gp))
    return CategorySpec("NG2", FiniteAbelianGroup(g), q=q, gp=FiniteAbelianGroup(gp), qp=qp)


@st.composite
def hi_specs(draw):
    n = draw(st.sampled_from([1, 3]))
    return CategorySpec("HI", cyclic(n), h=cyclic(n * n + 4), qpp=draw(unit_forms((n * n + 4,))))


ng1_specs = st.builds(
    lambda n, zeta1: CategorySpec(
        "NG1", cyclic(n), p=factor_prime_power(n + 1)[0], zeta1=zeta1
    ),
    st.sampled_from([1, 2, 3, 4, 6, 7, 8]),
    st.fractions(max_denominator=30),
)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(st.one_of(ng2_specs(), hi_specs()))
def test_center_and_closed_routes_agree_over_a_period(spec):
    ks = range(1, spec.period() + 1)
    center, closed = center_values(spec.center()), closed_values(spec)
    for k, z, w in zip(ks, map(center, ks), map(closed, ks)):
        assert abs(z - w) < TOL, (spec.describe(), k)


ng1_z3_specs = st.builds(
    lambda zeta1: CategorySpec("NG1", cyclic(3), p=2, zeta1=zeta1),
    st.fractions(max_denominator=30),
)


@st.composite
def same_ring_pairs(draw):
    """Two specs over one G: NG2 with unit forms, NG1 over Z/3, or HI."""
    first = draw(st.one_of(ng2_specs(), ng1_z3_specs, hi_specs()))
    if first.family == "NG1":
        return first, draw(ng1_z3_specs)
    if first.family == "HI":
        return first, replace(first, qpp=draw(unit_forms(first.h.cyclic_factors)))
    gp = draw(st.sampled_from([f for f in ODD_GROUPS if math.prod(f) == first.gp.order]))
    q, qp = draw(unit_forms(first.group.cyclic_factors)), draw(unit_forms(gp))
    return first, replace(first, q=q, gp=FiniteAbelianGroup(gp), qp=qp)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(same_ring_pairs())
def test_equal_histograms_are_exactly_equal_vectors(pair):
    first, second = pair
    assert (_class_key(first) == _class_key(second)) == _vectors_agree(first, second)


@settings(derandomize=True, max_examples=100, deadline=None)
@given(
    st.one_of(ng1_specs, st.just(CategorySpec("NG1X", cyclic(7))), ng2_specs(), hi_specs()),
    st.dictionaries(st.text("ab+-", max_size=3), st.text("ab+-", max_size=3), max_size=2),
)
def test_spec_json_round_trip_property(spec, labels):
    spec = replace(spec, labels=tuple(sorted(labels.items())))
    assert spec_from_json(json.loads(json.dumps(spec_to_json(spec)))) == spec


def test_spec_validation():
    with pytest.raises(ValueError):
        CategorySpec("NG2", cyclic(4))
    with pytest.raises(ValueError):
        CategorySpec("NG1", cyclic(3))  # missing p, zeta1
    with pytest.raises(ValueError):
        CategorySpec("bogus", cyclic(3))
    with pytest.raises(ValueError):
        CategorySpec("NG1X", cyclic(5))
    with pytest.raises(ValueError):
        CategorySpec("HI", cyclic(3), h=cyclic(11), qpp=monomial_form(cyclic(11), (1,)))
    # only NG1X, whose group is fixed, may omit the group
    assert spec_from_json({"family": "NG1X"}).group == cyclic(7)
    ng2 = {
        "family": "NG2",
        "q": {"monomial": [{"factor": 0, "coeff": 1}]},
        "gp": {"cyclic_factors": [11]},
        "qp": {"monomial": [{"factor": 0, "coeff": 1}]},
    }
    hi = {"family": "HI", "h": {"cyclic_factors": [13]}, "qpp": {"monomial": []}}
    ng1 = {"family": "NG1", "p": 2, "zeta1": "0"}
    for data in (ng2, hi, ng1):
        with pytest.raises(ValueError, match="group"):
            spec_from_json(data)
    with pytest.raises(ValueError, match="zeta1"):
        spec_from_json({"family": "NG1", "group": {"cyclic_factors": [3]}, "p": 2})


def test_spec_from_json_refuses_keys_the_family_does_not_take():
    """Only family, group, labels and the family's own parameters are read;
    any other key is named in the error, before any form is parsed."""
    hi = spec_to_json(builtin_rows()[-1].spec)
    bad_form = {"table": ["1/2"]}  # would fail to parse, if it were read
    for key, value in (("qp", {"monomial": []}), ("zeta", "1/2"), ("eps", -1)):
        with pytest.raises(ValueError, match=f"HI spec has unknown key\\(s\\) '{key}'$"):
            spec_from_json({**hi, "qpp": bad_form, key: value})
    ng1x = {"family": "NG1X", "q": {"monomial": []}, "zeta1": "0"}
    with pytest.raises(ValueError, match="NG1X spec has unknown key\\(s\\) 'q', 'zeta1'$"):
        spec_from_json(ng1x)


def test_replace_checks_the_copy_like_a_new_spec():
    ng2 = builtin_rows()[0].spec
    with pytest.raises(ValueError, match="non-degenerate"):
        replace(ng2, q=monomial_form(ng2.group, (0,)))
    ng1 = CategorySpec("NG1", cyclic(3), p=2, zeta1=Fraction(0))
    assert replace(ng1, zeta1=Fraction(5, 4)).zeta1 == Fraction(1, 4)
    with pytest.raises(ValueError, match="family"):
        replace(ng1, family="bogus")


def test_records_carry_no_hidden_state():
    """Every namedtuple record of the package declares ``__slots__ = ()``, so
    an instance is its tuple of fields and nothing else: no ``__dict__``."""
    import importlib
    import pkgutil

    import fsind

    records = []
    for info in pkgutil.iter_modules(fsind.__path__):
        if info.name == "__main__":  # running it runs the command line
            continue
        module = importlib.import_module(f"fsind.{info.name}")
        records += [
            value for value in vars(module).values()
            if isinstance(value, type) and issubclass(value, tuple) and hasattr(value, "_fields")
            and value.__module__ == module.__name__
        ]
    assert {cls.__name__ for cls in records} >= {"CategorySpec", "QuadraticForm", "Family"}
    for cls in records:
        assert vars(cls).get("__slots__") == (), cls.__qualname__
        assert cls.__dictoffset__ == 0, cls.__qualname__
