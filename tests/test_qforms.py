import cmath
import functools
import itertools
import math
import random
import re
import sys
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fsind.abelian import FiniteAbelianGroup, cyclic
from fsind.qforms import (
    QuadraticForm,
    describe_form,
    form_from_json,
    form_to_json,
    gauss_sum,
    gauss_values,
    jacobi_symbol,
    monomial_form,
    qz,
    rational_from_json,
    root_sums,
)

from fsind.indicators import closed_values
from fsind.tables import builtin_rows

from conftest import ABELIAN_GROUPS_LE_13, CountedWeight, cyclic_metric_form, metric_group_catalog
from oracles import (
    bicharacter,
    boundary,
    is_quadratic_table,
    neg,
    orthogonal_sum,
    radical_order,
    table_form_by_fractions,
    value,
)

TOL = 1e-9
ROUTE_TOL = 1e-12  # histogram sums against direct loops: same terms, other order


def direct_gauss_sum(q: QuadraticForm) -> complex:
    """Reference Theta(G, q): one exponential per element, in element order."""
    total = sum(cmath.exp(2j * math.pi * (v / q.den)) for v in q.values)
    return total / math.sqrt(q.group.order)


def boundary_is_biadditive(group, value) -> bool:
    """Reference check, cubic in |G|: dq(g1 + g2, h) = dq(g1, h) + dq(g2, h)
    for the boundary of the exact phases ``value(g)``."""
    elems = group.elements()

    def dq(g, h):
        return (value(group.add(g, h)) - value(g) - value(h)) % 1

    return all(
        dq(group.add(g1, g2), h) == (dq(g1, h) + dq(g2, h)) % 1
        for g1 in elems
        for g2 in elems
        for h in elems
    )


def monomial_reference(group, coeffs, g) -> Fraction:
    """sum_i c_i g_i^2 / n_i in Q/Z, in exact arithmetic."""
    terms = (Fraction(c * r * r, n) for c, r, n in zip(coeffs, g, group.cyclic_factors))
    return sum(terms, start=Fraction(0)) % 1


Q3 = monomial_form(cyclic(3), (1,))
Q7 = monomial_form(cyclic(7), (1,))


def test_qz_arithmetic():
    assert qz(Fraction(2, 3) + Fraction(2, 3)) == Fraction(1, 3)
    assert qz(6 * Fraction(1, 3)) == 0
    assert qz(Fraction(1, 2) + Fraction(1, 2)) == 0
    assert qz(-1 * Fraction(1, 3)) == Fraction(2, 3)


def test_boundary_examples():
    assert boundary(Q3, (1,), (1,)) == Fraction(2, 3)  # q(2) - 2 q(1) = 4/3 - 2/3
    assert boundary(Q7, (1,), (2,)) == Fraction(4, 7)  # 9/7 - 1/7 - 4/7
    for h in Q3.group.elements():
        assert boundary(Q3, (0,), h) == 0


def test_bicharacter_examples():
    assert abs(bicharacter(monomial_form(cyclic(4), (0,)), (1,), (2,)) - 1) < TOL
    assert abs(bicharacter(Q3, (1,), (1,)) - cmath.exp(4j * math.pi / 3)) < TOL
    elems = Q7.group.elements()
    for g in elems:
        for h in elems:
            assert abs(bicharacter(Q7, g, h) - bicharacter(Q7, h, g)) < TOL


def test_diagonal_of_bicharacter_doubles_the_form():
    # <g, g> = e^{2 pi i * 2 q(g)}: the identity the twist tables rely on
    for q in (Q3, Q7, monomial_form(cyclic(9), (2,))):
        for g in q.group.elements():
            assert boundary(q, g, g) == (2 * value(q, g)) % 1


def test_gauss_sum_examples():
    assert abs(gauss_sum(monomial_form(cyclic(1), (0,))) - 1) < TOL
    assert abs(gauss_sum(Q3) - 1j) < TOL
    assert abs(gauss_sum(Q7) - 1j) < TOL


def test_gauss_sums_match_direct_loop():
    forms = metric_group_catalog(30) + [
        monomial_form(cyclic(9), (3,)),  # degenerate
        monomial_form(FiniteAbelianGroup((2, 4)), (1, 3)),
        monomial_form(FiniteAbelianGroup((3, 3)), (0, 0)),
    ]
    for q in forms:
        scales = range(-2, 2 * q.den + 3)
        sums = list(map(gauss_values(q), scales))
        for k, theta in zip(scales, sums):
            assert abs(theta - direct_gauss_sum(q.scaled(k))) < ROUTE_TOL, (q.group, k)
        assert sums[2 : 2 + q.den] == sums[2 + q.den : 2 + 2 * q.den]  # exactly periodic
        assert gauss_sum(q) == sums[3]


def test_root_sums_value_does_not_depend_on_the_order_of_k_or_of_weights():
    """Real weights on a few residues, irrational like the center route's, on
    moduli of both parities: each k, negative and beyond n too, reads the same
    float whatever order the k are asked in and the weights are listed in."""
    rng = random.Random(11)
    for n in (1, 2, 7, 12, 51):
        weights = {r: rng.uniform(-3, 3) * math.sqrt(2) for r in rng.sample(range(n), min(n, 6))}
        ks = list(range(-2 * n - 1, 2 * n + 2))
        values = root_sums(weights, n)
        reference = {k: values(k) for k in ks}  # ascending
        for k, total in reference.items():
            direct = sum(w * cmath.exp(2j * math.pi * k * r / n) for r, w in weights.items())
            assert abs(total - direct) < ROUTE_TOL, (n, k)
            mirror = reference[-k] if 2 * k % n == 0 else reference[-k].conjugate()
            assert total == reference[k % n] == mirror, (n, k)
        for order in (ks[::-1], rng.sample(ks, len(ks)), ks + ks[::-1] + ks):
            values = root_sums(weights, n)
            assert [values(k) for k in order] == [reference[k] for k in order], n
        entries = list(weights.items())
        for listed in (entries[::-1], rng.sample(entries, len(entries))):
            values = root_sums(dict(listed), n)
            assert [values(k) for k in ks] == list(reference.values()), n


def test_root_sums_sums_each_residue_at_most_once_from_one_roots_table(monkeypatch):
    """A map sums each residue j in [0, n/2] that an asked k reads once, and no
    other, from one table of the n roots of unity."""
    exps = []
    exp = cmath.exp
    monkeypatch.setattr(cmath, "exp", lambda z: exps.append(z) or exp(z))
    for n in (1, 2, 7, 12, 51):
        exps.clear()
        seen = []  # with its weight at r = 1, residue j reads root j: e^{2 pi i j / n}
        values = root_sums({**dict.fromkeys(range(n), 0.5), 1 % n: CountedWeight(1.0, seen)}, n)
        asked = [5, -5, 0, n, 1, 2 * n - 1, -1, 3 * n + 2, n // 2, 5 * n + 5, 0]
        for k in asked:
            values(k)
        summed = [round(cmath.phase(root) * n / (2 * math.pi)) % n for root in seen]
        assert len(summed) == len(set(summed)), (n, summed)  # no residue twice
        assert set(summed) == {min(k % n, -k % n) for k in asked} <= set(range(n // 2 + 1))
        assert len(exps) == n  # the roots table, built once


def test_closed_vectors_match_direct_gauss_loop():
    for row in builtin_rows():
        spec = row.spec
        ks = range(1, spec.period() + 1)
        for k, value in zip(ks, map(closed_values(spec), ks)):
            if spec.family == "NG2":
                product = direct_gauss_sum(spec.q.scaled(2 * k)) * direct_gauss_sum(
                    spec.qp.scaled(2 * k)
                )
            else:
                m = (spec.h.order - 1) // 2
                product = direct_gauss_sum(spec.qpp.scaled(k * m))
            expected = spec.group.power_count(k, spec.group.identity) / 2 + product / 2
            assert abs(value - expected) < ROUTE_TOL, (row.table_id, row.row_id, k)


def test_orthogonal_sum_multiplicativity_examples():
    assert abs(gauss_sum(orthogonal_sum(Q3, Q7)) - (-1)) < TOL
    trivial = monomial_form(cyclic(1), (0,))
    assert abs(gauss_sum(orthogonal_sum(Q3, trivial)) - 1j) < TOL
    assert abs(gauss_sum(orthogonal_sum(Q3, Q3.scaled(-1))) - 1) < TOL


def test_gauss_multiplicativity_catalog():
    catalog = metric_group_catalog(16)
    for p1 in catalog:
        theta1 = gauss_sum(p1)
        for p2 in catalog:
            combined = orthogonal_sum(p1, p2)
            assert combined.is_nondegenerate()
            assert abs(gauss_sum(combined) - theta1 * gauss_sum(p2)) < TOL


def test_gauss_modulus_one_for_metric_groups():
    for pm in metric_group_catalog(32):
        assert abs(abs(gauss_sum(pm)) - 1) < TOL


def test_jacobi_symbol_examples():
    assert jacobi_symbol(2, 7) == 1   # 3^2 = 2 mod 7
    assert jacobi_symbol(6, 7) == -1
    for a in range(-5, 6):
        assert jacobi_symbol(a, 1) == 1
    with pytest.raises(ValueError):
        jacobi_symbol(3, 8)


def test_jacobi_symbol_against_residue_bruteforce():
    for p in (3, 5, 7, 11, 13, 17, 19, 23):
        residues = {g * g % p for g in range(1, p)}
        for a in range(p):
            expected = 0 if a == 0 else (1 if a in residues else -1)
            assert jacobi_symbol(a, p) == expected
    # multiplicativity in the lower argument over composite moduli
    for n in (9, 15, 21, 35, 45):
        for a in range(n):
            parts = 1
            m = n
            for p in (3, 5, 7):
                while m % p == 0:
                    parts *= jacobi_symbol(a, p)
                    m //= p
            assert jacobi_symbol(a, n) == parts


def test_scale_form_examples():
    assert Q3.scaled(6).values == monomial_form(cyclic(3), (0,)).values
    assert Q7.scaled(2).values == monomial_form(cyclic(7), (2,)).values
    assert abs(gauss_sum(Q7.scaled(3)) - (-1j)) < TOL  # (3/7) = -1


def test_scaling_law_odd_order():
    for n in (1, 3, 5, 7, 9, 11, 13):
        for a in (1, 2):
            q = monomial_form(cyclic(n), (a,))
            if not q.is_nondegenerate():
                continue
            theta = gauss_sum(q)
            for k in range(1, 21):
                if math.gcd(k, n) != 1:
                    continue
                lhs = gauss_sum(q.scaled(k))
                assert abs(lhs - jacobi_symbol(k, n) * theta) < TOL, (n, a, k)


def test_boundary_biadditivity_exhaustive():
    forms = [
        Q3,
        monomial_form(FiniteAbelianGroup((3, 3)), (1, 2)),
        cyclic_metric_form(4),
        cyclic_metric_form(8, 3),
        monomial_form(cyclic(13), (2,)),
        cyclic_metric_form(16, 5),
    ]
    for q in forms:
        assert boundary_is_biadditive(q.group, functools.partial(value, q))


def test_boundary_determines_monomial_form_odd_order():
    # q -> dq is injective on monomial forms over odd cyclic groups <= 13
    for n in (3, 5, 7, 9, 11, 13):
        group = cyclic(n)
        seen = {}
        for a in range(n):
            q = monomial_form(group, (a,))
            key = tuple(
                boundary(q, g, h) for g in group.elements() for h in group.elements()
            )
            assert key not in seen, (n, a, seen[key])
            seen[key] = a


def test_form_validation():
    # numerators over 2 * exponent: 6 on Z/3, 10 on Z/5
    with pytest.raises(ValueError):
        QuadraticForm(cyclic(3), (2, 0, 0))  # q(0) != 0
    with pytest.raises(ValueError):
        QuadraticForm(cyclic(3), (0, 2, 4))  # q(-1) != q(1)
    with pytest.raises(ValueError):
        QuadraticForm(cyclic(5), (0, 1, 3, 3, 1))  # dq(1, 2) != 2 dq(1, 1)
    with pytest.raises(ValueError, match="bi-additive"):
        QuadraticForm(group=cyclic(5), values=(0, 1, 3, 3, 1))
    with pytest.raises(ValueError, match="bi-additive"):
        form_from_json({"table": ["0", "1/10", "3/10", "3/10", "1/10"]}, cyclic(5))


# cyclic groups of both parities, elementary abelian groups and mixed exponents,
# where some n_i kills less than den = 2 * exponent does
FORM_CHECK_GROUPS = [(2,), (4,), (8,), (2, 2, 2), (2, 4), (3, 3), (3, 9), (15,)]
TABLE_KINDS = ("valid", "one value changed", "odd", "q(0) != 0", "any generator data")


def _expansion(group, diagonal, cross, den):
    """sum_i diagonal[i] g_i^2 + sum_{i<j} cross[i][j] g_i g_j mod den at each g,
    with residues g_i in [0, n_i), in element order."""
    rank = group.rank
    return [
        (sum(a * r * r for a, r in zip(diagonal, g))
         + sum(cross[i][j] * g[i] * g[j] for i in range(rank) for j in range(i + 1, rank))) % den
        for g in group.elements()
    ]


def _drawn_tables(group, rng, draws):
    """(kind, numerators) for ``draws`` rounds of :data:`TABLE_KINDS`: a valid form
    from random generator data (q(e_i) in 1/(2 n_i) Z for even n_i, dq(e_i, e_j) in
    1/gcd(n_i, n_j) Z), that form with one value changed, plus a character, and plus
    a constant, and the expansion of generator data each valid or uniform at random,
    which only the sum's well-definedness refuses."""
    factors, den, elems = group.cyclic_factors, 2 * group.exponent, group.elements()
    steps = [den // n // (2 - n % 2) for n in factors]
    cross_steps = [[den // math.gcd(n, m) for m in factors] for n in factors]

    def draw(step, valid):
        return rng.randrange(den) // step * step if valid else rng.randrange(den)

    for _ in range(draws):
        diagonal = [draw(step, True) for step in steps]
        cross = [[draw(step, True) for step in row] for row in cross_steps]
        valid = _expansion(group, diagonal, cross, den)
        yield "valid", valid
        changed = list(valid)
        changed[rng.randrange(group.order)] += rng.randrange(1, den)
        yield "one value changed", changed
        character = [rng.randrange(n) * (den // n) for n in factors]
        yield "odd", [v + sum(c * r for c, r in zip(character, g)) for v, g in zip(valid, elems)]
        yield "q(0) != 0", [v + rng.randrange(1, den) for v in valid]
        diagonal = [draw(step, rng.random() < 0.5) for step in steps]
        cross = [[draw(step, rng.random() < 0.5) for step in row] for row in cross_steps]
        yield "any generator data", _expansion(group, diagonal, cross, den)


def test_form_check_accepts_what_the_rank_squared_check_accepts():
    """On seeded tables of every kind over :data:`FORM_CHECK_GROUPS`, the
    constructor accepts exactly the tables the reference rank^2 |G| check accepts,
    and refuses the others as not bi-additive; on each form it accepts,
    ``is_nondegenerate`` says whether the radical is trivial, and ``describe_form``
    prints ``[c/n,...]`` exactly when the form is ``monomial_form`` of those c."""
    rng = random.Random(20151)
    verdicts, shapes = set(), set()  # (kind, accepted); (non-degenerate, monomial)
    for factors in FORM_CHECK_GROUPS:
        group = FiniteAbelianGroup(factors)
        monomials = {
            monomial_form(group, coeffs).values: coeffs
            for coeffs in itertools.product(*map(range, factors))
        }
        for kind, values in _drawn_tables(group, rng, 30):
            quadratic = is_quadratic_table(group, values)
            try:
                q = QuadraticForm(group, values)
            except ValueError as error:
                assert not quadratic, (factors, kind, values)
                assert "bi-additive" in str(error)
                verdicts.add((kind, False))
                continue
            assert quadratic, (factors, kind, values)
            verdicts.add((kind, True))
            nondegenerate = radical_order(q) == 1
            assert q.is_nondegenerate() == nondegenerate, (factors, values)
            coeffs = monomials.get(q.values)
            described = None if coeffs is None else "[" + ",".join(
                f"{c}/{n}" for c, n in zip(coeffs, factors)) + "]"
            assert describe_form(q) == (described or "<table>"), (factors, values)
            shapes.add((nondegenerate, coeffs is not None))
    kinds = {(kind, verdict) for kind in TABLE_KINDS for verdict in (False, True)}
    assert verdicts == kinds - {("valid", False), ("q(0) != 0", True)}
    assert shapes == set(itertools.product((False, True), repeat=2))


monomial_inputs = st.sampled_from(ABELIAN_GROUPS_LE_13).flatmap(
    lambda factors: st.tuples(
        st.just(FiniteAbelianGroup(factors)),
        st.lists(st.integers(-40, 40), min_size=len(factors), max_size=len(factors)),
    )
)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(monomial_inputs, monomial_inputs, st.integers(-40, 40), st.data())
def test_form_arithmetic_and_validation_against_fraction_reference(first, second, k, data):
    (group, coeffs), (group2, coeffs2) = first, second
    q = monomial_form(group, coeffs)
    total = orthogonal_sum(q, monomial_form(group2, coeffs2))
    scaled = q.scaled(k)
    elems = group.elements()
    for g in elems:
        expected = monomial_reference(group, coeffs, g)
        assert value(q, g) == expected
        assert value(scaled, g) == k * expected % 1
        for h in group2.elements():
            assert value(total, g + h) == (expected + monomial_reference(group2, coeffs2, h)) % 1

    # move the value of q at one pair {g, -g}; the result is a quadratic form
    # exactly when the reference says so
    g = data.draw(st.sampled_from(elems))
    moved = data.draw(st.integers(0, q.den - 1))
    values = list(q.values)
    values[group.index(g)] = values[group.index(neg(group, g))] = moved
    table = {h: Fraction(v, q.den) for h, v in zip(elems, values)}
    quadratic = table[group.identity] == 0 and boundary_is_biadditive(group, table.__getitem__)
    try:
        QuadraticForm(group, tuple(values))
    except ValueError:
        assert not quadratic
    else:
        assert quadratic


def test_form_json_round_trip():
    q = monomial_form(FiniteAbelianGroup((3, 3)), (1, 2))
    data = form_to_json(q)
    assert data["monomial"] == [
        {"factor": 0, "coeff": 1},
        {"factor": 1, "coeff": 2},
    ]
    assert form_from_json(data, q.group).values == q.values
    dense = cyclic_metric_form(4)  # not representable as a monomial over Z/4
    data = form_to_json(dense)
    assert "table" in data
    assert form_from_json(data, dense.group).values == dense.values


def test_form_json_group_key_must_match_the_ambient_group():
    data = form_to_json(Q3)  # carries its own "group"
    assert form_from_json(data, cyclic(3)).values == Q3.values
    with pytest.raises(ValueError, match="does not match"):
        form_from_json(data, cyclic(5))
    del data["group"]
    assert form_from_json(data, cyclic(3)).values == Q3.values


def test_form_json_takes_only_its_own_keys():
    """A key outside group, table and monomial is named, not ignored; a table
    with a monomial is refused; a monomial entry takes only factor and coeff."""
    z5, monomial = cyclic(5), [{"factor": 0, "coeff": 2}]
    table = ["0", "1/5", "4/5", "4/5", "1/5"]
    assert form_from_json({"monomial": monomial}, z5).values != form_from_json(
        {"table": table}, z5).values
    for data, message in (
        ({"monomal": monomial}, "form has unknown key(s) 'monomal'"),
        ({"monomial": monomial, "scale": 2, "Table": table},
         "form has unknown key(s) 'Table', 'scale'"),
        ({"table": table, "monomial": monomial}, "a table or a monomial, not both"),
        ({"monomial": [{"factor": 0, "coeff": 2, "power": 3}]}, "a monomial form must be"),
        ({"monomial": [{"factor": 0}]}, "a monomial form must be"),
    ):
        with pytest.raises(ValueError) as info:
            form_from_json(data, z5)
        assert message in str(info.value)


def test_rational_from_json_takes_integers_and_fraction_strings_only():
    for data, expected in ((7, 7), ("-3/7", Fraction(-3, 7)), ("0", 0), ("00/07", 0)):
        assert rational_from_json(data) == expected
    for data in (0.25, True, "1e5", "1/-2", "1/0", "", "/", None, [1]):
        with pytest.raises(ValueError) as info:
            rational_from_json(data)
        assert str(info.value) == f"expected an integer or a fraction string, got {data!r}"


def test_rational_from_json_refuses_more_digits_than_int_converts():
    limit = sys.get_int_max_str_digits() or pytest.skip("this interpreter converts any length")
    assert rational_from_json("1/" + "1" * limit).numerator == 1
    for data in ("1" * (limit + 1), "1/" + "1" * (limit + 1), "-" + "1" * (limit + 1) + "/3"):
        with pytest.raises(ValueError) as info:
            rational_from_json(data)
        assert str(info.value) == (f"fraction string {data[:20]!r}... of {len(data)} "
                                   "characters has too many digits")


@settings(derandomize=True, max_examples=300, deadline=None)
@given(st.text("0123456789/-+.eE _", max_size=8))
def test_rational_from_json_reads_exactly_the_fraction_strings(text):
    """A string is read iff it is a, -a, a/b or -a/b in decimal digits with
    b != 0, and then as int(a) / int(b)."""
    match = re.fullmatch(r"(-?[0-9]+)(?:/([0-9]+))?", text)
    if match and int(match[2] or 1):
        assert rational_from_json(text) == Fraction(int(match[1]), int(match[2] or 1))
    else:
        with pytest.raises(ValueError, match="^expected an integer or a fraction string"):
            rational_from_json(text)


OVER_LONG = "1" * (sys.get_int_max_str_digits() + 1)  # past what int() converts, if it limits
NOT_A_RATIONAL = (0.5, 2.0, True, None, [1], "1e5", "-2E-1", "2.5", " 1", "+1", "1/-2", "1/0",
                  "0/0", "", "/", OVER_LONG, "1/" + OVER_LONG, "-" + OVER_LONG + "/3")


def _table_entries(numerator: int, den: int):
    """Two strategies for one JSON table entry at a value numerator/den: valid
    entries, the value written as an unreduced fraction string, maybe shifted by a
    whole number and so with a negative numerator, or a JSON integer where the
    value is whole; and bad ones, a fraction string that is not a multiple of
    1/den or a string or JSON value that is not a rational at all."""
    def written(shift, scale):
        return f"{(numerator + shift * den) * scale}/{den * scale}"

    valid = st.builds(written, st.integers(-3, 3), st.integers(1, 5))
    if numerator == 0:
        valid = st.one_of(valid, st.integers(-3, 3), st.integers(-3, 3).map(str))
    off = st.tuples(st.integers(-50, 50), st.integers(1, 50)).filter(
        lambda ab: ab[0] * den % ab[1]).map(lambda ab: f"{ab[0]}/{ab[1]}")
    return valid, st.one_of(off, st.sampled_from(NOT_A_RATIONAL))


@settings(derandomize=True, max_examples=300, deadline=None)
@given(st.sampled_from(ABELIAN_GROUPS_LE_13), st.data())
def test_table_reader_matches_the_fraction_reference(factors, data):
    """A ``table`` form is read from integer numerators and denominators with the
    same result as one ``Fraction`` per entry (``oracles.table_form_by_fractions``):
    the same form, or a ``ValueError`` with the same text.  The table is a
    monomial form's, each value written its own way, with up to three entries
    replaced by one that is not a multiple of 1/den or not a rational."""
    group = FiniteAbelianGroup(factors)
    coeffs = data.draw(st.lists(st.integers(0, 12), min_size=group.rank, max_size=group.rank))
    q = monomial_form(group, coeffs)
    bad = data.draw(st.sets(st.sampled_from(range(group.order)), max_size=3))
    table = []
    for i, v in enumerate(q.values):
        valid, invalid = _table_entries(v, q.den)
        table.append(data.draw(invalid if i in bad else valid))

    def read(reader):
        try:
            return reader(table, group).values
        except ValueError as error:
            return str(error)

    expected = read(table_form_by_fractions)
    assert read(lambda table, group: form_from_json({"table": table}, group)) == expected
    assert not bad or isinstance(expected, str)
    assert bad or expected == q.values


def test_radical_of_degenerate_scaling():
    q = monomial_form(cyclic(9), (1,))
    assert q.is_nondegenerate()
    assert not q.scaled(3).is_nondegenerate()


def _traced_peak(build):
    """The ``tracemalloc`` peak, in bytes, of ``build()``, and what it returned."""
    tracemalloc.start()
    try:
        result = build()
        return tracemalloc.get_traced_memory()[1], result
    finally:
        tracemalloc.stop()


def test_huge_coefficient_and_scale_are_reduced_before_expanding():
    """A coefficient or a scale of 4,001 digits costs at most twice the memory
    of 1: each is reduced (mod its factor, mod den) before the |G| values are built,
    and the values are those of the reduced form."""
    group, huge = cyclic(100003), 10**4000 + 1
    small_peak, small = _traced_peak(lambda: monomial_form(group, (1,)))
    huge_peak, q = _traced_peak(lambda: monomial_form(group, (huge,)))
    assert huge_peak <= 2 * small_peak
    assert q.values == monomial_form(group, (huge % 100003,)).values
    small_peak, _ = _traced_peak(lambda: small.scaled(1))
    huge_peak, scaled = _traced_peak(lambda: small.scaled(huge))
    assert huge_peak <= 2 * small_peak
    assert scaled.values == small.scaled(huge % small.den).values
