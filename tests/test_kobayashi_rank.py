"""Brute-force step ranks against their closed forms on the three tower shapes."""

import itertools
import random

import pytest
import weierstrass_oracle

from iwarank import cyclo_eval, kobayashi_rank, special_matrices, zp_modules
from iwarank.cli import parse_matrix_arg
from iwarank.cyclo_eval import INFINITE, ord_eps, rank_at_eps
from iwarank.errors import (
    DegenerateColeman,
    InvalidContext,
    NotSpecial,
    NotTorsion,
    PhiDivides,
    PrecisionUnstable,
    SingularMatrix,
    ZeroElement,
)
from iwarank.kobayashi_rank import (
    CyclicTower,
    MatrixTower,
    NablaResult,
    TorsionTower,
    _brute_nabla,
    _cyclic,
    _minors,
    _norm_length,
    _tors_reader,
    _weierstrass_minor,
    additivity_check,
    direct_sum,
    nabla_coleman_tower,
    nabla_cyclic,
    nabla_matrix_tower,
    nabla_torsion_tower,
)
from iwarank.lambda_ring import (
    ONE,
    X,
    ZERO,
    LambdaElement,
    LambdaMatrix,
    PrimeContext,
    cyclotomic_phi,
    euler_phi_pk,
    omega_poly,
)
from iwarank.special_matrices import (
    BDFactorization,
    ColemanData,
    SpecialLevel,
    assemble_fn,
    factor_bd,
    good_basis_transform,
    is_special,
)
from iwarank.verify import (
    COLEMAN_KINDS,
    _rand_matrix,
    _rand_poly,
    _rand_summand,
    _rand_unit_poly,
    rand_coleman_data,
    rand_cyclic_poly,
    rand_special_matrix,
)
from iwarank.zp_modules import (
    SpanPresentation,
    certified_valuations,
    finite_valuations,
    lambda_column_span,
)

THREE = LambdaElement((3,))


class TestCyclic:
    def test_frozen_x(self, ctx3):
        res = nabla_cyclic(ctx3, X, 1)
        assert res.nabla == 1
        assert res.closed_form == 1
        assert res.agrees is True

    def test_frozen_p(self, ctx3):
        res = nabla_cyclic(ctx3, THREE, 1)
        assert res.nabla == 2
        assert res.agrees is True

    def test_phi_divides(self, ctx3):
        with pytest.raises(PhiDivides):
            nabla_cyclic(ctx3, cyclotomic_phi(ctx3, 1), 1)

    def test_frozen_3x_level2(self, ctx3):
        res = nabla_cyclic(ctx3, THREE * X, 2)
        assert res.nabla == 7
        assert res.agrees is True

    def test_level_must_be_positive(self, ctx3):
        with pytest.raises(InvalidContext):
            nabla_cyclic(ctx3, X, 0)

    def test_consistency_equation(self, ctx3):
        res = nabla_cyclic(ctx3, THREE * X, 2)
        assert res.nabla == res.ker_length - res.coker_length + res.lower_rank


class TestTorsion:
    def test_frozen_p(self, ctx3):
        res = nabla_torsion_tower(ctx3, TorsionTower(((THREE,),)), 1)
        assert res.nabla == 2
        assert res.closed_form == 2  # lambda 0, mu 1, phi(3) = 2

    def test_frozen_x(self, ctx3):
        for n in (1, 2):
            res = nabla_torsion_tower(ctx3, TorsionTower(((X,),)), n)
            assert res.nabla == 1
            assert res.closed_form == 1  # lambda 1, mu 0

    def test_frozen_3x(self, ctx3):
        res = nabla_torsion_tower(ctx3, TorsionTower(((THREE * X,),)), 2)
        assert res.nabla == 7
        assert res.closed_form == 1 + 6

    def test_constant_finite_system(self, ctx3):
        # Lambda/(p, X): both transition maps are isomorphisms of a finite module
        tower = TorsionTower(((THREE,), (X,)))
        for n in (1, 2):
            assert nabla_torsion_tower(ctx3, tower, n).nabla == 0

    def test_integer_entries_become_constants(self, ctx3):
        tower = TorsionTower(((3,), (X,)))
        assert tower.columns == ((THREE,), (X,))
        assert all(isinstance(e, LambdaElement) for col in tower.columns for e in col)
        assert [nabla_torsion_tower(ctx3, tower, n).nabla for n in (1, 2)] == [0, 0]

    def test_not_torsion(self, ctx3):
        with pytest.raises(NotTorsion):
            nabla_torsion_tower(ctx3, TorsionTower(((X, ZERO),)), 1)


class TestMatrix:
    def test_frozen_diag_xx(self, ctx3):
        res = nabla_matrix_tower(ctx3, LambdaMatrix.diagonal(X, X), 1)
        assert res.nabla == 2
        assert res.closed_form == 2
        assert res.agrees is True

    def test_frozen_identity(self, ctx3):
        res = nabla_matrix_tower(ctx3, LambdaMatrix.identity(), 1)
        assert res.nabla == 0
        assert res.coker_length == 0

    def test_frozen_diag_phi1_phi1(self, ctx3):
        res = nabla_matrix_tower(ctx3, LambdaMatrix.diagonal(
            cyclotomic_phi(ctx3, 1), cyclotomic_phi(ctx3, 1)), 2)
        assert res.nabla == 4
        assert res.closed_form == 4
        assert res.agrees is True

    def test_singular_rejected(self, ctx3):
        with pytest.raises(SingularMatrix):
            nabla_matrix_tower(ctx3, LambdaMatrix(((X, X), (X, X))), 1)

    def test_phi_divides(self, ctx3):
        a = LambdaMatrix.diagonal(cyclotomic_phi(ctx3, 1), ONE)
        with pytest.raises(PhiDivides):
            nabla_matrix_tower(ctx3, a, 1)

    def test_no_closed_form_when_not_special(self, ctx3):
        # det = X^2 but no single column is divisible by X
        a = LambdaMatrix(((ONE, ONE), (X, X + X * X)))
        res = nabla_matrix_tower(ctx3, a, 1)
        assert res.closed_form is None
        assert res.agrees is None

    def test_coker_always_zero(self, ctx3, rng):
        for _ in range(5):
            a = LambdaMatrix(
                (
                    (LambdaElement((rng.randrange(1, 9), rng.randrange(3))), ZERO),
                    (ZERO, LambdaElement((rng.randrange(1, 9), rng.randrange(3)))),
                )
            )
            res = nabla_matrix_tower(ctx3, a, 1)
            assert res.coker_length == 0

    def test_precision_drill(self):
        lo = PrimeContext(3, precision=3, margin=8)
        a = LambdaMatrix.diagonal(LambdaElement((27,)), ONE)
        with pytest.raises(PrecisionUnstable) as exc:
            nabla_matrix_tower(lo, a, 1)
        assert (exc.value.precision, exc.value.level) == (3, 1)
        assert exc.value.finite_count < exc.value.expected_rank

    @pytest.mark.parametrize("p, n", [(3, 5), (7, 3), (5, 4), (3, 6)])
    def test_frontier_reach(self, p, n):
        ctx = PrimeContext(p)
        a, _ = rand_special_matrix(ctx, random.Random(f"reach-{p}-{n}"), n)
        assert nabla_matrix_tower(ctx, a, n).nabla == ord_eps(ctx, n, a.det)


class TestColeman:
    def test_frozen_identity_pair(self, ctx3):
        cd = ColemanData(col_plus=LambdaMatrix.diagonal(X, X),
                         col_minus=LambdaMatrix.identity())
        res = nabla_coleman_tower(ctx3, cd, 1)
        assert res.nabla == 0
        assert res.closed_form == 0
        assert res.agrees is True

    def test_frozen_level2(self, ctx3):
        cd = ColemanData(
            col_plus=LambdaMatrix.diagonal(X, X),
            col_minus=LambdaMatrix.diagonal(ONE, cyclotomic_phi(ctx3, 1)),
        )
        res = nabla_coleman_tower(ctx3, cd, 2)
        assert res.closed_form == 6
        assert res.nabla == 6
        assert res.agrees is True

    def test_rank_drop_level_rejected(self, ctx3):
        cd = ColemanData(
            col_plus=LambdaMatrix.diagonal(X, X),
            col_minus=LambdaMatrix.diagonal(ONE, cyclotomic_phi(ctx3, 1)),
        )
        with pytest.raises(PhiDivides):
            nabla_coleman_tower(ctx3, cd, 1)


class TestDispatchAndAdditivity:
    def test_dispatch_matches_direct_calls(self, ctx3):
        # additivity_check reads every summand as a torsion tower, which
        # gives the nabla of the wrapper of its kind
        assert nabla_torsion_tower(ctx3, CyclicTower(X), 1).nabla == nabla_cyclic(ctx3, X, 1).nabla
        a = LambdaMatrix.diagonal(X, X)
        assert nabla_torsion_tower(ctx3, MatrixTower(a), 1).nabla == nabla_matrix_tower(ctx3, a, 1).nabla

    def test_frozen_pair(self, ctx3):
        assert additivity_check(ctx3, CyclicTower(X), CyclicTower(THREE), 1)

    def test_zero_summand(self, ctx3):
        zero_module = TorsionTower(((ONE,),))
        assert additivity_check(ctx3, zero_module, CyclicTower(THREE), 1)

    def test_matrix_pair(self, ctx3):
        left = MatrixTower(LambdaMatrix.diagonal(X, X))
        assert additivity_check(ctx3, left, CyclicTower(X), 1)

    def test_direct_sum_shape(self, ctx3):
        joined = direct_sum(CyclicTower(X), MatrixTower(LambdaMatrix.diagonal(X, X)))
        cols = joined.columns
        assert len(cols[0]) == 3
        assert len(cols) == 3
        assert cols[0][0] == X and cols[0][1].is_zero and cols[0][2].is_zero


class TestSerialization:
    def test_result_json(self, ctx3):
        res = nabla_matrix_tower(ctx3, LambdaMatrix.diagonal(X, X), 1)
        d = res.to_json_dict()
        assert d["nabla"] == 2
        assert d["agrees"] is True
        assert set(d) >= {"n", "ker_length", "coker_length", "lower_rank", "nabla"}


def _two_span_nabla(ctx, k, cols, n):
    """The kernel as the nested quotient <relations, omega_{n-1} e_j> /
    <relations> inside Lambda_n^k, both spans read once at N."""
    ranks = [rank_at_eps(ctx, m, cols, k) for m in range(n + 1)]
    if ranks[n] < k:
        raise PhiDivides("relations drop rank")
    q_rank = sum(euler_phi_pk(ctx.p, m) * r for m, r in enumerate(ranks))
    inner = lambda_column_span(ctx, cols, n)
    w = omega_poly(ctx, n - 1)
    wcols = [tuple(w if i == j else ZERO for i in range(k)) for j in range(k)]
    wspan = lambda_column_span(ctx, wcols, n)
    outer = SpanPresentation(inner.ambient_rank, inner.columns + wspan.columns)
    readings = [finite_valuations(span, ctx.p, ctx.precision) for span in (inner, outer)]
    if any(len(vals) != q_rank for vals in readings):
        raise PrecisionUnstable("divisor reaches p^N")
    ker = sum(readings[0]) - sum(readings[1])
    lower = sum(euler_phi_pk(ctx.p, m) * (k - r) for m, r in enumerate(ranks[:n]))
    return NablaResult(n=n, ker_length=ker, coker_length=0, lower_rank=lower, nabla=ker + lower)


def _torsion_step(ctx, k, cols, n, minors):
    """_brute_nabla's result with no subject, as a torsion tower calls it;
    its ords are ord_eps of det A at every level, none when not square."""
    result, ords = _brute_nabla(ctx, k, cols, n, minors)
    assert ords == ([ord_eps(ctx, m, minors[0]) for m in range(n + 1)] if len(cols) == k else [])
    return result


def _outcome(fn, *args):
    try:
        return fn(*args)
    except (PhiDivides, PrecisionUnstable) as exc:
        return type(exc)


def test_torsion_difference_matches_nested_quotient():
    # seeded relation systems: Phi_m factors on rows and columns, p-power
    # columns and dependent columns, at precisions from 3 (many raises)
    # to 40; k p^n stays at most 81 to keep the sweep quick
    rng = random.Random(20261018)
    counts = {}
    shapes = {"square-infinite-below-n": 0, "non-square": 0}
    for _ in range(200):
        while True:
            p, n, k = rng.choice((3, 5, 7)), rng.randint(1, 3), rng.randint(1, 3)
            if k * p**n <= 81:
                break
        ctx = PrimeContext(p, precision=rng.choice((3, 4, 6, 10, 40)))
        c = rng.randint(max(1, k - 1), k + 1)

        def poly():
            f = LambdaElement([rng.randint(-5, 5) for _ in range(rng.randint(1, 3))])
            return f if f else ONE

        cols = [[poly() for _ in range(k)] for _ in range(c)]
        for _ in range(rng.randint(0, 2)):
            phi = cyclotomic_phi(ctx, rng.randint(0, n))
            if rng.random() < 0.5:
                j = rng.randrange(c)
                cols[j] = [e * phi for e in cols[j]]
            else:
                i = rng.randrange(k)
                for col in cols:
                    col[i] = col[i] * phi
        if rng.random() < 0.4:
            j = rng.randrange(c)
            power = LambdaElement.const(p ** rng.randint(1, 6))
            cols[j] = [e * power for e in cols[j]]
        if c > 1 and rng.random() < 0.3:
            s = LambdaElement((rng.randint(-3, 3), rng.randint(-3, 3)))
            cols[-1] = [a + s * b for a, b in zip(cols[0], cols[1])]
        cols = [tuple(col) for col in cols]
        minors = _minors(k, cols)
        got = _outcome(_torsion_step, ctx, k, cols, n, minors)
        assert got == _outcome(_two_span_nabla, ctx, k, cols, n), (p, n, k, ctx.precision, cols)
        kind = got if isinstance(got, type) else NablaResult
        counts[kind] = counts.get(kind, 0) + 1
        if kind is NablaResult and c != k:
            shapes["non-square"] += 1
        elif kind is NablaResult and any(rank_at_eps(ctx, m, cols, k) < k for m in range(n)):
            shapes["square-infinite-below-n"] += 1
    # every branch is exercised, and each source of a finished result's
    # rank profile: ord_eps of det A with rank_at_eps at its infinite
    # levels, and rank_at_eps alone for non-square relations
    assert set(counts) == {NablaResult, PhiDivides, PrecisionUnstable}
    assert min(shapes.values()) > 0, shapes


@pytest.fixture
def span_paths(monkeypatch):
    """Counts of the spans a _tors_reader builds, by path: banded spans,
    and reads of its Weierstrass spans (one per level and rung)."""
    calls = {"banded": 0, "weierstrass": 0}

    def spy(name, fn):
        def counted(*args):
            calls[name] += 1
            return fn(*args)
        return counted

    spans = kobayashi_rank._weierstrass_spans
    monkeypatch.setattr(kobayashi_rank, "lambda_column_span", spy("banded", lambda_column_span))
    monkeypatch.setattr(kobayashi_rank, "_weierstrass_spans", lambda *args: spy("weierstrass", spans(*args)))
    return calls


def _tower_draws(rng, p, n):
    """(name, k, relation columns) of every tower kind at one (p, n)."""
    ctx = PrimeContext(p)
    f, _ = rand_cyclic_poly(ctx, rng, n)
    yield "cyclic", 1, ((f,),)
    g = LambdaElement([p * rng.randint(-2, 2) for _ in range(rng.randint(0, 2))] + [1])
    yield "torsion-1", 1, ((g * p ** rng.randint(0, 1) * cyclotomic_phi(ctx, rng.randint(0, n)),),)
    yield "torsion-2", 2, _rand_matrix(rng, 2, bound=3).columns
    cols = direct_sum(_rand_summand(ctx, rng, n), _rand_summand(ctx, rng, n)).columns
    yield "direct-sum", len(cols[0]), cols
    yield "special", 2, rand_special_matrix(ctx, rng, n, max_deg=2)[0].columns
    if p ** n <= 27:
        for kind in COLEMAN_KINDS:
            yield f"coleman-{kind}", 2, assemble_fn(ctx, rand_coleman_data(ctx, rng, kind), n).columns


def test_weierstrass_reading_matches_banded(span_paths):
    # at every level m <= n the Weierstrass reading gives the banded
    # reading's len tors M_m, and mu > 0 draws and levels with
    # lambda >= p^m stay banded
    rng = random.Random("weierstrass-differential")
    seen = {"mu>0": 0, "lambda>=p^m": 0, "weierstrass": 0}
    for p, n in ((3, 1), (3, 2), (3, 3), (5, 1), (5, 2), (7, 1), (7, 2)):
        ctx = PrimeContext(p)
        for _ in range(2):
            for name, k, cols in _tower_draws(rng, p, n):
                minors = _minors(k, cols)
                minor = _weierstrass_minor(ctx, minors)
                read = _tors_reader(ctx, k, cols, minors)
                for m in range(n + 1):
                    ranks = [rank_at_eps(ctx, j, cols, k) for j in range(m + 1)]
                    q_rank = sum(euler_phi_pk(p, j) * r for j, r in enumerate(ranks))
                    banded = sum(certified_valuations(ctx, lambda_column_span(ctx, cols, m), q_rank))
                    before = dict(span_paths)
                    assert read(m, q_rank) == banded, (name, p, n, m)
                    on_p = minor is not None and minor[0] < p**m
                    assert span_paths["weierstrass"] - before["weierstrass"] == on_p
                    assert span_paths["banded"] - before["banded"] == (not on_p)
                    kind = "weierstrass" if on_p else "mu>0" if minor is None else "lambda>=p^m"
                    seen[kind] += 1
    assert min(seen.values()) > 0, seen


def test_weierstrass_span_matches_one_level_oracle():
    # the shared construction (one lift continued from rung to rung, P
    # and the generator columns built once per rung, omega reduced once
    # per span) gives the one-level, one-rung oracle's lift and
    # presentation, column for column, at both levels of every step
    rng = random.Random("weierstrass-oracle")
    count = 0
    for p, n in ((3, 1), (3, 2), (3, 3), (5, 1), (5, 2), (7, 1), (7, 2)):
        ctx = PrimeContext(p)
        for _ in range(2):
            for name, k, cols in _tower_draws(rng, p, n):
                if (minor := _weierstrass_minor(ctx, _minors(k, cols))) is None:
                    continue
                d = minor[1]
                shared = zp_modules._weierstrass_spans(ctx, cols, d)
                for e in (8, 16):
                    want = weierstrass_oracle.weierstrass_lift(d, p, e)
                    assert LambdaElement(zp_modules._lifter(d, p)(e)) == want
                    for m in (n, n - 1):
                        want = weierstrass_oracle.weierstrass_span(ctx, cols, d, m, e)
                        assert shared(m, e) == want, (name, p, n, m, e)
                        count += 1
    assert count > 400


def test_one_lift_per_nabla_and_rung(monkeypatch):
    # A = [[X, 0], [3^9, X]]: M_1 and M_2 both read on the Weierstrass
    # span of det A = X^2, and each climbs to the rung e = 16; the lift
    # runs once per rung (and continues its digits), not once per level
    lifts, reads, digits = [], [], []
    lifter, spans, reduce = zp_modules._lifter, kobayashi_rank._weierstrass_spans, zp_modules._reduce
    a = LambdaMatrix(((X, ZERO), (LambdaElement.const(3**9), X)))

    def counted_lifter(d, p):
        lift = lifter(d, p)
        return lambda e: lifts.append(e) or lift(e)

    def counted_spans(*args):
        read = spans(*args)
        return lambda level, e: reads.append((level, e)) or read(level, e)

    def counted_reduce(coeffs, *args):
        digits.append(coeffs is a.det.coeffs)
        return reduce(coeffs, *args)

    monkeypatch.setattr(zp_modules, "_lifter", counted_lifter)
    monkeypatch.setattr(zp_modules, "_reduce", counted_reduce)
    monkeypatch.setattr(kobayashi_rank, "_weierstrass_spans", counted_spans)
    res = nabla_matrix_tower(PrimeContext(3), a, 2)
    assert res.agrees is True and res.nabla == 2
    assert reads == [(2, 8), (2, 16), (1, 8), (1, 16)]
    assert lifts == [8, 16]
    assert sum(digits) == 15  # the digits of P mod 3^16, each lifted once


def test_weierstrass_minor_mu():
    ctx = PrimeContext(3)
    assert _weierstrass_minor(ctx, _minors(2, LambdaMatrix.diagonal(THREE * 9, ONE).columns)) is None
    assert _weierstrass_minor(ctx, _minors(1, ((THREE * X,), (X * X + THREE,)))) == (2, X * X + THREE)
    assert _weierstrass_minor(ctx, _minors(1, ((X,), (ONE + X,))))[0] == 0  # the least lambda


def test_unit_minor_reads_zero_lengths(span_paths):
    # a unit minor (lambda = 0) presents M_m on no rows at all
    ctx = PrimeContext(5)
    cols = ((ONE + X, 3 * X), (X, 2 + X * X))
    assert _weierstrass_minor(ctx, _minors(2, cols))[0] == 0
    read = _tors_reader(ctx, 2, cols, _minors(2, cols))
    assert [read(m, 2 * 5**m) for m in range(3)] == [0, 0, 0]
    assert span_paths == {"banded": 0, "weierstrass": 3}
    assert nabla_torsion_tower(ctx, TorsionTower(cols), 2).nabla == 0


def test_precision_drill_weierstrass_path(span_paths):
    # f = X + 81: M_1 = Z_3/3^5, so at N = 3 both presentations refuse
    # level 1; the counts differ by k (p^m - lambda) = 2 and nothing else
    lo = PrimeContext(3, precision=3)
    f = X + 81
    with pytest.raises(PrecisionUnstable) as exc:
        nabla_cyclic(lo, f, 1)
    assert span_paths["weierstrass"] >= 1 and span_paths["banded"] == 0
    assert (exc.value.precision, exc.value.level) == (3, 1)
    assert (exc.value.finite_count, exc.value.expected_rank) == (0, 1)
    with pytest.raises(PrecisionUnstable) as banded:
        certified_valuations(lo, lambda_column_span(lo, ((f,),), 1), 3, 1)
    assert (banded.value.finite_count, banded.value.expected_rank) == (2, 3)
    assert banded.value.level == 1


def test_norm_reading_matches_snf():
    # square relations with Phi_j and p-power factors on a column, at
    # precisions from 3 to 40: wherever the norm reading answers at a
    # finite level, the SNF reading certifies the same length; where the
    # exponent bound reaches N it declines, and the SNF reading may raise
    rng = random.Random("norm-differential")
    counts = {"norm": 0, "fallback": 0, "fallback-raise": 0}
    for p, n in ((3, 1), (3, 2), (3, 3), (5, 1), (5, 2), (7, 1), (7, 2)):
        for _ in range(5):
            for name, k, cols in _tower_draws(rng, p, n):
                ctx = PrimeContext(p, precision=rng.choice((3, 4, 6, 10, 40)))
                cols = [list(col) for col in cols]
                if rng.random() < 0.5:
                    factor = LambdaElement.const(p ** rng.randint(1, 6))
                    if rng.random() < 0.4:
                        factor = factor * cyclotomic_phi(ctx, rng.randint(0, n))
                    j = rng.randrange(k)
                    cols[j] = [e * factor for e in cols[j]]
                cols = tuple(map(tuple, cols))
                minors = _minors(k, cols)
                ranks = [rank_at_eps(ctx, m, cols, k) for m in range(n + 1)]
                for m in range(n + 1):
                    if any(r < k for r in ranks[: m + 1]):
                        break  # M_m and every later level are infinite
                    ords = [ord_eps(ctx, j, minors[0]) for j in range(m + 1)]
                    norm = _norm_length(ctx, ords, _cyclic(p, k, cols))
                    snf = _outcome(_tors_reader(ctx, k, cols, minors), m, k * p**m)
                    where = (name, p, n, m, ctx.precision, cols)
                    if norm is not None:
                        assert snf == norm, where
                        counts["norm"] += 1
                    else:
                        counts["fallback"] += 1
                        counts["fallback-raise"] += snf is PrecisionUnstable
    assert min(counts.values()) > 0, counts


def _unit_coleman(ctx, rng, n):
    """Generic Coleman data from dense 2x2 matrices with unit det(0), as
    the frontier benchmark draws it: every determinant in the tower is a
    unit at each eps_m, and the closed form applies at step n."""
    def dense(deg):
        while True:
            a = LambdaMatrix(tuple(
                tuple(LambdaElement([rng.choice((-4, -3, -2, -1, 1, 2, 3, 4)) for _ in range(deg + 1)])
                      for _ in range(2))
                for _ in range(2)))
            if a.det.coeffs and a.det.coeffs[0] % ctx.p:
                return a

    while True:
        cd = ColemanData(dense(3).scaled(X), dense(4)).validate()
        ref = cd.col_minus.det if n % 2 else cd.col_plus.det
        if ord_eps(ctx, n, ref) != INFINITE and not assemble_fn(ctx, cd, n).det.divisible_by(cyclotomic_phi(ctx, n)):
            return cd


@pytest.mark.parametrize("p, n", [(3, 5), (7, 3)])
def test_unit_coleman_reach_without_snf(monkeypatch, p, n):
    # every level of a unit Coleman tower is finite, so both readings come
    # from the norm of det F_n, with no SNF at all
    calls = []
    snf = zp_modules._snf
    monkeypatch.setattr(zp_modules, "_snf", lambda *args: calls.append(args) or snf(*args))
    ctx = PrimeContext(p)
    cd = _unit_coleman(ctx, random.Random(f"unit-coleman-{p}-{n}"), n)
    res = nabla_coleman_tower(ctx, cd, n)
    assert res.agrees is True
    assert calls == []
    # at the least N above the exponent bound of M_n, far below its length,
    # the norm still answers both levels, with the N = 40 result
    det = assemble_fn(ctx, cd, n).det
    ords = [ord_eps(ctx, j, det) for j in range(n + 1)]
    low = n + max(-(-o // euler_phi_pk(p, j)) for j, o in enumerate(ords)) + 1
    assert sum(ords) > 10 * low
    assert nabla_coleman_tower(PrimeContext(p, precision=low), cd, n) == res
    assert calls == []


@pytest.fixture
def profile_calls(monkeypatch):
    """The levels at which kobayashi_rank calls rank_at_eps, and how often
    it builds a minor with _poly_det."""
    calls = {"rank_at_eps": [], "_poly_det": 0}
    rank, det = kobayashi_rank.rank_at_eps, kobayashi_rank._poly_det

    def counted_rank(ctx, m, columns, k):
        calls["rank_at_eps"].append(m)
        return rank(ctx, m, columns, k)

    def counted_det(rows):
        calls["_poly_det"] += 1
        return det(rows)

    monkeypatch.setattr(kobayashi_rank, "rank_at_eps", counted_rank)
    monkeypatch.setattr(kobayashi_rank, "_poly_det", counted_det)
    return calls


def test_unit_det_towers_need_no_rank_and_no_minor(ctx3, profile_calls):
    # det A = 1 - 2X is a unit: ord_{eps_m}(det A) = 0 at every level, so
    # the rank profile is full with no rank_at_eps, and det A is the
    # matrix's own
    a = LambdaMatrix(((ONE + X, THREE), (X, ONE)))
    assert nabla_matrix_tower(ctx3, a, 3).nabla == 0
    assert nabla_coleman_tower(ctx3, _unit_coleman(ctx3, random.Random("unit-coleman-3-3"), 3), 3).agrees is True
    assert profile_calls == {"rank_at_eps": [], "_poly_det": 0}


def test_torsion_tower_builds_its_minor_once(ctx3, profile_calls):
    # one minor serves the NotTorsion check, the rank profile, the
    # Weierstrass minor and the closed form
    res = nabla_torsion_tower(ctx3, TorsionTower(((ONE + X, 3 * X), (X, 2 + X * X))), 2)
    assert res.agrees is True
    assert profile_calls["_poly_det"] == 1


def test_rank_at_eps_only_where_det_vanishes(ctx3, profile_calls):
    # det A = X (1 + X): Phi_0 divides it, no other Phi_m does; A(0) has
    # rank 1 mod 3, so M is cyclic and r_0 = k - 1 needs no rank_at_eps
    res = nabla_matrix_tower(ctx3, LambdaMatrix.diagonal(X, ONE + X), 2)
    assert (res.lower_rank, res.nabla) == (1, 1)
    assert profile_calls == {"rank_at_eps": [], "_poly_det": 0}
    # det A = X^2 (1 + X) with A(0) = 0: not cyclic, so r_0 comes from
    # rank_at_eps, at level 0 only
    res = nabla_matrix_tower(ctx3, LambdaMatrix.diagonal(X, X * (ONE + X)), 2)
    assert (res.lower_rank, res.nabla) == (2, 2)
    assert profile_calls == {"rank_at_eps": [0], "_poly_det": 0}


_CAP = "p^n = 3^10 exceeds the explicit-construction bound 20000; use degree bookkeeping for large levels"
_LO = PrimeContext(3, precision=3)
_P5 = LambdaElement.const(3**5)
_PHI1 = cyclotomic_phi(_LO, 1)
_NOT_TORSION = TorsionTower(((X, ZERO),))
_SINGULAR = LambdaMatrix(((X, X), (X, X)))
_DEGENERATE = ColemanData(LambdaMatrix.identity(), LambdaMatrix.identity())
_PHI1_PAIR = ColemanData(LambdaMatrix.diagonal(X, X), LambdaMatrix.diagonal(ONE, _PHI1))


@pytest.mark.parametrize("fn, arg, n, alone, second, first, message", [
    # each input has two faults; ``alone`` is the input with only the
    # second one, which raises ``second``
    (nabla_cyclic, ZERO, 0, (ZERO, 1), ZeroElement, InvalidContext, "tower steps start at n = 1, got 0"),
    (nabla_cyclic, ZERO, 10, (X, 10), InvalidContext, ZeroElement, "cyclic tower needs f != 0"),
    (nabla_cyclic, _P5, 10, (_P5, 1), PrecisionUnstable, InvalidContext, _CAP),
    (nabla_cyclic, _PHI1 * _P5, 1, (_P5, 1), PrecisionUnstable, PhiDivides,
     "Phi_1 divides f; step kernel is infinite"),
    (nabla_torsion_tower, _NOT_TORSION, 0, (_NOT_TORSION, 1), NotTorsion, InvalidContext,
     "tower steps start at n = 1, got 0"),
    (nabla_torsion_tower, _NOT_TORSION, 10, (TorsionTower(((X,),)), 10), InvalidContext, NotTorsion,
     "relations do not have full rank over Frac(Lambda)"),
    (nabla_torsion_tower, TorsionTower(((ZERO,),)), 10, (TorsionTower(((X,),)), 10), InvalidContext, NotTorsion,
     "relations do not have full rank over Frac(Lambda)"),
    (nabla_torsion_tower, TorsionTower(((_P5,),)), 10, (TorsionTower(((_P5,),)), 1), PrecisionUnstable,
     InvalidContext, _CAP),
    (nabla_torsion_tower, TorsionTower(((_PHI1 * _P5, ZERO), (ZERO, _P5))), 1,
     (TorsionTower(((_P5, ZERO), (ZERO, _P5))), 1), PrecisionUnstable, PhiDivides,
     "relations drop rank at eps_1; step kernel is infinite"),
    (nabla_torsion_tower, TorsionTower(((_PHI1 * _P5,), (_PHI1 * X,))), 1,
     (TorsionTower(((_P5,), (_P5 * X,))), 1), PrecisionUnstable, PhiDivides,
     "relations drop rank at eps_1; step kernel is infinite"),
    (nabla_matrix_tower, _SINGULAR, 0, (_SINGULAR, 1), SingularMatrix, InvalidContext,
     "tower steps start at n = 1, got 0"),
    (nabla_matrix_tower, _SINGULAR, 10, (LambdaMatrix.diagonal(X, X), 10), InvalidContext, SingularMatrix,
     "det A = 0: the tower is not torsion"),
    (nabla_matrix_tower, LambdaMatrix.diagonal(_PHI1 * _P5, _P5), 1, (LambdaMatrix.diagonal(_P5, _P5), 1),
     PrecisionUnstable, PhiDivides, "Phi_1 divides det A; step kernel is infinite"),
    (nabla_coleman_tower, _DEGENERATE, 0, (_DEGENERATE, 1), DegenerateColeman, InvalidContext,
     "tower steps start at n = 1, got 0"),
    (nabla_coleman_tower, _DEGENERATE, 10, (_PHI1_PAIR, 10), InvalidContext, DegenerateColeman,
     "col_plus entries must be divisible by X"),
    (nabla_coleman_tower, ColemanData(_PHI1_PAIR.col_plus.scaled(_P5), _PHI1_PAIR.col_minus.scaled(_P5)), 1,
     (ColemanData(LambdaMatrix.diagonal(X, X).scaled(_P5), LambdaMatrix.diagonal(_P5, _P5)), 1),
     PrecisionUnstable, PhiDivides, "Phi_1 divides det F_1; step kernel is infinite"),
])
def test_refusal_order(fn, arg, n, alone, second, first, message):
    with pytest.raises(second):
        fn(_LO, *alone)
    with pytest.raises(first) as exc:
        fn(_LO, arg, n)
    assert type(exc.value) is first and str(exc.value) == message


_PHI2 = cyclotomic_phi(_LO, 2)


@pytest.mark.parametrize("fn, arg, subject, relations", [
    (nabla_cyclic, X * _PHI2, "f", lambda ctx, f: ((f,),)),
    # A(0) = 0 mod 3 and Phi_1 | det A below n: a non-cyclic M, which
    # reads rank_at_eps at level 1 once the guard passes
    (nabla_matrix_tower, LambdaMatrix.diagonal(_PHI1 * _PHI2, _PHI1), "det A", lambda ctx, a: a.columns),
    # F_2 collapses to col_plus at eps_2 and to col_minus at eps_1
    (nabla_coleman_tower, ColemanData(LambdaMatrix.diagonal(X, X * _PHI2), LambdaMatrix.diagonal(ONE, _PHI1)),
     "det F_2", lambda ctx, cd: assemble_fn(ctx, cd, 2).columns),
])
def test_phi_guard_runs_before_the_step(monkeypatch, fn, arg, subject, relations):
    # a tower naming its determinant is refused as soon as Phi_n divides
    # it: no cyclicity test, rank profile or span reader has run; a
    # torsion tower on the same relations names none, and is refused once
    # its rank profile drops at eps_n
    calls = []
    for name in ("_cyclic", "rank_at_eps", "_tors_reader"):
        def spy(*args, name=name, fn=getattr(kobayashi_rank, name)):
            calls.append(name)
            return fn(*args)
        monkeypatch.setattr(kobayashi_rank, name, spy)
    ctx = PrimeContext(3)
    with pytest.raises(PhiDivides) as exc:
        fn(ctx, arg, 2)
    assert str(exc.value) == f"Phi_2 divides {subject}; step kernel is infinite"
    assert calls == []
    with pytest.raises(PhiDivides) as exc:
        nabla_torsion_tower(ctx, TorsionTower(relations(ctx, arg)), 2)
    assert str(exc.value) == "relations drop rank at eps_2; step kernel is infinite"
    assert "_cyclic" in calls


def test_parity_det_survives_the_guard():
    # nabla_coleman_tower attaches its closed form without asking whether
    # det Col^opp vanishes at eps_n: F_n(eps_n) is a nonzero multiple of
    # Col^opp(eps_n), so Phi_n divides det F_n exactly when it divides
    # det Col^opp, and the PhiDivides guard refuses the first
    rng = random.Random("parity-det")
    seen = set()
    for p in (3, 5):
        ctx = PrimeContext(p)
        for kind in COLEMAN_KINDS:
            for _ in range(3):
                cd = rand_coleman_data(ctx, rng, kind)
                for n in (1, 2, 3):
                    vanishes = ord_eps(ctx, n, special_matrices.parity_reference(cd, n).det) == INFINITE
                    assert (ord_eps(ctx, n, assemble_fn(ctx, cd, n).det) == INFINITE) is vanishes, (p, kind, n)
                    seen.add(vanishes)
    assert seen == {True, False}


def _int_det(rows) -> int:
    return 1 if not rows else sum(
        (-1) ** j * rows[0][j] * _int_det([row[:j] + row[j + 1:] for row in rows[1:]]) for j in range(len(rows))
    )


def test_cyclic_matches_minors_mod_p():
    # _cyclic reads rank A(0) mod p >= k - 1 by elimination; some
    # (k-1)-minor of A(0) prime to p says the same
    rng = random.Random("cyclic-minors")
    seen = set()
    for p in (3, 5):
        for k in (1, 2, 3):
            for _ in range(40):
                cols = tuple(
                    tuple(LambdaElement([rng.choice((0, 0, 1, p, p - 1, 2 * p)), rng.randint(-2, 2)]) for _ in range(k))
                    for _ in range(k)
                )
                a0 = [[c[i].coeffs[0] if c[i] else 0 for c in cols] for i in range(k)]
                want = any(
                    _int_det([[a0[i][j] for j in picked] for i in kept]) % p
                    for kept in itertools.combinations(range(k), k - 1)
                    for picked in itertools.combinations(range(k), k - 1)
                )
                assert _cyclic(p, k, cols) is want, (p, cols)
                seen.add((k, want))
    assert seen == {(1, True), (2, True), (2, False), (3, True), (3, False)}


def _cyclic_by_elimination(p, k, rel_cols) -> bool:
    """rank A(0) mod p >= k - 1, read by Gaussian elimination over F_p on
    the constant terms, as _cyclic first read it."""
    rows = [[c[i].coeffs[0] % p if c[i] else 0 for c in rel_cols] for i in range(k)]
    for j in range(k):
        if (pivot := next((r for r in rows if r[j]), None)) is None:
            continue
        rows.remove(pivot)  # each pivot row leaves: k - len(rows) is the rank so far
        inv = pow(pivot[j], -1, p)
        rows = [[(x - r[j] * inv * y) % p for x, y in zip(r, pivot)] for r in rows]
    return len(rows) <= 1


def test_cyclic_matches_elimination():
    # the minor-rank reading over F_p gives elimination's verdict on every
    # square relation system of the tower draws, block sums of sizes 3
    # and 4 included, and on the same systems times p
    rng = random.Random("cyclic-elimination")
    seen = {}
    for p, n in ((3, 1), (3, 2), (3, 3), (5, 1), (5, 2), (7, 1), (7, 2)):
        for _ in range(6):
            for name, k, cols in _tower_draws(rng, p, n):
                if len(cols) != k:
                    continue
                for scaled in (cols, tuple(tuple(e * p for e in col[:1]) + col[1:] for col in cols)):
                    want = _cyclic_by_elimination(p, k, scaled)
                    assert _cyclic(p, k, scaled) is want, (name, p, scaled)
                    seen[k, want] = seen.get((k, want), 0) + 1
    assert set(seen) == {(1, True), (2, True), (2, False), (3, True), (3, False), (4, True), (4, False)}, seen


def test_cyclicity_is_read_only_at_an_infinite_level(monkeypatch, ctx3):
    # _brute_nabla uses cyclicity only where some ord_{eps_m}(det A) is
    # infinite, so a tower whose det vanishes at no level <= n never asks
    calls = []
    cyclic = kobayashi_rank._cyclic
    monkeypatch.setattr(kobayashi_rank, "_cyclic", lambda *args: calls.append(args) or cyclic(*args))
    rng = random.Random("cyclic-only-where-used")
    checked = 0
    for p, n in ((3, 1), (3, 2), (3, 3), (5, 2)):
        ctx = PrimeContext(p)
        for name, k, cols in _tower_draws(rng, p, n):
            if len(cols) != k or not (det := _minors(k, cols)[0]):
                continue
            finite = all(ord_eps(ctx, m, det) != INFINITE for m in range(n + 1))
            before = len(calls)
            _outcome(nabla_torsion_tower, ctx, TorsionTower(cols), n)
            assert (len(calls) > before) is not finite, (name, p, n)
            checked += finite
    assert checked > 0
    calls.clear()
    assert nabla_coleman_tower(ctx3, _unit_coleman(ctx3, random.Random("unit-coleman-3-3"), 3), 3).agrees is True
    assert nabla_matrix_tower(ctx3, LambdaMatrix(((ONE + X, THREE), (X, ONE))), 3).nabla == 0
    assert calls == []


def test_every_rank_is_one_minor_rank_reading(monkeypatch, ctx3):
    # cyclicity over F_p, the rank profile at eps_m, the kernel-killing
    # blocks' rank test and proportionality all read _minor_rank
    calls = []
    for module in (kobayashi_rank, cyclo_eval):
        def spy(columns, k, reduce, module=module, fn=module._minor_rank):
            calls.append(module.__name__.rsplit(".", 1)[1])
            return fn(columns, k, reduce)
        monkeypatch.setattr(module, "_minor_rank", spy)
    a = LambdaMatrix.diagonal(X, X * (ONE + X))
    assert _cyclic(3, 2, a.columns) is False and calls == ["kobayashi_rank"]
    calls.clear()
    assert rank_at_eps(ctx3, 0, a.columns, 2) == 0 and calls == ["cyclo_eval"]
    calls.clear()
    assert nabla_matrix_tower(ctx3, a, 2).nabla == 2
    assert calls == ["kobayashi_rank", "cyclo_eval"]  # A(0) = 0: not cyclic, so r_0 is read at eps_0
    calls.clear()
    cd = ColemanData(LambdaMatrix.diagonal(X, X), LambdaMatrix.diagonal(ONE, cyclotomic_phi(ctx3, 1)))
    assert special_matrices._kernel_killer(ctx3, cd, 1) is not None and calls == ["cyclo_eval"]
    calls.clear()
    f = assemble_fn(ctx3, cd, 2)
    assert cyclo_eval.matrices_proportional_at_eps(ctx3, 1, f, cd.col_minus)
    assert calls == ["cyclo_eval"] * 3


def _verdict_draws():
    """(ctx, n, A): special draws, Coleman F_n before and after the
    good-basis move, and draws where Phi_m divides det A but (as a rule)
    no column does."""
    rng = random.Random("special-verdict")
    for p, n in ((3, 1), (3, 2), (3, 3), (5, 1), (5, 2), (7, 2)):
        ctx = PrimeContext(p)
        draws = [rand_special_matrix(ctx, rng, n, max_deg=2)[0] for _ in range(6)]
        if p ** n <= 27:
            for kind in COLEMAN_KINDS:
                cd = rand_coleman_data(ctx, rng, kind)
                f = assemble_fn(ctx, cd, n)
                draws += [f, f @ good_basis_transform(ctx, cd, n)]
        for _ in range(6):
            a = _rand_matrix(rng, 2, bound=3)
            phi = cyclotomic_phi(ctx, rng.randint(0, n))
            draws.append(LambdaMatrix((tuple(e * phi for e in a.rows[0]), a.rows[1])))
        for a in draws:
            yield ctx, n, a


def test_special_verdict_matches_is_special():
    # the towers' verdict, read from ords, equals is_special's
    seen = {True: 0, False: 0}
    for ctx, n, a in _verdict_draws():
        ords = [ord_eps(ctx, m, a.det) for m in range(n + 1)]
        verdict = is_special(ctx, a, n).verdict
        assert special_matrices._special(ctx, a, ords) is verdict, (ctx.p, n, a)
        seen[verdict] += 1
    assert min(seen.values()) > 0, seen


def _special_by_division(ctx, a, n):
    """is_special's per-level report and factor_bd's (B, D) (None when A
    is not special), read with divisible_by(cyclotomic_phi(...))."""
    levels, d = [], [ONE, ONE]
    for m in range(n + 1):
        phi = cyclotomic_phi(ctx, m)
        det_div = a.det.divisible_by(phi)
        cols = [a.rows[0][j].divisible_by(phi) and a.rows[1][j].divisible_by(phi) for j in (0, 1)]
        levels.append(SpecialLevel(m=m, i_m=sum(cols), det_divisible=det_div, ok=not det_div or any(cols)))
        if m < n:
            d = [dj * phi if c else dj for dj, c in zip(d, cols)]
    if not all(lv.ok for lv in levels):
        return tuple(levels), None
    b = [[a.rows[i][j].exact_div(d[j]) for j in (0, 1)] for i in (0, 1)]
    return tuple(levels), BDFactorization(b=LambdaMatrix(b), d=LambdaMatrix.diagonal(*d))


_GOLDEN_SPECIAL = (
    ("[[X, 1], [X, X+1]]", 1),
    ("[[X^2+3X+3, X], [0, X]]", 2),
    ("[[X^2+3X+3, 1], [0, 1]]", 2),
    ("diag(X, X)", 1),
    ("diag(X, X)", 3),
)


def test_special_reading_matches_division():
    # is_special's full report and factor_bd's (B, D), both from one
    # column reading per level, equal a reading by division on the
    # verdict draws and the golden examples
    ctx3 = PrimeContext(3)
    draws = [*_verdict_draws(), *((ctx3, n, parse_matrix_arg(a)) for a, n in _GOLDEN_SPECIAL)]
    counts = set()
    for ctx, n, a in draws:
        levels, fact = _special_by_division(ctx, a, n)
        report = is_special(ctx, a, n)
        assert report.per_level == levels and report.verdict is (fact is not None), (ctx.p, n, a)
        if fact is None:
            with pytest.raises(NotSpecial) as exc:
                factor_bd(ctx, a, n)
            assert str(exc.value) == f"column divisibility fails at levels {[lv.m for lv in levels if not lv.ok]}"
        else:
            assert factor_bd(ctx, a, n) == fact, (ctx.p, n, a)
        # a column vanishing at eps_m forces Phi_m | det A, so columns need
        # reading only at the levels where the det vanishes
        assert all(lv.i_m == 0 for lv in report.per_level if not lv.det_divisible), (ctx.p, n, a)
        counts.update(lv.i_m for lv in levels)
    assert counts == {0, 1, 2}


@pytest.fixture
def tower_calls(monkeypatch):
    """Calls of is_special, of kobayashi_rank's ord_eps and of
    cyclo_eval._residue (one per ord_eps, the rest test column entries)."""
    calls = {"is_special": 0, "ord_eps": 0, "point": 0}

    def spy(name, fn):
        def counted(*args):
            calls[name] += 1
            return fn(*args)
        return counted

    monkeypatch.setattr(special_matrices, "is_special", spy("is_special", special_matrices.is_special))
    monkeypatch.setattr(kobayashi_rank, "ord_eps", spy("ord_eps", kobayashi_rank.ord_eps))
    monkeypatch.setattr(cyclo_eval, "_residue", spy("point", cyclo_eval._residue))
    return calls


def test_towers_read_one_valuation_list(tower_calls):
    # a matrix nabla evaluates det A once per level; a Coleman nabla adds
    # the parity det of its closed form; neither asks is_special, and a
    # unit-det tower tests no column
    assert not hasattr(kobayashi_rank, "is_special")
    ctx = PrimeContext(3)

    def entries_tested(before):
        return tower_calls["point"] - before["point"] - (tower_calls["ord_eps"] - before["ord_eps"])

    for n in (1, 2, 3):
        a, _ = rand_special_matrix(ctx, random.Random(f"one-list-{n}"), n)
        cd = _unit_coleman(ctx, random.Random(f"unit-coleman-3-{n}"), n)
        before = dict(tower_calls)
        assert nabla_matrix_tower(ctx, a, n).agrees is True
        assert tower_calls["ord_eps"] - before["ord_eps"] == n + 1
        before = dict(tower_calls)
        assert nabla_coleman_tower(ctx, cd, n).agrees is True
        assert tower_calls["ord_eps"] - before["ord_eps"] == n + 2
        assert entries_tested(before) == 0
    before = dict(tower_calls)
    assert nabla_matrix_tower(ctx, LambdaMatrix(((ONE + X, THREE), (X, ONE))), 3).nabla == 0
    assert entries_tested(before) == 0
    # Phi_0 divides det diag(X, 1 + X) and the column (X, 0) vanishes: the
    # verdict reads its two entries and stops, never reading (0, 1 + X)
    before = dict(tower_calls)
    assert nabla_matrix_tower(ctx, LambdaMatrix.diagonal(X, ONE + X), 1).agrees is True
    assert entries_tested(before) == 2
    assert tower_calls["is_special"] == 0


def _cyclic_draws(rng, p, n):
    """(name, k, relation columns) of square relations with a cyclic
    module, many with Phi_i | det A at levels below n."""
    ctx = PrimeContext(p)
    for name, k, cols in _tower_draws(rng, p, n):
        if len(cols) == k and _cyclic(p, k, cols):
            yield name, k, cols

    def phis():
        g = ONE
        for i in range(n):
            g = g * cyclotomic_phi(ctx, i) ** rng.choice((0, 0, 1, 2))
        return g

    # Lambda/(f): mu <= 2 and Phi_i factors of multiplicity up to 2
    yield "cyclic-phi", 1, ((_rand_unit_poly(rng, p, 3, bound=4) * p ** rng.randint(0, 2) * phis(),),)
    # 2x2 with a unit entry, Phi_i factors on the other row or column
    a = [list(row) for row in _rand_matrix(rng, 2, bound=3).rows]
    a[0][0] = _rand_unit_poly(rng, p, 2, bound=4)
    g = phis()
    if rng.random() < 0.5:
        a[1] = [e * g for e in a[1]]
    else:
        a[0][1], a[1][1] = a[0][1] * g, a[1][1] * g
    if (a := LambdaMatrix(tuple(map(tuple, a)))).det:
        yield "unit-entry", 2, a.columns
    # 3x3 torsion whose A(0) mod p has rank 2
    while True:
        cols = [[_rand_poly(rng, 1, bound=3, nonzero=False) for _ in range(3)] for _ in range(2)]
        third = [X * _rand_poly(rng, 1, bound=3) + p * rng.randint(-2, 2) for _ in range(3)]
        g = phis()
        cols = tuple(map(tuple, cols + [[e * g for e in third]]))
        if _cyclic(p, 3, cols) and _minors(3, cols)[0]:
            yield "torsion-3", 3, cols
            return


def test_cyclic_reading_matches_banded():
    # square relations with a cyclic module: wherever the reading answers
    # at level m, infinite levels below m included, the certified banded
    # SNF gives the same length; where its exponent bound reaches N it
    # declines; and the nabla, refusals included, equals the two-span one
    rng = random.Random("cyclic-differential")
    counts = {"answered": 0, "answered-infinite": 0, "declined": 0, "declined-raise": 0, "nabla-raise": 0}
    names = set()
    for p, n in ((3, 1), (3, 2), (3, 3), (5, 1), (5, 2), (7, 1), (7, 2)):
        for _ in range(3):
            for name, k, cols in _cyclic_draws(rng, p, n):
                ctx = PrimeContext(p, precision=rng.choice((3, 4, 6, 10, 40)))
                names.add(name)
                det = _minors(k, cols)[0]
                ords = [ord_eps(ctx, m, det) for m in range(n + 1)]
                ranks = [rank_at_eps(ctx, m, cols, k) for m in range(n + 1)]
                for m in range(n + 1):
                    q_rank = sum(euler_phi_pk(p, j) * r for j, r in enumerate(ranks[: m + 1]))
                    banded = _outcome(lambda: sum(certified_valuations(
                        ctx, lambda_column_span(ctx, cols, m), q_rank, m)))
                    read = _norm_length(ctx, ords[: m + 1], True)
                    if read is None:
                        counts["declined"] += 1
                        counts["declined-raise"] += banded is PrecisionUnstable
                    else:
                        assert read == banded, (name, p, n, m, ctx.precision, cols)
                        counts["answered"] += 1
                        counts["answered-infinite"] += INFINITE in ords[: m + 1]
                if ords[n] != INFINITE:
                    got = _outcome(_torsion_step, ctx, k, cols, n, [det])
                    assert got == _outcome(_two_span_nabla, ctx, k, cols, n), (name, p, n, ctx.precision, cols)
                    counts["nabla-raise"] += got is PrecisionUnstable
    assert names >= {"cyclic", "torsion-1", "special", "cyclic-phi", "unit-entry", "torsion-3"}, names
    assert min(counts.values()) > 0, counts


def test_cyclic_towers_read_no_span(monkeypatch):
    # cyclic towers take the reading at every level, infinite ones too,
    # with no SNF; a non-cyclic tower at an infinite level reads a span
    calls = []
    snf = zp_modules._snf
    monkeypatch.setattr(zp_modules, "_snf", lambda *args: calls.append(args) or snf(*args))
    ctx = PrimeContext(3)
    phi1 = cyclotomic_phi(ctx, 1)
    towers = [
        (1, ((THREE * X * phi1 * phi1 * (X + 2),),)),  # Phi_0 and Phi_1^2 divide f
        (2, ((ONE + 3 * X, X * phi1), (X, (X + 2) * phi1))),  # unit entry, Phi_1 | det
        (3, ((ONE, X, THREE), (2 + X, ONE, X), (X * phi1, 3 * X * phi1, X * X * phi1))),
    ]
    results = {(k, n): nabla_torsion_tower(ctx, TorsionTower(cols), n) for k, cols in towers for n in (2, 3)}
    assert calls == []
    a = LambdaMatrix.diagonal(phi1, phi1 * (X + 2))  # A(0) = 0 mod 3
    assert nabla_matrix_tower(ctx, a, 2).nabla == 4
    assert calls and not _cyclic(3, 2, a.columns)
    for k, cols in towers:
        assert _cyclic(3, k, cols)
        for n in (2, 3):
            res, oracle = results[k, n], _two_span_nabla(ctx, k, cols, n)
            assert (res.ker_length, res.nabla) == (oracle.ker_length, oracle.nabla)
    assert _two_span_nabla(ctx, 2, a.columns, 2).nabla == 4
