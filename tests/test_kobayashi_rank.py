"""Brute-force step ranks against their closed forms on the three tower shapes."""

import random

import pytest

from iwarank.cyclo_eval import ord_eps, rank_at_eps
from iwarank.errors import (
    InvalidContext,
    NotTorsion,
    PhiDivides,
    PrecisionUnstable,
    SingularMatrix,
)
from iwarank.kobayashi_rank import (
    CyclicTower,
    MatrixTower,
    NablaResult,
    TorsionTower,
    _brute_nabla,
    additivity_check,
    detect_stabilization,
    direct_sum,
    nabla_coleman_tower,
    nabla_cyclic,
    nabla_matrix_tower,
    nabla_torsion_tower,
    nabla_tower,
    tower_sweep,
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
from iwarank.special_matrices import ColemanData
from iwarank.verify import rand_special_matrix
from iwarank.zp_modules import SpanPresentation, finite_valuations, lambda_column_span

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

    def test_not_torsion(self, ctx3):
        with pytest.raises(NotTorsion):
            nabla_torsion_tower(ctx3, TorsionTower(((X, ZERO),)), 1)

    def test_detect_stabilization(self, ctx3):
        sweep = tower_sweep(ctx3, TorsionTower(((THREE * X,),)), 3)
        assert [r.n for r in sweep] == [1, 2, 3]
        assert detect_stabilization(sweep) == 1

    def test_detect_stabilization_requires_tail(self):
        assert detect_stabilization([]) is None


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

    @pytest.mark.parametrize("p, n", [(3, 5), (7, 3), (5, 4)])
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
        assert nabla_tower(ctx3, CyclicTower(X), 1) == nabla_cyclic(ctx3, X, 1)
        a = LambdaMatrix.diagonal(X, X)
        assert nabla_tower(ctx3, MatrixTower(a), 1) == nabla_matrix_tower(ctx3, a, 1)

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
        k, cols = joined.relation_columns()
        assert k == 3
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
        got = _outcome(_brute_nabla, ctx, k, cols, n)
        assert got == _outcome(_two_span_nabla, ctx, k, cols, n), (p, n, k, ctx.precision, cols)
        kind = got if isinstance(got, type) else NablaResult
        counts[kind] = counts.get(kind, 0) + 1
    # every branch is exercised
    assert set(counts) == {NablaResult, PhiDivides, PrecisionUnstable}
