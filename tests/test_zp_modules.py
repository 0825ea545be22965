"""Smith normal form over Z/p^N, span lengths, and nested quotients."""

import random

import pytest
from rod_oracle import intersect_spans_mod

from iwarank.errors import NotNested, PrecisionUnstable
from iwarank.lambda_ring import ONE, X, LambdaElement, PrimeContext
from iwarank.zp_modules import (
    SpanPresentation,
    certified_valuations,
    lambda_column_span,
    nested_span_quotient_length,
    quotient_invariants,
    snf_local,
    span_length,
)


@pytest.fixture
def ctx() -> PrimeContext:
    # frozen-example precision: N = 5
    return PrimeContext(3, precision=5, margin=5)


def random_unimodular(rng: random.Random, size: int, mod: int) -> list[list[int]]:
    u = [[int(i == j) for j in range(size)] for i in range(size)]
    for _ in range(4 * size):
        i, j = rng.sample(range(size), 2)
        c = rng.randrange(mod)
        for k in range(size):
            u[i][k] = (u[i][k] + c * u[j][k]) % mod
    return u


def mat_mul(a, b, mod):
    n, m, k = len(a), len(b[0]), len(b)
    return [
        [sum(a[i][t] * b[t][j] for t in range(k)) % mod for j in range(m)]
        for i in range(n)
    ]


class TestSnfLocal:
    def test_frozen(self, ctx):
        assert snf_local(ctx, [[3]]) == [1]
        assert snf_local(ctx, [[1, 0], [0, 9]]) == [0, 2]
        assert snf_local(ctx, [[3, 3], [3, 12]]) == [1, 2]

    def test_zero_matrix(self, ctx):
        # valuation N encodes a zero diagonal entry
        assert snf_local(ctx, [[0, 0], [0, 0]]) == [5, 5]

    def test_nondecreasing_and_bounded(self, ctx, rng):
        for _ in range(30):
            g = [[rng.randrange(ctx.modulus) for _ in range(3)] for _ in range(3)]
            vals = snf_local(ctx, g)
            assert vals == sorted(vals)
            assert all(0 <= a <= 5 for a in vals)

    def test_invariant_under_unimodular(self, ctx, rng):
        mod = ctx.modulus
        for _ in range(25):
            g = [[rng.randrange(mod) for _ in range(3)] for _ in range(3)]
            u = random_unimodular(rng, 3, mod)
            v = random_unimodular(rng, 3, mod)
            assert snf_local(ctx, mat_mul(u, mat_mul(g, v, mod), mod)) == snf_local(ctx, g)


class TestSpanLength:
    def test_frozen(self, ctx):
        assert span_length(ctx, SpanPresentation(1, ((3,),))).length == 4
        assert span_length(ctx, SpanPresentation(2, ((3, 0), (0, 9)))).length == 7
        assert span_length(ctx, SpanPresentation(1, ((1,),))).length == 5

    def test_stability_flag(self, ctx):
        rep = span_length(ctx, SpanPresentation(2, ((3, 0), (0, 9))))
        assert rep.stable is True

    def test_empty_span(self, ctx):
        assert span_length(ctx, SpanPresentation(2, ())).length == 0

    def test_divisor_at_precision_not_certified(self, ctx):
        # 3^5 reads as zero at N = 5: no finite divisor against rank 1
        rep = span_length(ctx, SpanPresentation(1, ((3**5,),)))
        assert rep.stable is False

    def test_additive_over_direct_sums(self, ctx, rng):
        for _ in range(15):
            a_cols = tuple(
                tuple(rng.randrange(-80, 81) for _ in range(2)) for _ in range(2)
            )
            b_cols = tuple(
                tuple(rng.randrange(-80, 81) for _ in range(3)) for _ in range(2)
            )
            joined = tuple(c + (0, 0, 0) for c in a_cols) + tuple(
                (0, 0) + c for c in b_cols
            )
            total = span_length(ctx, SpanPresentation(5, joined)).length
            assert total == (
                span_length(ctx, SpanPresentation(2, a_cols)).length
                + span_length(ctx, SpanPresentation(3, b_cols)).length
            )


class TestQuotientInvariants:
    def test_frozen(self, ctx):
        free, tors = quotient_invariants(ctx, SpanPresentation(2, ((3, 0),)))
        assert (free, tors.length) == (1, 1)
        free, tors = quotient_invariants(ctx, SpanPresentation(2, ((1, 0), (0, 1))))
        assert (free, tors.length) == (0, 0)
        free, tors = quotient_invariants(ctx, SpanPresentation(2, ((3, 0), (0, 9))))
        assert (free, tors.length) == (0, 3)

    def test_no_relations(self, ctx):
        free, tors = quotient_invariants(ctx, SpanPresentation(2, ()))
        assert (free, tors.length) == (2, 0)

    def test_divisor_at_precision_raises(self, ctx):
        with pytest.raises(PrecisionUnstable):
            quotient_invariants(ctx, SpanPresentation(1, ((3**5,),)))


class TestPrecisionLadder:
    def test_divisor_past_first_rung_certifies(self):
        # 3^20 reads as zero at the rungs 8 and 16, and exactly at 32
        ctx40 = PrimeContext(3, precision=40)
        span = SpanPresentation(1, ((3**20,),))
        assert certified_valuations(ctx40, span, 1) == [20]
        free, tors = quotient_invariants(ctx40, span)
        assert (free, tors.length) == (0, 20)

    def test_divisor_at_precision_raises_with_reading(self):
        ctx40 = PrimeContext(3, precision=40)
        with pytest.raises(PrecisionUnstable) as exc:
            certified_valuations(ctx40, SpanPresentation(1, ((3**40,),)), 1)
        assert (exc.value.precision, exc.value.finite_count, exc.value.expected_rank) == (40, 0, 1)
        assert str(exc.value) == (
            "0 finite elementary divisors at N=40, exact rank 1: a divisor reaches p^40"
        )

    def test_mixed_divisors(self):
        # one divisor per rung of the ladder, all certified at N = 40
        ctx40 = PrimeContext(3, precision=40)
        span = SpanPresentation(4, ((1, 0, 0, 0), (0, 3**7, 0, 0), (0, 0, 3**15, 0), (0, 0, 0, 3**39)))
        assert certified_valuations(ctx40, span, 4) == [0, 7, 15, 39]


class TestNestedQuotient:
    def test_frozen(self, ctx):
        v = SpanPresentation(1, ((1,),))
        u = SpanPresentation(1, ((3,),))
        assert nested_span_quotient_length(ctx, v, u).length == 1
        assert nested_span_quotient_length(ctx, v, v).length == 0
        v2 = SpanPresentation(2, ((1, 0), (0, 3)))
        u2 = SpanPresentation(2, ((3, 0), (0, 3)))
        assert nested_span_quotient_length(ctx, v2, u2).length == 1

    def test_rejects_non_nested(self, ctx):
        v = SpanPresentation(1, ((3,),))
        u = SpanPresentation(1, ((1,),))
        with pytest.raises(NotNested):
            nested_span_quotient_length(ctx, v, u)

    def test_length_identity(self, ctx, rng):
        # length(V/U) + length(U) = length(V) on random nested pairs
        for _ in range(15):
            v_cols = tuple(
                tuple(rng.randrange(-40, 41) for _ in range(3)) for _ in range(3)
            )
            scalars = [rng.choice((1, 3, 9)) for _ in range(3)]
            u_cols = tuple(
                tuple(s * x for x in col) for s, col in zip(scalars, v_cols)
            )
            v = SpanPresentation(3, v_cols)
            u = SpanPresentation(3, u_cols)
            q = nested_span_quotient_length(ctx, v, u)
            assert (
                q.length + span_length(ctx, u).length == span_length(ctx, v).length
            )


class TestIntersect:
    def test_scaled_axes(self, ctx):
        inter = intersect_spans_mod(
            3, 5, 2, [(3, 0), (0, 1)], [(1, 0), (0, 3)]
        )
        rows = [[col[i] for col in inter] for i in range(2)]
        assert snf_local(ctx, rows) == [1, 1]

    def test_disjoint_lines(self, ctx):
        inter = intersect_spans_mod(3, 5, 2, [(1, 0)], [(0, 1)])
        rows = [[col[i] for col in inter] for i in range(2)]
        vals = snf_local(ctx, rows) if inter else []
        assert all(a == 5 for a in vals)


class TestLambdaColumnSpan:
    def test_ambient_size(self, ctx3):
        span = lambda_column_span(ctx3, ((X, ONE),), 1)
        assert span.ambient_rank == 6  # two Lambda_1 coordinates of rank 3

    def test_unit_generator_fills_quotient(self, ctx):
        span = lambda_column_span(ctx, ((ONE,),), 1)
        free, tors = quotient_invariants(ctx, span)
        assert (free, tors.length) == (0, 0)

    def test_x_generator_leaves_free_line(self, ctx):
        span = lambda_column_span(ctx, ((X,),), 1)
        free, tors = quotient_invariants(ctx, span)
        assert (free, tors.length) == (1, 0)

    def test_p_generator_torsion(self, ctx):
        span = lambda_column_span(ctx, ((LambdaElement((3,)),),), 1)
        free, tors = quotient_invariants(ctx, span)
        assert (free, tors.length) == (0, 3)
