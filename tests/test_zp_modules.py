"""Smith normal form over Z/p^N, span lengths read off its finite
valuations, and readings certified against the exact rank."""

import random

import pytest
from rod_oracle import intersect_spans_mod, snf_with_transform
from weierstrass_oracle import horner_reduce

from iwarank.errors import InvalidContext, PrecisionUnstable
from iwarank.kobayashi_rank import direct_sum
from iwarank.lambda_ring import ONE, X, LambdaElement, PrimeContext, iwasawa_invariants, vp
from iwarank.special_matrices import assemble_fn
from iwarank.verify import _rand_summand, rand_coleman_data, rand_special_matrix
from iwarank.zp_modules import (
    SpanPresentation,
    _lifter,
    _reduce,
    _snf,
    _weierstrass_spans,
    certified_valuations,
    finite_valuations,
    lambda_column_span,
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
    def test_frozen(self):
        assert _snf([[3]], 3, 5) == [1]
        assert _snf([[1, 0], [0, 9]], 3, 5) == [0, 2]
        assert _snf([[3, 3], [3, 12]], 3, 5) == [1, 2]

    def test_zero_matrix(self):
        # valuation N encodes a zero diagonal entry
        assert _snf([[0, 0], [0, 0]], 3, 5) == [5, 5]

    def test_nondecreasing_and_bounded(self, rng):
        for _ in range(30):
            g = [[rng.randrange(3**5) for _ in range(3)] for _ in range(3)]
            vals = _snf(g, 3, 5)
            assert vals == sorted(vals)
            assert all(0 <= a <= 5 for a in vals)

    def test_invariant_under_unimodular(self, rng):
        mod = 3**5
        for _ in range(25):
            g = [[rng.randrange(mod) for _ in range(3)] for _ in range(3)]
            u = random_unimodular(rng, 3, mod)
            v = random_unimodular(rng, 3, mod)
            assert _snf(mat_mul(u, mat_mul(g, v, mod), mod), 3, 5) == _snf(g, 3, 5)


def rand_kernel_input(rng: random.Random, p: int, e: int) -> list[list[int]]:
    """A seeded matrix for the SNF kernel, up to 12 x 12 (either side may
    be 0): low rank, zero rows, all-zero blocks, rows and columns scaled
    by powers of p (so residual blocks lose their units), and entries
    past p^e and past 2^64, of either sign."""
    nr, nc = rng.randint(0, 12), rng.randint(0, 12)

    def entry():
        kind = rng.random()
        if kind < 0.35:
            return 0
        if kind < 0.6:
            return rng.randint(-p * p, p * p)
        if kind < 0.8:
            return rng.choice((1, -1)) * p ** rng.randint(1, e + 2) * rng.randint(1, p - 1)
        if kind < 0.9:
            return rng.randint(1, p ** e) + p ** e * rng.randint(-3, 3)
        return rng.choice((1, -1)) * rng.randrange(2**64, 2**70)

    if rng.random() < 0.3:  # rank at most r: a product through r columns
        r = rng.randint(0, 4)
        u = [[entry() for _ in range(r)] for _ in range(nr)]
        w = [[entry() for _ in range(nc)] for _ in range(r)]
        m = [[sum(u[i][t] * w[t][j] for t in range(r)) for j in range(nc)] for i in range(nr)]
    else:
        m = [[entry() for _ in range(nc)] for _ in range(nr)]
    if rng.random() < 0.4:
        rs = [p ** rng.randint(0, 3) for _ in range(nr)]
        cs = [p ** rng.randint(0, 3) for _ in range(nc)]
        m = [[x * rs[i] * cs[j] for j, x in enumerate(row)] for i, row in enumerate(m)]
    if rng.random() < 0.3:
        m = [row if rng.random() < 0.7 else [0] * nc for row in m]
    if rng.random() < 0.3:
        r0, c0 = rng.randint(0, nr), rng.randint(0, nc)
        m = [[0 if i >= r0 and j >= c0 else x for j, x in enumerate(row)] for i, row in enumerate(m)]
    return m


class TestSnfKernel:
    """The unit-pivot kernel with valuation phases against independent
    readings of the same valuations."""

    def test_matches_minimum_valuation_kernel(self):
        # the kernel it replaced: row-major unit search, then a scan for
        # the entry of least valuation
        rng = random.Random(20261018)
        for _ in range(2000):
            p, e = rng.choice((3, 5, 7)), rng.choice((1, 2, 3, 8, 16, 40))
            m = rand_kernel_input(rng, p, e)
            assert _snf(m, p, e) == snf_with_transform(m, p, e)[0], (p, e, m)

    def test_matches_smith_normal_form_over_z(self):
        sympy = pytest.importorskip("sympy")
        from sympy.matrices.normalforms import smith_normal_form

        rng = random.Random(5)
        for _ in range(200):
            p, e = rng.choice((3, 5, 7)), rng.choice((1, 2, 3, 8, 16, 40))
            m = rand_kernel_input(rng, p, e)
            nr, nc = len(m), len(m[0]) if m else 0
            if not nr * nc:
                continue
            d = smith_normal_form(sympy.Matrix(m), domain=sympy.ZZ)
            want = sorted(min(vp(int(d[i, i]), p), e) if d[i, i] else e for i in range(min(nr, nc)))
            assert _snf(m, p, e) == want, (p, e, m)

    def test_matches_transform_kernel_on_real_spans(self):
        # the spans the towers read: the banded 54 x 54 span of a
        # minus_rank1 Coleman F_3 at p = 3, the 2 lambda x 4 lambda
        # Weierstrass spans of special matrices at both levels of a step,
        # and the banded span of a direct sum
        rng = random.Random("snf-real-spans")
        ctx3 = PrimeContext(3)
        f3 = assemble_fn(ctx3, rand_coleman_data(ctx3, rng, "minus_rank1"), 3)
        spans = [(3, lambda e: lambda_column_span(ctx3, f3.columns, 3))]
        for p, n in ((3, 2), (3, 3), (5, 2), (7, 1)):
            ctx = PrimeContext(p)
            while True:
                cols = rand_special_matrix(ctx, rng, n, max_deg=2)[0].columns
                d = cols[0][0] * cols[1][1] - cols[1][0] * cols[0][1]
                if iwasawa_invariants(ctx, d).mu == 0 and d.coeffs[0] % p == 0:
                    break
            for m in (n, n - 1):
                spans.append((p, lambda e, read=_weierstrass_spans(ctx, cols, d), m=m: read(m, e)))
        summed = direct_sum(_rand_summand(ctx3, rng, 2), _rand_summand(ctx3, rng, 2)).columns
        spans.append((3, lambda e: lambda_column_span(ctx3, summed, 2)))
        shapes = set()
        for p, span in spans:
            for e in (1, 2, 8, 16, 40):
                rows = span(e).rows_exact()
                assert _snf(rows, p, e) == snf_with_transform(rows, p, e)[0], (p, e)
            shapes.add((len(rows), len(rows[0])))
        assert (54, 54) in shapes
        assert any(c == 2 * r > 0 for r, c in shapes)  # 2 lambda rows, 4 lambda columns


class TestReduce:
    def test_matches_horner(self):
        # one top-down pass against Horner's rule, exact and mod q, at
        # widths 0-20, for inputs shorter and longer than the modulus
        rng = random.Random("reduce-horner")
        for width in range(21):
            for _ in range(12):
                p = rng.choice((3, 5, 7))
                q = p ** rng.choice((1, 2, 8, 16))
                pol = [rng.randrange(q) if rng.random() < 0.7 else 0 for _ in range(width)] + [1]
                low = [(j, c) for j, c in enumerate(pol[:-1]) if c]
                coeffs = tuple(rng.randint(-q, q) for _ in range(rng.randint(0, 3 * width + 5)))
                assert _reduce(coeffs, low, width, q) == horner_reduce(coeffs, low, width, q)
                small = [(j, c - p) for j, c in low][:4]  # small lower coefficients of either sign
                short = coeffs[: width + 6]
                assert _reduce(short, small, width, None) == horner_reduce(short, small, width, None)


def span_length(span: SpanPresentation) -> int:
    """Length over Z/3^5 of a span: sum of N - a over its finite valuations."""
    return sum(5 - a for a in finite_valuations(span, 3, 5))


class TestSpanLength:
    def test_frozen(self):
        assert span_length(SpanPresentation(1, ((3,),))) == 4
        assert span_length(SpanPresentation(2, ((3, 0), (0, 9)))) == 7
        assert span_length(SpanPresentation(1, ((1,),))) == 5

    def test_empty_span(self):
        assert span_length(SpanPresentation(2, ())) == 0

    def test_divisor_at_precision_not_certified(self):
        # 3^5 reads as zero at N = 5: no finite divisor against rank 1
        assert finite_valuations(SpanPresentation(1, ((3**5,),)), 3, 5) == []

    def test_additive_over_direct_sums(self, rng):
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
            total = span_length(SpanPresentation(5, joined))
            assert total == (
                span_length(SpanPresentation(2, a_cols)) + span_length(SpanPresentation(3, b_cols))
            )


class TestQuotientInvariants:
    """The torsion of ambient / <relations> is the sum of the certified
    valuations; its free rank is the ambient rank minus the exact rank."""

    def test_frozen(self, ctx):
        assert certified_valuations(ctx, SpanPresentation(2, ((3, 0),)), 1) == [1]
        assert certified_valuations(ctx, SpanPresentation(2, ((1, 0), (0, 1))), 2) == [0, 0]
        assert certified_valuations(ctx, SpanPresentation(2, ((3, 0), (0, 9))), 2) == [1, 2]

    def test_no_relations(self, ctx):
        assert certified_valuations(ctx, SpanPresentation(2, ()), 0) == []

    def test_divisor_at_precision_raises(self, ctx):
        with pytest.raises(PrecisionUnstable):
            certified_valuations(ctx, SpanPresentation(1, ((3**5,),)), 1)


class TestPrecisionLadder:
    def test_divisor_past_first_rung_certifies(self):
        # 3^20 reads as zero at the rungs 8 and 16, and exactly at 32
        ctx40 = PrimeContext(3, precision=40)
        span = SpanPresentation(1, ((3**20,),))
        assert certified_valuations(ctx40, span, 1) == [20]

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


class TestIntersect:
    def test_scaled_axes(self):
        inter = intersect_spans_mod(
            3, 5, 2, [(3, 0), (0, 1)], [(1, 0), (0, 3)]
        )
        rows = [[col[i] for col in inter] for i in range(2)]
        assert _snf(rows, 3, 5) == [1, 1]

    def test_disjoint_lines(self):
        inter = intersect_spans_mod(3, 5, 2, [(1, 0)], [(0, 1)])
        rows = [[col[i] for col in inter] for i in range(2)]
        vals = _snf(rows, 3, 5) if inter else []
        assert all(a == 5 for a in vals)


class TestLambdaColumnSpan:
    def test_ambient_size(self, ctx3):
        span = lambda_column_span(ctx3, ((X, ONE),), 1)
        assert span.ambient_rank == 6  # two Lambda_1 coordinates of rank 3

    # Lambda_1 has Z_p-rank 3; X kills the level-0 factor, so <X> has rank 2
    def test_unit_generator_fills_quotient(self, ctx):
        span = lambda_column_span(ctx, ((ONE,),), 1)
        assert certified_valuations(ctx, span, 3) == [0, 0, 0]

    def test_x_generator_leaves_free_line(self, ctx):
        span = lambda_column_span(ctx, ((X,),), 1)
        assert certified_valuations(ctx, span, 2) == [0, 0]

    def test_p_generator_torsion(self, ctx):
        span = lambda_column_span(ctx, ((LambdaElement((3,)),),), 1)
        assert certified_valuations(ctx, span, 3) == [1, 1, 1]

    def test_shift_major_band(self, ctx):
        # X^s g sits in the rows of coefficients s .. s + deg g until the
        # shift wraps past omega_1 = X^3 + 3X^2 + 3X
        g = (LambdaElement((1, 2)), LambdaElement((5,)))
        span = lambda_column_span(ctx, (g, (ONE, X)), 1)
        assert span.columns[0] == (1, 5, 2, 0, 0, 0)  # g: row t*k + i
        assert span.columns[1] == (1, 0, 0, 1, 0, 0)  # (1, X)
        assert span.columns[2] == (0, 0, 1, 5, 2, 0)  # X g
        assert span.columns[3] == (0, 0, 1, 0, 0, 1)  # X (1, X)
        assert span.columns[4] == (0, 0, -6, 0, -5, 5)  # X^2 g wraps: X^3 = -3X - 3X^2

    def test_valuations_invariant_under_layout(self, rng):
        # the same span laid out generator-major (entry i coefficient t at
        # row i*p^n + t, column j*p^n + s) reads the same valuations
        for _ in range(200):
            p = rng.choice((3, 5))
            level = rng.randint(1, 2 if p == 3 else 1)
            k, g = rng.randint(1, 3), rng.randint(1, 3)
            gens = [
                tuple(
                    LambdaElement(rng.choice((0, 1, -1, 2, p, -p, p * p)) for _ in range(rng.randint(1, 5)))
                    for _ in range(k)
                )
                for _ in range(g)
            ]
            span = lambda_column_span(PrimeContext(p), gens, level)
            pn = p**level
            moved = SpanPresentation(span.ambient_rank, tuple(
                tuple(span.columns[s * g + j][t * k + i] for i in range(k) for t in range(pn))
                for j in range(g)
                for s in range(pn)
            ))
            e = rng.choice((2, 8, 40))
            assert finite_valuations(moved, p, e) == finite_valuations(span, p, e)


def assert_weierstrass(d: LambdaElement, p: int, e: int) -> LambdaElement:
    """P = _lifter(d, p)(e) is monic of degree lambda(d), is X^lambda mod
    p, and d = P U (mod p^e) with U(0) a unit."""
    lam = iwasawa_invariants(PrimeContext(p), d).lambda_
    pol = LambdaElement(_lifter(d, p)(e))
    assert pol.degree == lam and pol.coeffs[-1] == 1
    assert all(c % p == 0 for c in pol.coeffs[:-1])
    u, r = d.divmod_monic(pol)
    assert all(c % p**e == 0 for c in r.coeffs)
    assert u.coeffs[0] % p
    return pol


class TestWeierstrassLift:
    def test_frozen(self):
        # X + 3 is its own Weierstrass polynomial; 3X^2 + X + 3 (p | lead)
        # has one root in 3Z_3, r = -3 - 3r^2 = 51 mod 3^4, so P = X + 30
        assert _lifter(X + 3, 3)(5) == [3, 1]
        assert _lifter(LambdaElement((3, 1, 3)), 3)(4) == [30, 1]

    def test_lead_divisible_by_p(self, rng):
        for _ in range(60):
            p = rng.choice((3, 5, 7))
            lam = rng.randint(1, 6)
            cs = [p * rng.randint(-9, 9) for _ in range(lam)] + [rng.randrange(1, p)]
            cs += [rng.randint(-9, 9) for _ in range(rng.randint(0, 5))] + [p * rng.randint(1, 9)]
            assert_weierstrass(LambdaElement(cs), p, rng.choice((1, 2, 8, 16)))

    def test_unit(self):
        # lambda = 0: P = 1, and the span of a unit relation has no rows
        assert assert_weierstrass(LambdaElement((2, 3, 9)), 3, 8) == ONE
        span = _weierstrass_spans(PrimeContext(3), ((LambdaElement((2, 3)),),), LambdaElement((2, 3)))(2, 8)
        assert span.ambient_rank == 0 and span.columns == ()
        assert certified_valuations(PrimeContext(3), lambda e: span, 0) == []

    def test_rungs_reduce(self, rng):
        # the lift to p^16 reduces mod p^8 to the lift to p^8
        for _ in range(20):
            p = rng.choice((3, 5, 7))
            d = LambdaElement([p * rng.randint(-5, 5) for _ in range(3)] + [1, rng.randint(-5, 5), p])
            lo, hi = (_lifter(d, p)(e) for e in (8, 16))
            assert lo == [c % p**8 for c in hi]

    def test_mu_positive_refused(self):
        with pytest.raises(InvalidContext):
            _lifter(LambdaElement((3, 9, 6)), 3)


class TestWeierstrassSpan:
    def test_shape_and_reading(self):
        # M_1 = Z_3[X]/(X + 3, omega_1): omega_1(-3) = -9, so Z/9, on one row
        ctx = PrimeContext(3)
        rels = ((X + 3,),)
        read = _weierstrass_spans(ctx, rels, X + 3)
        assert read(1, 8).ambient_rank == 1
        assert certified_valuations(ctx, lambda e: read(1, e), 1) == [2]
        assert certified_valuations(ctx, lambda_column_span(ctx, rels, 1), 3) == [0, 0, 2]
