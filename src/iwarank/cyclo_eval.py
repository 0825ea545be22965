"""Evaluation at the cyclotomic points eps_m = zeta_{p^m} - 1.

Z_p[zeta_{p^m}] = Z_p[X]/(Phi_m) is totally ramified of degree
phi(p^m) = deg Phi_m over Z_p: Phi_m is Eisenstein in X, so eps_m is a
uniformizer and v(p) = phi(p^m) in the valuation normalized by
ord(eps_m) = 1.  Writing r = f mod Phi_m on the power basis,

    ord_{eps_m}(f(eps_m)) = min over r_i != 0 of phi(p^m) v_p(r_i) + i,

because the terms r_i eps_m^i have valuations that differ mod
phi(p^m) and so cannot cancel.  Level 0 is the same formula: eps_0 = 0,
Phi_0 = X, phi(p^0) = 1 and r = f(0), so ord is v_p(f(0)).  The value
is infinite exactly when Phi_m | f.

Every question the package asks at eps_m is answered here from r: the
residue itself and divisibility (_residue, zero iff Phi_m | f), valuation
(ord_eps), the vanishing columns of a matrix (_vanishing_columns), rank
(rank_at_eps) and proportionality (matrices_proportional_at_eps, three
ranks); _glue lifts 2x2 blocks given at several levels to one matrix.
No other module divides by Phi_m.  Every rank is one minor-rank reading
(exactlinalg._minor_rank) over the residue field Q_p(zeta_{p^m}) of
Lambda at eps_m, the same reading kobayashi_rank takes over F_p at the
closed point (p, X).
"""

from __future__ import annotations

from math import inf

from .exactlinalg import _minor_rank
from .lambda_ring import (
    ZERO,
    LambdaElement,
    LambdaMatrix,
    PrimeContext,
    cyclotomic_phi,
    euler_phi_pk,
    omega_poly,
    vp,
)

INFINITE = inf  # extended nonnegative integer; serializes as "inf"


def ord_json(v) -> object:
    return "inf" if v == INFINITE else int(v)


def _residue(ctx: PrimeContext, m: int, f: LambdaElement) -> LambdaElement:
    """f(eps_m) in Z_p[zeta_{p^m}] on the power basis: f mod Phi_m, of
    degree < phi(p^m) (a bare constant at m = 0, where eps_0 = 0); zero
    iff Phi_m divides f."""
    return f.reduced_mod(cyclotomic_phi(ctx, m))


def ord_eps(ctx: PrimeContext, m: int, f: LambdaElement):
    """Normalized valuation of f(eps_m), ord(eps_m) = 1; INFINITE iff
    Phi_m divides f."""
    r = _residue(ctx, m, f)
    if r.is_zero:
        return INFINITE
    e = euler_phi_pk(ctx.p, m)
    return min(e * vp(c, ctx.p) + i for i, c in enumerate(r.coeffs) if c)


def _vanishing_columns(ctx: PrimeContext, m: int, a: LambdaMatrix):
    """Lazily, for each column of A, whether Phi_m divides both entries:
    a column stops at its first entry that does not vanish, and any()
    stops at the first column that does."""
    return (all(_residue(ctx, m, e).is_zero for e in col) for col in a.columns)


def rank_at_eps(ctx: PrimeContext, m: int, columns, k: int) -> int:
    """Rank at eps_m of the k x c polynomial matrix with the given
    columns: the size of its largest minor not divisible by Phi_m.

    Z_p[X]/Phi_m is a domain, so this is the rank over Q_p(zeta_{p^m});
    since Lambda_n x Q_p is the product of these fields for m <= n, the
    Q-rank of the matrix's Lambda_n-span is sum phi(p^m) rank_at_eps(m).
    """
    phi = cyclotomic_phi(ctx, m)
    return _minor_rank(columns, k, lambda f: f.reduced_mod(phi))


def matrices_proportional_at_eps(
    ctx: PrimeContext, m: int, f: LambdaMatrix, c: LambdaMatrix
) -> bool:
    """Whether F(eps_m) = scalar * C(eps_m) for some nonzero scalar: the
    entry vectors of F, of C and of both together have one rank at eps_m
    (0 when both vanish; 1 when both are nonzero and proportional)."""
    fv, cv = f.entries, c.entries
    return rank_at_eps(ctx, m, (fv,), 4) == rank_at_eps(ctx, m, (cv,), 4) == rank_at_eps(ctx, m, (fv, cv), 4)


def _glue(ctx: PrimeContext, blocks: dict) -> LambdaMatrix:
    """The integer-polynomial B with B = s K_m mod Phi_m at every listed
    level m (blocks maps m to the 2x2 K_m), B = s I at the other levels
    m <= top (top the highest listed), every entry of degree < p^top, and
    s = p^(top - v).

    With lower(m) = p^m omega_top / omega_m and lower(-1) = 0, lower(m)
    is p^top mod Phi_j for j <= m (Phi_i = p mod Phi_j for i > j) and 0
    for m < j <= top, so u_m = lower(m) - lower(m-1) is p^top times the
    idempotent of level m in Q[X]/omega_top, and the u_m (m <= top) sum
    to lower(top) = p^top.  Hence

        p^top I + sum over listed m of (K_m - I) u_m   mod omega_top

    is p^top K_m mod Phi_m at listed levels and p^top I at the others;
    B is that divided by p^v, the largest power of p (v <= top) dividing
    every entry.
    """
    p, top = ctx.p, max(blocks)
    omega_top = omega_poly(ctx, top)

    def lower(m: int) -> LambdaElement:
        return omega_top.exact_div(omega_poly(ctx, m)) * p**m if m >= 0 else ZERO

    acc = LambdaMatrix.identity().scaled(p**top)
    minus_i = LambdaMatrix.identity().scaled(-1)
    for m, k in blocks.items():
        acc = acc + (k + minus_i).scaled(lower(m) - lower(m - 1))
    rows = [[e.reduced_mod(omega_top) for e in row] for row in acc.rows]
    v = min([top] + [vp(c, p) for row in rows for e in row for c in e.coeffs if c])
    return LambdaMatrix(
        tuple(tuple(LambdaElement(c // p**v for c in e.coeffs) for e in row) for row in rows)
    )
