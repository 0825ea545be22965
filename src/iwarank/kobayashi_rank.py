"""Kobayashi ranks of tower steps, brute force and closed form.

Every tower here presents its level-n module as

    M_n = Lambda_n^k / (columns of a fixed relation matrix),

with Lambda_n = Z_p[X] / omega_n, and the step map pi_n: M_n -> M_{n-1}
induced by the ring surjection Lambda_n -> Lambda_{n-1}.  The rank of
the step is

    nabla M_n = len ker(pi_n) - len coker(pi_n) + dim_Qp (M_{n-1} x Qp),

and since pi_n is onto (the relations are the same at both levels) the
cokernel vanishes.  The kernel is finite exactly when the relation
columns stay full rank at eps_n (otherwise PhiDivides is raised); then
any lift of a torsion element is torsion, so tors M_n -> tors M_{n-1} is
onto with the same kernel, and len ker(pi_n) = len tors M_n -
len tors M_{n-1}: one reading of M_m at m = n and at m = n-1.

Two presentations give that reading.  When some k x k minor d of the
relations has mu = 0 and lambda < p^m (d of least lambda), M_m is read
inside (Z_p[X]/P)^k, P the Weierstrass polynomial of d, on k lambda
rows.  Otherwise it is read on the banded span of the relations in
Lambda_m^k, on k p^m rows; mu > 0 must stay there, since when every
minor has mu > 0, M_m / p has dimension at least p^m.  The minor is
chosen only when some level of the step reads a span, and both levels
read their Weierstrass spans from one construction
(zp_modules._weierstrass_spans): P is lifted once, and P and the
generator columns X^s g_j mod P are built once per rung of the
precision ladder; only the k lambda columns omega_m e_i differ between
m = n and m = n - 1.

Every rank comes from the cyclotomic rank profile r_m = rank of the
relations at eps_m; for square relations r_m = k exactly where
ord_{eps_m}(det A) is finite, and r_m = k - 1 where it is infinite if
M = Lambda^k / A is cyclic (then M = Lambda / (det A), see below, and
M x Q_p(zeta_{p^m}) is one-dimensional).  So rank_at_eps runs only where
det A vanishes at eps_m and M is not cyclic, and for non-square
relations.  Every rank here is one minor-rank reading
(exactlinalg._minor_rank) over a residue field of Lambda: r_m over
Q_p(zeta_{p^m}) at eps_m, and rank A(0) over F_p at (p, X).
Lambda_n x Q_p is the product of the fields Q_p(zeta_{p^m}), m <= n,
so the level-m span has Q-rank
R_m = sum_{j<=m} phi(p^j) r_j, which certifies its SNF reading
(zp_modules.certified_valuations); the span on P has Q-rank
k lambda - (k p^m - R_m).  The rational dimension downstairs is
sum over m < n of phi(p^m) (k - r_m).

A third reading needs no presentation.  Let A be square, write
ords = [ord_{eps_j}(det A) for j <= m] and S = {j : ords[j] = inf}.  If
S is empty or M = Lambda^k / A is cyclic,

    len tors M_m = sum_{j not in S} t_j,  t_j = ords[j] - sum_{i in S} phi(p^min(i, j)).

S empty: on Lambda_m^k x Q_p = prod_{j<=m} Q_p(zeta_{p^j})^k, A has
determinant prod_j N(det A(eps_j)), the index of A L in any A-stable
lattice L is its inverse absolute value, and each field is totally
ramified, so v_p N(x) = ord_{eps_j}(x) (Kobayashi; Washington, GTM 83,
ch. 13).  M cyclic: Lambda is local with maximal ideal (p, X), so by
Nakayama M is cyclic iff F_p^k / A(0) has dimension <= 1, i.e.
rank A(0) mod p >= k - 1 (decided once per nabla, and only when some
ords[j] is infinite), and then
M = Lambda / Fitt_0(M) = Lambda / (f), f = det A.  With
g = prod_{i in S} Phi_i = gcd(f, omega_m) and w = omega_m / g,
multiplication by g embeds the finite Lambda / (w, f/g) in
M_m = Lambda / (omega_m, f) with free quotient Lambda / (g); so it is
tors M_m, and the norm over the fields j not in S gives the sum, as
ord_{eps_j}(Phi_i) = phi(p^min(i, j)) for i != j (Phi_i(eps_j) is p for
i > j, eps_j for i = 0 < j, and (z^p - 1) / (z - 1), z a primitive
p^{j-i+1}-th root of unity, for 0 < i < j).

It answers only when m + max_j ceil(t_j / phi(p^j)) < N.  Proof: let
T = {j <= m} - S, O_j = Z_p[X]/(Phi_j) = Z_p[zeta_{p^j}] and
R = Z_p[X]/(w), inside prod_{j in T} O_j.  For i < j,
Phi_j == Phi_1(0) = p mod Phi_i, as (1+X)^{p^{j-1}} == 1 mod omega_i; so
p lies in (Phi_i, Phi_j), and the product over i != j puts p^{|T|-1}
in (Phi_j, w / Phi_j).  So p^{|T|-1} e_j lies in R for every CRT
idempotent e_j (compare cyclo_eval._glue), and as
|T| <= m + 1, p^m prod_j O_j lies in R.  With
a = max_j ceil(t_j / phi(p^j)), p^a / (f/g) lies in prod_j O_j, so
p^{m+a} = (f/g) y with y in R: p^{m+a} kills tors M_m, every elementary
divisor of M_m is below p^N, and the certified SNF reading would give
the same length.  Elsewhere (relations not square, an infinite level of
a non-cyclic M, or the bound reached) a presentation is read, and
certifies or refuses, as before.

Each tower checks its own inputs and then makes one call of
_brute_nabla, which computes ords for m <= n once, right after the
explicit-cap check, and raises every PhiDivides of the step; the rank
profile, the third reading and the closed forms are read from ords.  The
specialness verdict is read from it too, by special_matrices._special,
beside the full per-level report is_special: a level with ords[m] finite
is fine whatever the entries, so columns are read only where ords[m] is
infinite, up to the first that vanishes.

Closed forms attached per tower kind:

  * cyclic Lambda/(f):     ord_{eps_n}(f)           when Phi_n does not divide f;
  * torsion (square rels): lambda + (p^n - p^{n-1}) mu of det, for n >> 0;
  * 2x2 matrix:            ord_{eps_n}(det A)       when A is special rel n;
  * Coleman pair:          2 deg omega-tilde_n^sign + ord_{eps_n}(det Col^-sign),
                           sign = + for n odd, - for n even, when F_n is
                           special rel n (the parity det then survives at
                           eps_n: Phi_n divides it exactly when it divides
                           det F_n, which the guard has refused).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import accumulate, combinations

from .cyclo_eval import INFINITE, ord_eps, rank_at_eps
from .errors import (
    InvalidContext,
    NotTorsion,
    PhiDivides,
    SingularMatrix,
    ZeroElement,
)
from .exactlinalg import _minor_rank, _poly_det
from .lambda_ring import (
    ZERO,
    LambdaElement,
    LambdaMatrix,
    PrimeContext,
    Record,
    check_level,
    euler_phi_pk,
    iwasawa_invariants,
    signed_degree,
)
from .special_matrices import ColemanData, _special, assemble_fn, parity_reference
from .zp_modules import _generators, _weierstrass_spans, certified_valuations, lambda_column_span


@dataclass(frozen=True)
class NablaResult(Record):
    n: int
    ker_length: int
    coker_length: int
    lower_rank: int
    nabla: int
    closed_form: int | None = None
    agrees: bool | None = None


@dataclass(frozen=True)
class CyclicTower:
    f: LambdaElement

    @property
    def columns(self) -> tuple:
        return ((self.f,),)


@dataclass(frozen=True)
class TorsionTower:
    """Lambda^k / (the relation columns): at least one column, all of
    length k; integer entries become constants."""

    columns: tuple[tuple[LambdaElement, ...], ...]

    def __post_init__(self):
        object.__setattr__(self, "columns", _generators(self.columns))


@dataclass(frozen=True)
class MatrixTower:
    matrix: LambdaMatrix

    @property
    def columns(self) -> tuple:
        return self.matrix.columns


def direct_sum(left, right) -> TorsionTower:
    """Block-diagonal join of two relation systems."""
    pad_a = (ZERO,) * len(right.columns[0])
    pad_b = (ZERO,) * len(left.columns[0])
    cols = tuple(col + pad_a for col in left.columns) + tuple(pad_b + col for col in right.columns)
    return TorsionTower(columns=cols)


def _brute_nabla(ctx: PrimeContext, k: int, rel_cols, n: int, minors, subject: str | None = None):
    """(nabla M_n, ords) from the relations and the caller's _minors of
    them ([det A] if square), with ords = [ord_{eps_m}(det A) for m <= n]
    ([] if not square) computed once check_level passes.  Every
    PhiDivides of a step is raised here: naming ``subject`` as soon as
    Phi_n divides det A, before any other work, or, with no subject (a
    torsion tower), once the relations drop rank at eps_n."""
    check_level(ctx.p, n)
    ords = [ord_eps(ctx, m, minors[0]) for m in range(n + 1)] if len(rel_cols) == k else []
    if subject and ords[n] == INFINITE:
        raise PhiDivides(f"Phi_{n} divides {subject}; step kernel is infinite")
    # cyclicity is read only where it is used: at a level with ords infinite
    cyclic = INFINITE in ords and _cyclic(ctx.p, k, rel_cols)
    # square relations have r_m = k exactly where ord_{eps_m}(det A) is
    # finite, and r_m = k - 1 where it is not if M is cyclic
    ranks = [
        k if ords and ords[m] != INFINITE else k - 1 if cyclic else rank_at_eps(ctx, m, rel_cols, k)
        for m in range(n + 1)
    ]
    if ranks[n] < k:
        raise PhiDivides(f"relations drop rank at eps_{n}; step kernel is infinite")
    # R_m = sum_{j<=m} phi(p^j) r_j, the Q-rank of the level-m relation span
    profile = list(accumulate(euler_phi_pk(ctx.p, m) * r for m, r in enumerate(ranks)))
    # len tors M_m at m = n, n - 1; from the norm when it answers
    tors = [_norm_length(ctx, ords[: m + 1], cyclic) for m in (n, n - 1)]
    if None in tors:
        read = _tors_reader(ctx, k, rel_cols, minors)
        tors = [read(m, profile[m]) if t is None else t for m, t in zip((n, n - 1), tors)]
    ker_length = tors[0] - tors[1]
    lower_rank = k * ctx.p ** (n - 1) - profile[n - 1]  # sum_{m<n} phi(p^m) (k - r_m)
    return NablaResult(n=n, ker_length=ker_length, coker_length=0, lower_rank=lower_rank,
                       nabla=ker_length + lower_rank), ords


def _minors(k: int, rel_cols) -> list[LambdaElement]:
    """The k x k minors of the relations; for square relations, det A."""
    return [_poly_det([[c[i] for c in pick] for i in range(k)]) for pick in combinations(rel_cols, k)]


def _weierstrass_minor(ctx: PrimeContext, minors) -> tuple[int, LambdaElement] | None:
    """(lambda, d) for the minor d in ``minors`` with mu = 0 and the least
    lambda; None when every mu > 0."""
    found = [(inv.lambda_, d) for d in minors if d and (inv := iwasawa_invariants(ctx, d)).mu == 0]
    return min(found, key=lambda t: t[0], default=None)


def _cyclic(p: int, k: int, rel_cols) -> bool:
    """Whether Lambda^k / A, A square, is cyclic: rank A(0) mod p >= k - 1
    (Nakayama, see above), read on the residues of the entries in F_p."""
    return _minor_rank(rel_cols, k, lambda f: LambdaElement.const(f.coeffs[0] % p) if f else f) >= k - 1


def _norm_length(ctx: PrimeContext, ords: list, cyclic: bool) -> int | None:
    """len tors M_m = sum_{j not in S} t_j from ords = [ord_{eps_j}(det A)
    for j <= m] (see above), S the levels where ords is infinite and
    t_j = ords[j] - sum_{i in S} phi(p^min(i, j)); None when ords is empty
    (no square relations), S is not empty and M is not ``cyclic``, or
    m + max_j ceil(t_j / phi(p^j)) reaches N."""
    if not ords or (INFINITE in ords and not cyclic):
        return None
    p, s = ctx.p, [i for i, o in enumerate(ords) if o == INFINITE]
    terms = {j: o - sum(euler_phi_pk(p, min(i, j)) for i in s) for j, o in enumerate(ords) if o != INFINITE}
    bound = len(ords) - 1 + max((-(-t // euler_phi_pk(p, j)) for j, t in terms.items()), default=0)
    return sum(terms.values()) if bound < ctx.precision else None


def _tors_reader(ctx: PrimeContext, k: int, rel_cols, minors):
    """A function (m, q_rank) -> len tors M_m, M_m = Lambda_m^k /
    <relations> with Q-rank q_rank (= R_m), read on the Weierstrass span
    of the _weierstrass_minor (lambda, d) of ``minors`` when lambda < p^m
    and on the banded span otherwise.  Both present M_m, so they certify
    and refuse the same inputs; only the finite count and the expected
    rank differ, both by k (p^m - lambda).  The levels of one reader share
    one zp_modules._weierstrass_spans, so P and the generator columns are
    built once per rung."""
    minor = _weierstrass_minor(ctx, minors)
    spans = minor and _weierstrass_spans(ctx, rel_cols, minor[1])

    def tors_length(m: int, q_rank: int) -> int:
        if minor is None or minor[0] >= ctx.p ** m:
            return sum(certified_valuations(ctx, lambda_column_span(ctx, rel_cols, m), q_rank, m))
        rank = k * minor[0] - (k * ctx.p ** m - q_rank)  # k lambda less the Q-rank of M_m
        return sum(certified_valuations(ctx, lambda e: spans(m, e), rank, m))

    return tors_length


def _require_step(n: int) -> None:
    if n < 1:
        raise InvalidContext(f"tower steps start at n = 1, got {n}")


def _attach(result: NablaResult, closed: int) -> NablaResult:
    return replace(result, closed_form=closed, agrees=(result.nabla == closed))


def nabla_cyclic(ctx: PrimeContext, f: LambdaElement, n: int) -> NablaResult:
    """nabla of Lambda/(f) at step n; closed form ord_{eps_n}(f)."""
    _require_step(n)
    if f.is_zero:
        raise ZeroElement("cyclic tower needs f != 0")
    result, ords = _brute_nabla(ctx, 1, ((f,),), n, [f], "f")
    return _attach(result, ords[n])


def nabla_torsion_tower(ctx: PrimeContext, tower, n: int) -> NablaResult:
    """nabla of a finitely presented torsion module, given by the
    ``columns`` of any tower kind; when the relation matrix is square the
    closed form lambda + phi(p^n) mu of its determinant is attached
    (valid once n is past stabilization)."""
    _require_step(n)
    cols = tower.columns
    k = len(cols[0])
    minors = _minors(k, cols)
    if not any(minors):
        raise NotTorsion("relations do not have full rank over Frac(Lambda)")
    result, _ = _brute_nabla(ctx, k, cols, n, minors)
    if len(cols) == k:
        inv = iwasawa_invariants(ctx, minors[0])  # det of the square relations
        closed = inv.lambda_ + euler_phi_pk(ctx.p, n) * inv.mu
        return _attach(result, closed)
    return result


def nabla_matrix_tower(ctx: PrimeContext, a: LambdaMatrix, n: int) -> NablaResult:
    """nabla of Lambda^2/(columns of A); closed form ord_{eps_n}(det A)
    attached when A is special relative to n."""
    _require_step(n)
    if a.det.is_zero:
        raise SingularMatrix("det A = 0: the tower is not torsion")
    result, ords = _brute_nabla(ctx, 2, a.columns, n, [a.det], "det A")
    return _attach(result, ords[n]) if _special(ctx, a, ords) else result


def nabla_coleman_tower(ctx: PrimeContext, cd: ColemanData, n: int) -> NablaResult:
    """nabla of the level-n Coleman step Lambda^2/(columns of F_n); the
    closed form 2 deg omega-tilde_n^sign + ord_{eps_n}(det Col^opp) is
    attached when F_n is special.  det Col^opp cannot vanish at eps_n
    once the PhiDivides guard passes: F_n(eps_n) is a nonzero multiple of
    Col^opp(eps_n) (parity_congruence_check), so Phi_n divides det F_n
    exactly when it divides det Col^opp."""
    _require_step(n)
    cd.validate()
    f = assemble_fn(ctx, cd, n)
    if f.det.is_zero:
        raise SingularMatrix(f"det F_{n} = 0")
    result, ords = _brute_nabla(ctx, 2, f.columns, n, [f.det], f"det F_{n}")
    if not _special(ctx, f, ords):
        return result
    o = ord_eps(ctx, n, parity_reference(cd, n).det)
    return _attach(result, 2 * signed_degree(ctx.p, n, "+" if n % 2 else "-") + o)


def additivity_check(ctx: PrimeContext, left, right, n: int) -> bool:
    """Whether nabla of the block-diagonal join equals the sum of the
    two summand nablas at step n, each read as a torsion tower."""
    summands = nabla_torsion_tower(ctx, left, n).nabla + nabla_torsion_tower(ctx, right, n).nabla
    return nabla_torsion_tower(ctx, direct_sum(left, right), n).nabla == summands
