"""Finite-quotient linear algebra: Smith normal form over Z/p^N.

Z/p^N is a chain ring, so any matrix is equivalent to
diag(p^{a_1}, ..., p^{a_r}, 0) with a_1 <= ... <= a_r; a zero diagonal
entry is encoded as valuation N.  Lengths of spans and quotients are read
off these valuations.

Presentations: a Z_p[X]-span of polynomial vectors inside (Z_p[X]/Q)^k,
Q monic, is laid out shift-major on k deg Q rows (_shift_span).
lambda_column_span takes Q = omega_n: k p^n rows, a banded matrix.
weierstrass_span takes Q = P, the Weierstrass polynomial of a minor of
the relations with mu = 0 (weierstrass_lift), adds the columns
omega_n e_i, and presents the same quotient on k lambda rows.  _snf
takes unit pivots in Weierstrass order, so the fill stays in the band,
and divides a block left without a unit by p once per valuation phase.

Certificate: a span given by exact integer columns has Z_p elementary
divisors p^{a_i}, one per unit of its Q-rank, and reducing mod p^e reads
each of them as min(a_i, e).  So a reading at any e is exact if and only
if its count of finite valuations (those below e) equals the exact
Q-rank.  The Weierstrass span, known only mod p^e, reads the same
quotient mod p^e, so the same count certifies it.  Readings climb a
precision ladder e = min(8, N), 16, 32, ... capped at N, and only a
reading at N that falls short is refused.  Q-ranks never come from
mod-p^e data: every caller passes the exact rank from the cyclotomic
rank profile of its relations.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InvalidContext, PrecisionUnstable
from .lambda_ring import LambdaElement, PrimeContext, _omega


@dataclass(frozen=True)
class SpanPresentation:
    """A Z_p-span inside Z_p^{ambient_rank}, given by generator columns.

    Columns are exact integers; each SNF reading reduces them mod p^e
    itself, so the same span can be read at several precisions.
    """

    ambient_rank: int
    columns: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        for col in self.columns:
            if len(col) != self.ambient_rank:
                raise InvalidContext(
                    f"column length {len(col)} != ambient rank {self.ambient_rank}"
                )

    def rows_exact(self) -> list[list[int]]:
        return [[col[i] for col in self.columns] for i in range(self.ambient_rank)]


def _snf(rows, p: int, e: int) -> list[int]:
    """Diagonalize over Z/p^e by unimodular row/column operations.

    Returns the nondecreasing pivot valuations padded with e (= zero
    entries) to min(nrows, ncols).

    Pivots are units taken in Weierstrass order: the first column with a
    unit in a live (not yet pivoted) row, cleared from the other live
    rows by its topmost unit.  On the banded spans of lambda_column_span
    this is Weierstrass division, so the fill stays inside the band.  A
    column without a unit keeps none for the rest of the phase (the
    pivot rows it is updated by hold no unit in it), so one sweep over
    the columns finds every pivot of a phase.  When the residual block
    has no unit, every entry is divisible by p: the block is divided by
    p once and the running valuation rises, at most e times.
    """
    pe = p ** e
    m = [[x % pe for x in row] for row in rows]
    nc = len(m[0]) if m else 0
    live = list(range(len(m)))  # rows not yet pivoted, in order
    cols = list(range(nc))  # columns not yet pivoted, in order
    vals: list[int] = []
    v = 0
    while live and cols:
        pe = p ** (e - v)
        rest = []
        for c in cols:
            pi = next((i for i in live if m[i][c] % p), -1)
            if pi < 0:
                rest.append(c)  # no unit here until the next phase
                continue
            live.remove(pi)
            rowp = m[pi]
            if (unit := rowp[c]) != 1:
                inv = pow(unit, -1, pe)
                rowp = m[pi] = [x * inv % pe for x in rowp]
            # the spans start sparse: touch only the pivot row's nonzero columns
            nonzero = [(j, x) for j, x in enumerate(rowp) if x]
            for i in live:
                rowi = m[i]
                if t := rowi[c]:
                    for j, x in nonzero:
                        rowi[j] = (rowi[j] - t * x) % pe
            vals.append(v)
        cols = rest
        if not any(m[i][c] for i in live for c in cols):
            break  # remaining block is zero
        for i in live:
            m[i] = [x // p for x in m[i]]
        v += 1
    vals.extend([e] * (min(len(m), nc) - len(vals)))
    return vals


def finite_valuations(span: SpanPresentation, p: int, e: int) -> list[int]:
    """The finite SNF valuations of a span over Z/p^e: those below e,
    nondecreasing, one per elementary divisor that p^e does not kill."""
    return [a for a in _snf(span.rows_exact(), p, e) if a < e]


def certified_valuations(ctx: PrimeContext, span, rank: int, level: int | None = None) -> list[int]:
    """The finite SNF valuations of a span, certified exact: the first
    reading on the ladder e = min(8, N), 16, 32, ... capped at N with
    exactly ``rank`` of them, ``rank`` being the exact Q-rank of the
    span; PrecisionUnstable (carrying ``level``, the tower level the span
    presents, if given) when the reading at N falls short.  ``span`` is
    a SpanPresentation, or a function of e giving the span to read at
    precision e, for a presentation known only mod p^e."""
    read = span if callable(span) else lambda e: span
    n = ctx.precision
    e = min(8, n)  # residues below 3^8 fit in one machine digit
    while len(vals := finite_valuations(read(e), ctx.p, e)) != rank:
        if e == n:
            raise PrecisionUnstable(
                f"{len(vals)} finite elementary divisors at N={n}, "
                f"exact rank {rank}: a divisor reaches p^{n}",
                precision=n, finite_count=len(vals), expected_rank=rank, level=level,
            )
        e = min(2 * e, n)
    return vals


def _times_x(vec: list[int], low, q: int | None) -> list[int]:
    """X * vec mod a monic modulus of degree len(vec) whose lower
    coefficients are the (index, value) pairs ``low``; mod q if given."""
    nxt = [0] + vec[:-1]
    if top := vec[-1]:
        for j, c in low:
            nxt[j] -= top * c
        if q:
            nxt = [x % q for x in nxt]
    return nxt


def _reduce(coeffs, low, width: int, q: int | None) -> list[int]:
    """The coefficient vector (length ``width``) of a polynomial mod the
    monic modulus of _times_x, by Horner's rule; mod q if given."""
    if not width:
        return []
    cut = max(len(coeffs) - width, 0)
    acc = list(coeffs[cut:]) + [0] * (width - len(coeffs) + cut)
    for c in reversed(coeffs[:cut]):
        acc = _times_x(acc, low, q)
        acc[0] += c
    return [x % q for x in acc] if q else acc


def _shift_span(gens, modulus: LambdaElement, q: int | None = None) -> SpanPresentation:
    """The columns X^s g_j mod a monic ``modulus``, 0 <= s < deg modulus:
    the Z_p[X]-span of the generators inside (Z_p[X]/modulus)^k, with
    exact integer coefficients, or reduced mod q if the modulus is only
    known mod q.  Shift-major: coefficient t of entry i is row t*k + i,
    and X^s g_j is column s*len(gens) + j.  X moves a vector down k rows,
    so X^s g_j fills only the rows of coefficients s .. s + deg g_j until
    the shift wraps past the modulus: a banded multiplication operator.
    """
    gens = [tuple(g) for g in gens]
    if not gens:
        raise InvalidContext("need at least one generator")
    k = len(gens[0])
    width = modulus.degree
    low = [(j, c) for j, c in enumerate(modulus.coeffs[:width]) if c]
    curs = []  # per generator, its k coefficient vectors times X^s
    for gen in gens:
        if len(gen) != k:
            raise InvalidContext("generators of mixed rank")
        curs.append([
            _reduce(e.coeffs if isinstance(e, LambdaElement) else (e,), low, width, q)
            for e in gen
        ])
    cols: list[tuple[int, ...]] = []
    col = [0] * (k * width)
    for s in range(width):
        for cur in curs:
            for i, vec in enumerate(cur):
                col[i::k] = vec
            cols.append(tuple(col))
        if s < width - 1:
            for cur in curs:
                cur[:] = [_times_x(vec, low, q) for vec in cur]
    return SpanPresentation(ambient_rank=k * width, columns=tuple(cols))


def lambda_column_span(ctx: PrimeContext, gens, level: int) -> SpanPresentation:
    """Exact integer realization of the Lambda_n-span of polynomial
    vectors inside Lambda_n^k = (Z_p[X]/omega_n)^k == Z_p^{k p^n}."""
    return _shift_span(gens, _omega(ctx.p, level))


def weierstrass_lift(d: LambdaElement, p: int, e: int) -> LambdaElement:
    """The Weierstrass polynomial P of d mod p^e, coefficients in
    [0, p^e): monic of degree lambda(d), P == X^lambda (mod p), and
    d == P U (mod p^e) with U(0) a unit (Washington, GTM 83, section 7.1).

    Hensel lift of d == X^lambda u (mod p), one p-adic digit at a time:
    if d == P U (mod p^i), the remainder r of d mod P is divisible by
    p^i, and P + p^i (u^-1 r / p^i mod (p, X^lambda)) is P mod p^{i+1}.
    Each digit is unique, so the lift to p^16 reduces to the lift to
    p^8.  The leading coefficient of d may be divisible by p (P then
    drops the roots of d that are not in the maximal ideal).
    InvalidContext when mu(d) > 0: no coefficient of d is a unit.
    """
    cs = d.coeffs
    lam = next((i for i, c in enumerate(cs) if c % p), None)
    if lam is None:
        raise InvalidContext("mu > 0: the polynomial has no Weierstrass polynomial")
    u = [c % p for c in cs[lam:2 * lam + 1]] + [0] * lam
    inv = [pow(u[0], -1, p)]  # u^-1 mod (p, X^lambda)
    for j in range(1, lam):
        inv.append(-inv[0] * sum(u[a] * inv[j - a] for a in range(1, j + 1)) % p)
    pol = [0] * lam + [1]
    for i in range(1, e):
        pi = p ** i
        low = [(j, c) for j, c in enumerate(pol[:lam]) if c]
        t = [x // pi for x in _reduce(cs, low, lam, pi * p)]
        for j in range(lam):
            pol[j] += pi * (sum(t[a] * inv[j - a] for a in range(j + 1)) % p)
    return LambdaElement(pol)


def weierstrass_span(ctx: PrimeContext, gens, d: LambdaElement, level: int, e: int) -> SpanPresentation:
    """The span of the generators and of omega_level e_i inside
    (Z/p^e[X]/P)^k == (Z/p^e)^{k lambda}, P the Weierstrass polynomial
    of a k x k minor d of the generators with mu(d) = 0.

    adj A = d I puts d e_i in the generators' span, and d = P U with U a
    unit mod omega_level (U(0) is a unit), so P e_i lies in the span of
    the generators and omega_level e_i.  So this span presents
    M_level = Lambda_level^k / <generators>, as lambda_column_span does,
    and its reading mod p^e is the reading of M_level / p^e.  Its Q-rank
    is k lambda less the Q-rank of M_level.
    """
    k, w = len(gens[0]), _omega(ctx.p, level)
    omegas = [tuple(w if i == j else 0 for i in range(k)) for j in range(k)]
    return _shift_span([*gens, *omegas], weierstrass_lift(d, ctx.p, e), ctx.p ** e)
