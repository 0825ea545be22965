"""Finite-quotient linear algebra: Smith normal form over Z/p^N.

Z/p^N is a chain ring, so any matrix is equivalent to
diag(p^{a_1}, ..., p^{a_r}, 0) with a_1 <= ... <= a_r; a zero diagonal
entry is encoded as valuation N.  Lengths of spans and quotients are read
off these valuations.

Presentations: a Z_p[X]-span of polynomial vectors inside (Z_p[X]/Q)^k,
Q monic, is laid out shift-major on k deg Q rows (_shift_columns), each
polynomial reduced mod Q in one top-down pass (_reduce).
lambda_column_span takes Q = omega_n: k p^n rows, a banded matrix.
_weierstrass_spans takes Q = P, the Weierstrass polynomial of a minor of
the relations with mu = 0 (_lifter), adds the columns omega_n e_i, and
presents the same quotient on k lambda rows.  A tower step reads two
levels on one _weierstrass_spans: P is lifted once, its digits continued
from rung to rung of the precision ladder, and each rung's P and
generator columns serve both levels, which differ only in the columns
omega_n e_i.  _snf takes unit pivots in Weierstrass order, so the fill
stays in the band, updates only the columns not yet pivoted, and
divides a block left without a unit by p once per valuation phase.

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
from itertools import chain

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

    A pivot normalizes and clears, and a phase divides, only the columns
    still to be read: no pivoted column is read again, so its stale
    entries cannot change a valuation.
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
        for at, c in enumerate(cols):
            pi = next((i for i in live if m[i][c] % p), -1)
            if pi < 0:
                rest.append(c)  # no unit here until the next phase
                continue
            live.remove(pi)
            # the spans start sparse: touch only the pivot row's nonzero live columns
            rowp, later = m[pi], chain(rest, cols[at + 1:])
            if (unit := rowp[c]) == 1:
                nonzero = [(j, x) for j in later if (x := rowp[j])]
            else:
                inv = pow(unit, -1, pe)
                nonzero = [(j, x * inv % pe) for j in later if (x := rowp[j])]
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
            row = m[i]
            for c in cols:
                row[c] //= p
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


def _low(pol) -> list[tuple[int, int]]:
    """The (index, value) pairs of the nonzero lower coefficients of a
    monic coefficient list."""
    return [(j, c) for j, c in enumerate(pol[:-1]) if c]


def _times_x(vec: list[int], low, q: int | None) -> list[int]:
    """X * vec mod a monic modulus of degree len(vec) whose lower
    coefficients are the (index, value) pairs ``low``; mod q if given
    (vec is then reduced mod q already)."""
    nxt = [0] + vec[:-1]
    if top := vec[-1]:
        for j, c in low:
            nxt[j] = (nxt[j] - top * c) % q if q else nxt[j] - top * c
    return nxt


def _reduce(coeffs, low, width: int, q: int | None) -> list[int]:
    """The coefficient vector (length ``width``) of a polynomial mod the
    monic modulus of _times_x; mod q if given.  One pass from the top
    coefficient down clears each coefficient in place into the ``width``
    below it; only the cleared coefficient is reduced mod q on the way,
    and one final % q reduces the result."""
    acc = list(coeffs) + [0] * (width - len(coeffs))
    for t in range(len(acc) - 1, width - 1, -1):
        if c := (acc[t] % q if q else acc[t]):
            base = t - width
            for j, x in low:
                acc[base + j] -= c * x
    del acc[width:]
    return [x % q for x in acc] if q else acc


def _generators(gens) -> tuple:
    """The polynomial vectors ``gens`` as tuples of LambdaElement, an
    integer entry as a constant; InvalidContext when there are none or
    their lengths differ."""
    gens = tuple(tuple(e if isinstance(e, LambdaElement) else LambdaElement.const(e) for e in g) for g in gens)
    if not gens:
        raise InvalidContext("need at least one generator")
    if any(len(gen) != len(gens[0]) for gen in gens):
        raise InvalidContext("generators of mixed rank")
    return gens


def _shift_columns(gens, low, width: int, q: int | None) -> list[list[tuple[int, ...]]]:
    """Per shift s < width, the columns X^s g_j of the polynomial vectors
    ``gens`` mod the monic modulus of _times_x (and mod q, if given),
    laid out shift-major: coefficient t of entry i is row t*k + i.  X
    moves a column down k rows, so X^s g_j fills only the rows of
    coefficients s .. s + deg g_j until the shift wraps past the modulus:
    a banded multiplication operator."""
    gens = _generators(gens)
    k = len(gens[0])
    vecs = [[_reduce(e.coeffs, low, width, q) for e in gen] for gen in gens]
    col = [0] * (k * width)
    by_shift = []
    for s in range(width):
        group = []
        for v in vecs:
            for i, vec in enumerate(v):
                col[i::k] = vec
            group.append(tuple(col))
        by_shift.append(group)
        if s < width - 1:
            vecs = [[_times_x(vec, low, q) for vec in v] for v in vecs]
    return by_shift


def lambda_column_span(ctx: PrimeContext, gens, level: int) -> SpanPresentation:
    """Exact integer realization of the Lambda_n-span of polynomial
    vectors inside Lambda_n^k = (Z_p[X]/omega_n)^k == Z_p^{k p^n}: the
    columns X^s g_j mod omega_n, s < p^n, as column s*len(gens) + j."""
    w = _omega(ctx.p, level).coeffs
    by_shift = _shift_columns(gens, _low(w), len(w) - 1, None)
    cols = tuple(c for group in by_shift for c in group)
    return SpanPresentation(ambient_rank=len(cols[0]), columns=cols)


def _lifter(d: LambdaElement, p: int):
    """A function e -> the Weierstrass polynomial P of d mod p^e, as its
    coefficient list in [0, p^e): monic of degree lambda(d), P ==
    X^lambda (mod p), and d == P U (mod p^e) with U(0) a unit
    (Washington, GTM 83, section 7.1).  The leading coefficient of d may
    be divisible by p (P then drops the roots of d outside the maximal
    ideal).  InvalidContext when mu(d) > 0: no coefficient is a unit.

    Hensel lift of d == X^lambda u (mod p), one p-adic digit at a time:
    if d == P U (mod p^i), the remainder r of d mod P is divisible by
    p^i, and P + p^i (u^-1 r / p^i mod (p, X^lambda)) is P mod p^{i+1}.
    Each digit is unique, so the lift to p^16 extends the lift to p^8,
    and each call (with rising e) continues where the last one stopped.
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
    done = 1  # pol is P mod p^done

    def lift(e: int) -> list[int]:
        nonlocal done
        for i in range(done, e):
            pi = p ** i
            t = [x // pi for x in _reduce(cs, _low(pol), lam, pi * p)]
            for j in range(lam):
                pol[j] += pi * (sum(t[a] * inv[j - a] for a in range(j + 1)) % p)
        done = max(done, e)
        return list(pol)

    return lift


def _weierstrass_spans(ctx: PrimeContext, gens, d: LambdaElement):
    """A function (level, e) -> the span of the generators and of
    omega_level e_i inside (Z/p^e[X]/P)^k == (Z/p^e)^{k lambda}, P the
    Weierstrass polynomial (_lifter) of a k x k minor d of the generators
    with mu(d) = 0.

    adj A = d I puts d e_i in the generators' span, and d = P U with U a
    unit mod omega_level (U(0) is a unit), so P e_i lies in the span of
    the generators and omega_level e_i.  So this span presents
    M_level = Lambda_level^k / <generators>, as lambda_column_span does,
    and its reading mod p^e is the reading of M_level / p^e.  Its Q-rank
    is k lambda less the Q-rank of M_level.  Column s*(g + k) + j is
    X^s times the j-th of the g generators and then of omega_level e_i.

    P (one lift, continued from rung to rung) and the generator columns
    X^s g_j mod P are built once per rung e and shared by every level
    read at it; a level adds only its k lambda columns X^s omega_level e_i,
    the _shift_columns of the unit vectors times omega_level.
    """
    p, k, lift, rungs = ctx.p, len(gens[0]), _lifter(d, ctx.p), {}

    def read(level: int, e: int) -> SpanPresentation:
        if e not in rungs:
            q, pol = p ** e, lift(e)
            width, low = len(pol) - 1, _low(pol)
            rungs[e] = q, width, low, _shift_columns(gens, low, width, q)
        q, width, low, gen_cols = rungs[e]
        w = _omega(p, level)
        units = [[w if i == j else 0 for i in range(k)] for j in range(k)]
        w_cols = _shift_columns(units, low, width, q)
        cols = tuple(c for group, w_group in zip(gen_cols, w_cols) for c in group + w_group)
        return SpanPresentation(ambient_rank=k * width, columns=cols)

    return read
