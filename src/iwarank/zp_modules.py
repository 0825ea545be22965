"""Finite-quotient linear algebra: Smith normal form over Z/p^N.

Z/p^N is a chain ring, so any matrix is equivalent to
diag(p^{a_1}, ..., p^{a_r}, 0) with a_1 <= ... <= a_r; a zero diagonal
entry is encoded as valuation N.  Lengths of spans and quotients are read
off these valuations.

Kernel: lambda_column_span lays a Lambda_n-span out shift-major, as a
banded matrix; _snf takes unit pivots in Weierstrass order, so the fill
stays in the band, and divides a block left without a unit by p once
per valuation phase.

Certificate: a span given by exact integer columns has Z_p elementary
divisors p^{a_i}, one per unit of its Q-rank, and reducing mod p^e reads
each of them as min(a_i, e).  So a reading at any e is exact if and only
if its count of finite valuations (those below e) equals the exact
Q-rank.  Readings climb a precision ladder e = min(8, N), 16, 32, ...
capped at N, and only a reading at N that falls short is refused.
Q-ranks never come from mod-p^e data: every caller passes the exact
rank from the cyclotomic rank profile of its relations.
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


def certified_valuations(
    ctx: PrimeContext, span: SpanPresentation, rank: int, level: int | None = None
) -> list[int]:
    """The finite SNF valuations of a span, certified exact: the first
    reading on the ladder e = min(8, N), 16, 32, ... capped at N with
    exactly ``rank`` of them, ``rank`` being the exact Q-rank of the
    span; PrecisionUnstable (carrying ``level``, the tower level the span
    presents, if given) when the reading at N falls short."""
    n = ctx.precision
    e = min(8, n)  # residues below 3^8 fit in one machine digit
    while len(vals := finite_valuations(span, ctx.p, e)) != rank:
        if e == n:
            raise PrecisionUnstable(
                f"{len(vals)} finite elementary divisors at N={n}, "
                f"exact rank {rank}: a divisor reaches p^{n}",
                precision=n, finite_count=len(vals), expected_rank=rank, level=level,
            )
        e = min(2 * e, n)
    return vals


def lambda_column_span(ctx: PrimeContext, gens, level: int) -> SpanPresentation:
    """Exact integer realization of the Lambda_n-span of polynomial
    vectors inside Lambda_n^k = (Z_p[X]/omega_n)^k == Z_p^{k p^n}.

    Each generator g_j contributes the columns X^s g_j mod omega_n for
    0 <= s < p^n; coefficients stay exact integers.  The layout is
    shift-major: coefficient t of entry i is row t*k + i, and X^s g_j is
    column s*len(gens) + j.  Multiplying by X moves a vector down k rows,
    so column X^s g_j is nonzero only in the rows of coefficients
    s .. s + deg g_j until the shift wraps past omega_n: the span is a
    banded multiplication operator, which _snf eliminates in band order.
    """
    p = ctx.p
    pn = p ** level
    gens = [tuple(g) for g in gens]
    if not gens:
        raise InvalidContext("need at least one generator")
    k = len(gens[0])
    omega = _omega(p, level)
    wc = omega.coeffs
    curs = []  # per generator, its k coefficient vectors times X^s
    for gen in gens:
        if len(gen) != k:
            raise InvalidContext("generators of mixed rank")
        cur = []
        for entry in gen:
            if not isinstance(entry, LambdaElement):
                entry = LambdaElement.const(entry)
            rem = entry.reduced_mod(omega)
            cur.append(list(rem.coeffs) + [0] * (pn - len(rem.coeffs)))
        curs.append(cur)
    cols: list[tuple[int, ...]] = []
    col = [0] * (k * pn)
    for s in range(pn):
        for cur in curs:
            for i, vec in enumerate(cur):
                col[i::k] = vec
            cols.append(tuple(col))
        if s < pn - 1:
            for cur in curs:
                for i, vec in enumerate(cur):
                    top = vec[-1]
                    nxt = [0] + vec[:-1]
                    if top:
                        for j in range(1, pn):
                            nxt[j] -= top * wc[j]
                    cur[i] = nxt
    return SpanPresentation(ambient_rank=k * pn, columns=tuple(cols))
