"""The Weierstrass presentation built one level and one rung at a time,
kept as a test oracle for zp_modules, which shares P and the generator
columns between levels and rungs.

Everything here is rebuilt per call: P is lifted from its first digit,
every polynomial is reduced mod the modulus by Horner's rule (one X-step
at a time, each step building new lists), and omega_level e_i enters as
k generators with k entries each, so omega_level is reduced mod P once
per generator slot.
"""

from iwarank.errors import InvalidContext
from iwarank.lambda_ring import LambdaElement, PrimeContext, _omega
from iwarank.zp_modules import SpanPresentation


def times_x(vec: list[int], low, q: int | None) -> list[int]:
    """X * vec mod a monic modulus of degree len(vec) whose lower
    coefficients are the (index, value) pairs ``low``; mod q if given."""
    nxt = [0] + vec[:-1]
    if top := vec[-1]:
        for j, c in low:
            nxt[j] -= top * c
        if q:
            nxt = [x % q for x in nxt]
    return nxt


def horner_reduce(coeffs, low, width: int, q: int | None) -> list[int]:
    """The coefficient vector (length ``width``) of a polynomial mod the
    monic modulus of times_x, by Horner's rule; mod q if given."""
    if not width:
        return []
    cut = max(len(coeffs) - width, 0)
    acc = list(coeffs[cut:]) + [0] * (width - len(coeffs) + cut)
    for c in reversed(coeffs[:cut]):
        acc = times_x(acc, low, q)
        acc[0] += c
    return [x % q for x in acc] if q else acc


def shift_span(gens, modulus: LambdaElement, q: int | None = None) -> SpanPresentation:
    """The columns X^s g_j mod a monic ``modulus``, 0 <= s < deg modulus,
    shift-major: coefficient t of entry i is row t*k + i, and X^s g_j is
    column s*len(gens) + j."""
    gens = [tuple(g) for g in gens]
    if not gens:
        raise InvalidContext("need at least one generator")
    k = len(gens[0])
    width = modulus.degree
    low = [(j, c) for j, c in enumerate(modulus.coeffs[:width]) if c]
    curs = []
    for gen in gens:
        if len(gen) != k:
            raise InvalidContext("generators of mixed rank")
        curs.append([
            horner_reduce(e.coeffs if isinstance(e, LambdaElement) else (e,), low, width, q)
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
                cur[:] = [times_x(vec, low, q) for vec in cur]
    return SpanPresentation(ambient_rank=k * width, columns=tuple(cols))


def weierstrass_lift(d: LambdaElement, p: int, e: int) -> LambdaElement:
    """The Weierstrass polynomial of d mod p^e, lifted from its first
    digit."""
    cs = d.coeffs
    lam = next((i for i, c in enumerate(cs) if c % p), None)
    if lam is None:
        raise InvalidContext("mu > 0: the polynomial has no Weierstrass polynomial")
    u = [c % p for c in cs[lam:2 * lam + 1]] + [0] * lam
    inv = [pow(u[0], -1, p)]
    for j in range(1, lam):
        inv.append(-inv[0] * sum(u[a] * inv[j - a] for a in range(1, j + 1)) % p)
    pol = [0] * lam + [1]
    for i in range(1, e):
        pi = p ** i
        low = [(j, c) for j, c in enumerate(pol[:lam]) if c]
        t = [x // pi for x in horner_reduce(cs, low, lam, pi * p)]
        for j in range(lam):
            pol[j] += pi * (sum(t[a] * inv[j - a] for a in range(j + 1)) % p)
    return LambdaElement(pol)


def weierstrass_span(ctx: PrimeContext, gens, d: LambdaElement, level: int, e: int) -> SpanPresentation:
    """The span of the generators and of omega_level e_i inside
    (Z/p^e[X]/P)^k, built from scratch."""
    k, w = len(gens[0]), _omega(ctx.p, level)
    omegas = [tuple(w if i == j else 0 for i in range(k)) for j in range(k)]
    return shift_span([*gens, *omegas], weierstrass_lift(d, ctx.p, e), ctx.p ** e)
