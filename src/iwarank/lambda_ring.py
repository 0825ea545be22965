"""Exact arithmetic in the Iwasawa algebra Z_p[[X]], restricted to
integer-coefficient polynomials.

Everything a finite-level computation touches lives in some quotient
Lambda/(omega_n), and integer polynomials represent every class there
exactly.  Keeping coefficients in Z (instead of truncated p-adics) is
what makes ranks and valuations exact; reduction mod p^N happens only
inside the finite-quotient machinery of zp_modules.

The signed products split omega_n = (1+X)^{p^n} - 1 into its cyclotomic
factors Phi_m by parity of m:

    omega_n^+ = X * prod_{2 <= m <= n, m even} Phi_m
    omega_n^- = X * prod_{1 <= m <= n, m odd } Phi_m

with omega-tilde the same products without the leading X, and the
conventions omega_0^{+/-} = X, tilde_0^{+/-} = 1.

No product of factors is multiplied out.  For m >= 1,
Phi_m = sum_{k<p} (1+X)^{k p^{m-1}}, and the exponents
sum_m k_m p^{m-1} over a set S of distinct levels are distinct base-p
numbers, so

    prod_{m in S} Phi_m = sum_{t in T(S)} (1+X)^t,

T(S) the t whose base-p digits are zero except at the positions m - 1,
m in S (times X when 0 is in S).  Each row (1+X)^t is built by
C(t, j+1) = C(t, j)(t-j)/(j+1), so a product costs sum_{t in T(S)} t
coefficient steps; omega_n is the single row of (1+X)^{p^n} - 1.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from functools import cached_property, lru_cache
from operator import index

from .errors import InvalidContext, ZeroElement

# Largest p^n for which omega_n / Phi_n are built as explicit coefficient
# vectors.  Above this the binomials alone run to megabytes; degree
# bookkeeping (signed_degree below) covers the large-level needs.
MAX_EXPLICIT_LENGTH = 20_000

# p-adic digits N of the finite quotients over Z/p^N, unless asked otherwise
DEFAULT_PRECISION = 40


# Miller-Rabin with the prime bases 2..41 decides primality exactly
# below this bound (Sorenson & Webster 2015).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
MAX_PRIME = 3317044064679887385961981


def is_odd_prime(p: int) -> bool:
    """Deterministic Miller-Rabin; InvalidContext for p >= MAX_PRIME,
    where the fixed bases no longer decide."""
    if p >= MAX_PRIME:
        raise InvalidContext(f"p must be below {MAX_PRIME}, got {p}")
    if p < 3 or p % 2 == 0:
        return False
    if p in _MR_BASES:
        return True
    d, s = p - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _MR_BASES:
        x = pow(a, d, p)
        if x == 1 or x == p - 1:
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


def vp(x: int, p: int) -> int:
    """p-adic valuation of a nonzero integer."""
    if x == 0:
        raise ZeroElement("valuation of 0 is infinite")
    v = 0
    while x % p == 0:
        x //= p
        v += 1
    return v


def _require_ints(**values):
    """Refuse, naming it, the first value that operator.index rejects (no
    __index__: a float, Fraction or string), before any check compares
    or counts it."""
    for name, value in values.items():
        if not hasattr(type(value), "__index__"):
            raise InvalidContext(f"{name} must be an integer, got {value!r}")


def _require_at_least(least: int, **values):
    """Refuse, naming it, the first value that is not an integer
    (_require_ints), then the first below least."""
    _require_ints(**values)
    for name, value in values.items():
        if value < least:
            raise InvalidContext(f"{name} must be >= {least}, got {value}")


@dataclass(frozen=True)
class PrimeContext:
    """Computation context: the odd prime p, the working precision N
    (finite quotients are computed over Z/p^N), and a margin that is
    validated and echoed in the CLI envelope but read by no computation."""

    p: int
    precision: int = DEFAULT_PRECISION
    margin: int = 8

    def __post_init__(self):
        _require_ints(p=self.p, precision=self.precision, margin=self.margin)
        if not is_odd_prime(self.p):
            raise InvalidContext(f"p must be an odd prime, got {self.p}")
        _require_at_least(1, precision=self.precision, margin=self.margin)



class LambdaElement:
    """An integer polynomial in X, trailing zeros stripped.

    Immutable; supports +, -, *, ** and exact division by monic
    polynomials, which is all the quotient arithmetic ever needs.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = list(coeffs)
        while cs and cs[-1] == 0:
            cs.pop()
        # index, not int: a float, Fraction or string coefficient raises
        # TypeError instead of being truncated
        object.__setattr__(self, "coeffs", tuple(map(index, cs)))

    # -- constructors -------------------------------------------------

    @classmethod
    def const(cls, c: int) -> "LambdaElement":
        return cls((c,))

    # -- structure ----------------------------------------------------

    @property
    def degree(self) -> int:
        """Degree, with the convention deg 0 = -1."""
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other) -> bool:
        if isinstance(other, int):
            other = LambdaElement.const(other)
        if not isinstance(other, LambdaElement):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        # a constant hashes as its integer (zero as 0), since __eq__ equates them
        return hash(self.coeffs if len(self.coeffs) > 1 else sum(self.coeffs))

    def __repr__(self):
        if self.is_zero:
            return "0"
        parts = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if i == 0:
                parts.append(str(c))
            else:
                x = "X" if i == 1 else f"X^{i}"
                parts.append(x if c == 1 else f"-{x}" if c == -1 else f"{c}*{x}")
        return " + ".join(reversed(parts)).replace("+ -", "- ")

    # -- arithmetic ---------------------------------------------------

    def __add__(self, other):
        if isinstance(other, int):
            other = LambdaElement.const(other)
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return LambdaElement(out)

    __radd__ = __add__

    def __neg__(self):
        return LambdaElement(tuple(-c for c in self.coeffs))

    def __sub__(self, other):
        if isinstance(other, int):
            other = LambdaElement.const(other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, int):
            return LambdaElement(tuple(other * c for c in self.coeffs))
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return LambdaElement()
        out = [0] * (len(a) + len(b) - 1)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    out[i + j] += ai * bj
        return LambdaElement(out)

    __rmul__ = __mul__

    def __pow__(self, e: int):
        if e < 0:
            raise ValueError("negative power")
        result = LambdaElement.const(1)
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def divmod_monic(self, divisor: "LambdaElement"):
        """Exact (quotient, remainder) division by a monic divisor."""
        d = divisor.degree
        if d < 0 or divisor.coeffs[-1] != 1:
            raise ValueError("divisor must be monic")
        rem = list(self.coeffs)
        if len(rem) <= d:
            return LambdaElement(), self
        quo = [0] * (len(rem) - d)
        for i in range(len(rem) - 1, d - 1, -1):
            c = rem[i]
            if c:
                quo[i - d] = c
                for j, dj in enumerate(divisor.coeffs):
                    rem[i - d + j] -= c * dj
        return LambdaElement(quo), LambdaElement(rem[:d])

    def reduced_mod(self, divisor: "LambdaElement") -> "LambdaElement":
        return self.divmod_monic(divisor)[1]

    def divisible_by(self, divisor: "LambdaElement") -> bool:
        return self.divmod_monic(divisor)[1].is_zero

    def exact_div(self, divisor: "LambdaElement") -> "LambdaElement":
        q, r = self.divmod_monic(divisor)
        if not r.is_zero:
            raise ValueError("division not exact")
        return q

    # -- serialization ------------------------------------------------

    def to_json_dict(self) -> dict:
        return {"coeffs": [str(c) for c in self.coeffs]}

    @classmethod
    def from_json_dict(cls, obj) -> "LambdaElement":
        """From {"coeffs": [...]}, a coefficient list or one coefficient;
        each coefficient a non-bool int or an integer string."""
        coeffs = obj["coeffs"] if isinstance(obj, dict) else obj if isinstance(obj, list) else [obj]
        if not isinstance(coeffs, list) or any(isinstance(c, bool) or not isinstance(c, (int, str)) for c in coeffs):
            raise ValueError(f"cannot decode polynomial from {obj!r}: coefficients must be integers")
        return cls(int(c) for c in coeffs)


def _dot(u, v, w, z) -> LambdaElement:
    """u*v + w*z in one coefficient list."""
    out = [0] * max(len(u.coeffs) + len(v.coeffs), len(w.coeffs) + len(z.coeffs))
    for a, b in ((u.coeffs, v.coeffs), (w.coeffs, z.coeffs)):
        if b:
            for i, ai in enumerate(a):
                if ai:
                    for j, bj in enumerate(b, i):
                        out[j] += ai * bj
    while out and out[-1] == 0:
        out.pop()
    r = object.__new__(LambdaElement)
    object.__setattr__(r, "coeffs", tuple(out))
    return r


X = LambdaElement((0, 1))
ONE = LambdaElement((1,))
ZERO = LambdaElement()


@dataclass(frozen=True)
class LambdaMatrix:
    """A 2x2 matrix over the polynomial ring, row-major; det is computed
    on first access and cached.

    All module-theoretic conventions are column-based: the span of the
    matrix is generated by its two columns.
    """

    rows: tuple

    def __post_init__(self):
        rs = tuple(
            tuple(e if isinstance(e, LambdaElement) else LambdaElement.const(e) for e in row)
            for row in self.rows
        )
        if len(rs) != 2 or any(len(r) != 2 for r in rs):
            raise ValueError("expected a 2x2 matrix")
        object.__setattr__(self, "rows", rs)

    @cached_property
    def det(self) -> LambdaElement:
        (a, c), (b, d) = self.rows
        return a * d - c * b

    @classmethod
    def identity(cls) -> "LambdaMatrix":
        return cls(((ONE, ZERO), (ZERO, ONE)))

    @classmethod
    def diagonal(cls, a, b) -> "LambdaMatrix":
        return cls(((a, ZERO), (ZERO, b)))

    def column(self, j: int):
        return (self.rows[0][j], self.rows[1][j])

    @property
    def columns(self):
        return (self.column(0), self.column(1))

    @property
    def entries(self):
        return (self.rows[0][0], self.rows[0][1], self.rows[1][0], self.rows[1][1])

    def __repr__(self):
        return f"[[{self.rows[0][0]!r}, {self.rows[0][1]!r}], [{self.rows[1][0]!r}, {self.rows[1][1]!r}]]"

    def __add__(self, other):
        return LambdaMatrix(
            tuple(tuple(a + b for a, b in zip(ra, rb)) for ra, rb in zip(self.rows, other.rows))
        )

    def __matmul__(self, other: "LambdaMatrix") -> "LambdaMatrix":
        (a, c), (b, d) = self.rows
        (e, g), (f, h) = other.rows
        return LambdaMatrix(((_dot(a, e, c, f), _dot(a, g, c, h)), (_dot(b, e, d, f), _dot(b, g, d, h))))

    def scaled(self, s) -> "LambdaMatrix":
        return LambdaMatrix(tuple(tuple(s * e for e in row) for row in self.rows))

    def to_json_list(self) -> list:
        return [[e.to_json_dict() for e in row] for row in self.rows]

    @classmethod
    def from_json_list(cls, obj) -> "LambdaMatrix":
        return cls(tuple(tuple(LambdaElement.from_json_dict(e) for e in row) for row in obj))


def json_form(value):
    """The JSON form of a result or of one record field: anything with
    its own to_json_dict (polynomials, records) gives that dict, a matrix
    its rows, a tuple or list the list of its items' forms, a dict the
    dict of its values' forms; any other value is already JSON."""
    if hasattr(value, "to_json_dict"):
        return value.to_json_dict()
    if isinstance(value, LambdaMatrix):
        return value.to_json_list()
    if isinstance(value, (tuple, list)):
        return [json_form(v) for v in value]
    if isinstance(value, dict):
        return {k: json_form(v) for k, v in value.items()}
    return value


class Record:
    """Mixin for result dataclasses: the JSON form is the dict of the
    fields' JSON forms, keyed by field name."""

    def to_json_dict(self) -> dict:
        return {f.name: json_form(getattr(self, f.name)) for f in fields(self)}


@dataclass(frozen=True)
class IwasawaInvariants:
    """mu = minimal coefficient valuation, lambda = first index attaining it
    (the Weierstrass reading for polynomial inputs)."""

    mu: int
    lambda_: int

    def to_json_dict(self) -> dict:
        return {"mu": self.mu, "lambda": self.lambda_}


@dataclass(frozen=True)
class OmegaTower(Record):
    """The level-n relation polynomial omega_n with its signed split."""

    n: int
    omega_n: LambdaElement
    omega_plus: LambdaElement
    omega_minus: LambdaElement
    omega_tilde_plus: LambdaElement
    omega_tilde_minus: LambdaElement


def _past_cap(p: int, n: int) -> bool:
    """Whether p^n exceeds the explicit-construction cap.  p^n >= 2^n
    passes it once n reaches the cap's bit length, so a large n is
    decided without building its power."""
    return n >= MAX_EXPLICIT_LENGTH.bit_length() or p ** n > MAX_EXPLICIT_LENGTH


def check_level(p: int, n: int):
    """Refuse a level that is not an integer, then a negative one, then
    one past the explicit-construction cap (InvalidContext)."""
    _require_at_least(0, level=n)
    if _past_cap(p, n):
        raise InvalidContext(
            f"p^n = {p}^{n} exceeds the explicit-construction bound "
            f"{MAX_EXPLICIT_LENGTH}; use degree bookkeeping for large levels"
        )


def _rows(ts) -> LambdaElement:
    """sum_{t in ts} (1+X)^t, each binomial row by C(t, j+1) = C(t, j)(t-j)/(j+1)."""
    out = [0] * (max(ts) + 1)
    for t in ts:
        c = 1
        for j in range(t + 1):
            out[j] += c
            c = c * (t - j) // (j + 1)
    return LambdaElement(out)


@lru_cache(maxsize=None)
def _phi_product(p: int, levels: tuple) -> LambdaElement:
    """prod_{m in levels} Phi_m over distinct levels: the rows (1+X)^t
    over the digit patterns t (module docstring), times X when 0 is a
    level."""
    for m in levels:
        check_level(p, m)  # a refused level raises, and lru_cache keeps no entry for it
    if 0 in levels:
        return LambdaElement((0,) + _phi_product(p, tuple(m for m in levels if m)).coeffs)
    ts = [0]
    for m in levels:
        ts = [t + k * p ** (m - 1) for t in ts for k in range(p)]
    return _rows(ts)


# typed: a float level is its own key, so it misses and check_level refuses it.
# This refusal cannot move into a typed _phi_product: typed keys on the types
# of the arguments, not of a tuple's items, so (3, (1.0,)) would be served
# from the (3, (1,)) entry.
@lru_cache(maxsize=None, typed=True)
def _phi(p: int, m: int) -> LambdaElement:
    check_level(p, m)
    return _phi_product(p, (m,))


@lru_cache(maxsize=None, typed=True)
def _omega(p: int, n: int) -> LambdaElement:
    check_level(p, n)
    return _rows([p ** n]) - 1


def cyclotomic_phi(ctx: PrimeContext, m: int) -> LambdaElement:
    """The level-m cyclotomic factor: Phi_0 = X and, for m >= 1, the
    minimal polynomial of zeta_{p^m} - 1 (distinguished of degree
    p^m - p^{m-1}); a negative level or one past the explicit cap is
    refused."""
    return _phi(ctx.p, m)


def omega_poly(ctx: PrimeContext, n: int) -> LambdaElement:
    """omega_n = (1+X)^{p^n} - 1; a negative level or one past the
    explicit cap is refused."""
    return _omega(ctx.p, n)


def euler_phi_pk(p: int, m: int) -> int:
    """Degree of Phi_m: 1 for m = 0, else p^m - p^{m-1}."""
    return 1 if m == 0 else p ** m - p ** (m - 1)


def signed_degree(p: int, n: int, sign: str) -> int:
    """Degree of omega-tilde_n^{sign} by exact factor bookkeeping (all
    factors are monic, so degrees add); omega_n^{sign} has one more.
    sign '+' collects even m >= 2, sign '-' collects odd m."""
    _require_ints(level=n)
    if sign not in ("+", "-"):
        raise ValueError("sign must be '+' or '-'")
    start = 2 if sign == "+" else 1
    return sum(euler_phi_pk(p, m) for m in range(start, n + 1, 2))


def omega_tower(ctx: PrimeContext, n: int) -> OmegaTower:
    """Explicit construction of omega_n and its signed split at level n."""
    check_level(ctx.p, n)
    plus, minus = tuple(range(2, n + 1, 2)), tuple(range(1, n + 1, 2))
    return OmegaTower(
        n=n,
        omega_n=_omega(ctx.p, n),
        omega_plus=_phi_product(ctx.p, (0, *plus)),
        omega_minus=_phi_product(ctx.p, (0, *minus)),
        omega_tilde_plus=_phi_product(ctx.p, plus),
        omega_tilde_minus=_phi_product(ctx.p, minus),
    )


def iwasawa_invariants(ctx: PrimeContext, f: LambdaElement) -> IwasawaInvariants:
    """mu/lambda of a nonzero polynomial, read off coefficient valuations."""
    if f.is_zero:
        raise ZeroElement("mu/lambda of the zero element are undefined")
    vals = [vp(c, ctx.p) if c else None for c in f.coeffs]
    mu = min(v for v in vals if v is not None)
    lam = next(i for i, v in enumerate(vals) if v == mu)
    return IwasawaInvariants(mu=mu, lambda_=lam)
