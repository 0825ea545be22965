"""Seeded randomized verification sweeps.

Each suite draws reproducible random instances (the RNG is seeded from
the user seed and the suite name), runs the brute-force rank engine
against the matching closed form or structural property, and reports
per-sweep outcomes.  A nonzero failure count anywhere flips the suite
verdict; precision instability raises instead of reporting.  A draw is
repeated until it passes its generator's test (nonzero det, a wanted
rank profile); a generator with no accepted draw in 1000 tries raises
PostconditionFailed, so a library fault ends the run instead of hanging
it.

A generated draw carries the answer its construction predicts, so no
sweep compares the library with a second call of the library:

  special matrices  A = B D: the levels m of the Phi_m put in each column
                    of D give the rank profile rank A(eps_m) = 2 - i_m
  cyclic towers     f = p^a prod_{m in S} Phi_m u (n not in S, u(0) a
                    unit): ord_{eps_n} f = a phi(p^n) + sum_{m in S}
                    phi(p^{min(m, n)}), since u(eps_n) is a unit and
                    ord_{eps_n} Phi_m = phi(p^{min(m, n)}) for m != n
                    (Kobayashi's norm computation, Invent. Math. 152)
  torsion towers    f = p^a prod_{m in S} Phi_m g, g distinguished:
                    mu = a and lambda = sum_{m in S} phi(p^m) + deg g

Suites:

  thm-app    special 2x2 matrices: brute nabla == ord_{eps_n}(det), plus
             the rank identity rank A(eps_m) = 2 - i_m
  lemma-3.3  cyclic towers: brute nabla == ord_{eps_n}(f); square torsion
             towers: stabilized nabla == lambda + (p^n - p^{n-1}) mu
  additivity block-diagonal joins and constant finite systems
  parity     Coleman data: parity congruences, good-basis transforms and
             the signed closed form.  good_basis_transform checks before
             it returns that det B vanishes at no eps_m and that F_n B is
             special at every level; a draw whose transform raises
             PostconditionFailed counts as a good-basis failure
  rod        span saturation against omega_n at a higher level, and
             refusal when a Phi_m (m <= n) divides det B
  degrees    reduced signed-product degree identities
  growth     Sha growth tables: frozen regression row and telescoping
  precision  low-precision drill: the engine must raise, never lie
"""

from __future__ import annotations

import math
import random
from collections import Counter
from dataclasses import dataclass, field

from .cyclo_eval import _residue, matrices_proportional_at_eps, rank_at_eps
from .errors import InvalidContext, NotCoprime, PostconditionFailed, PrecisionUnstable
from .growth_model import InvariantSet, degree_identities, delta_e, sha_growth
from .kobayashi_rank import (
    CyclicTower,
    MatrixTower,
    TorsionTower,
    additivity_check,
    nabla_coleman_tower,
    nabla_cyclic,
    nabla_matrix_tower,
    nabla_torsion_tower,
)
from .lambda_ring import (
    DEFAULT_PRECISION,
    ONE,
    X,
    LambdaElement,
    LambdaMatrix,
    PrimeContext,
    Record,
    _phi_product,
    cyclotomic_phi,
    euler_phi_pk,
    omega_poly,
)
from .special_matrices import (
    ColemanData,
    assemble_fn,
    good_basis_transform,
    parity_reference,
    rod_check,
)


@dataclass
class CheckOutcome(Record):
    name: str
    ok: bool
    details: dict = field(default_factory=dict)


@dataclass
class SuiteReport(Record):
    suite: str
    seed: int
    checks: list[CheckOutcome]

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)

    def to_json_dict(self) -> dict:
        return {**super().to_json_dict(), "ok": self.ok}


def _sweep(name: str, count: int, trial, **details) -> CheckOutcome:
    """Run trial(i) for i < count; each returns the list of its failures
    (JSON-ready dicts), the first of which is reported as the example."""
    failures = [failure for i in range(count) for failure in trial(i)]
    out = {"count": count, **details, "failures": len(failures)}
    if failures:
        out["example"] = failures[0]
    return CheckOutcome(name=name, ok=not failures, details=out)


def _scaled(count: int, scale: float) -> int:
    if not math.isfinite(count * scale):
        raise InvalidContext(f"scale {scale} overflows the sweep count {count}")
    return max(1, round(count * scale))


_MAX_DRAWS = 1000


def _draw(draw, accept, what: str):
    """The first value of draw() that accept takes.  After _MAX_DRAWS
    rejected draws, which no working library needs, raise
    PostconditionFailed, so a fault that rejects every draw ends the run
    instead of hanging it."""
    for _ in range(_MAX_DRAWS):
        if accept(value := draw()):
            return value
    raise PostconditionFailed(f"internal: no {what} accepted in {_MAX_DRAWS} draws")


def _rand_poly(rng, max_deg: int, bound: int = 5, nonzero: bool = True) -> LambdaElement:
    return _draw(lambda: LambdaElement([rng.randint(-bound, bound) for _ in range(max_deg + 1)]),
                 lambda f: not (nonzero and f.is_zero), "nonzero polynomial")


def _rand_unit_poly(rng, p: int, max_deg: int, bound: int = 5) -> LambdaElement:
    """Random polynomial with unit constant term."""
    f = _rand_poly(rng, max_deg, bound, nonzero=False)
    c0 = _draw(lambda: rng.randint(1, bound), lambda c: c % p, "unit constant term")
    return f - f.coeffs[0] + c0 if f.coeffs else LambdaElement([c0])


def _rand_matrix(rng, max_deg: int, bound: int = 5) -> LambdaMatrix:
    def draw():
        a, b, c, d = (_rand_poly(rng, max_deg, bound, nonzero=False) for _ in range(4))
        return LambdaMatrix(((a, b), (c, d)))

    return _draw(draw, lambda m: not m.det.is_zero, "matrix with nonzero det")


def rand_special_matrix(ctx: PrimeContext, rng, n: int, max_deg: int = 3) -> tuple:
    """A = B D with D diagonal squarefree Phi-products over m <= n-1 and
    det B free of every Phi_m (m <= n); returns (A, per-column levels)."""
    b = _draw(lambda: _rand_matrix(rng, max_deg, bound=4),
              lambda b: all(_residue(ctx, m, b.det) for m in range(n + 1)), f"det B free of Phi_0 .. Phi_{n}")
    levels = tuple(tuple(m for m in range(n) if rng.random() < 0.45) for _ in (0, 1))
    return b @ LambdaMatrix.diagonal(*(_phi_product(ctx.p, js) for js in levels)), levels


def rand_cyclic_poly(ctx: PrimeContext, rng, n: int) -> tuple:
    """f = p^a * (product of Phi_m, m != n) * unit-constant polynomial,
    with its ord_{eps_n} predicted from that construction (module
    docstring)."""
    p = ctx.p
    a = rng.randint(0, 2)
    ms = tuple(m for m in range(4) if m != n and rng.random() < 0.35)
    f = _phi_product(p, ms) * _rand_unit_poly(rng, p, max_deg=4) * p**a
    return f, a * euler_phi_pk(p, n) + sum(euler_phi_pk(p, min(m, n)) for m in ms)


def rand_unit_resultant_matrix(ctx: PrimeContext, rng) -> LambdaMatrix:
    """Random 2x2 matrix whose determinant is a unit at every eps_m:
    exactly when p does not divide det B(0), since Phi_m(0) is p (0 for
    m = 0), so the constant term of det B mod Phi_m is det B(0) mod p."""
    return _draw(lambda: _rand_matrix(rng, 2, bound=3), lambda b: b.det.coeffs[0] % ctx.p, "unit-resultant matrix")


def _rand_unimodular(rng) -> LambdaMatrix:
    c = rng.randint(-2, 2)
    shapes = (((1, c), (0, 1)), ((1, 0), (c, 1)), ((0, 1), (-1, 0)), ((-1, 0), (0, 1)))
    return LambdaMatrix(shapes[rng.randrange(4)])


# kind -> the levels where the parity reference drops rank, with the rank
# it drops to; at every other level m <= 3 it has full rank 2
COLEMAN_KINDS = {
    "generic": {},
    "minus_rank1": {1: 1},
    "minus_rank1_m0": {0: 1},
    "plus_rank1": {2: 1},
    "minus_rank0": {1: 0},
}

# kind -> (m, d): the first column of col_minus is Phi_m (g0, g1), deg g_i <= d
_MINUS_COLUMN = {"minus_rank1": (1, 2), "minus_rank1_m0": (0, 3)}


def rand_coleman_data(ctx: PrimeContext, rng, kind: str = "generic") -> ColemanData:
    """Random Coleman pair with a prescribed rank profile of the parity
    references at eps_0 .. eps_3 (COLEMAN_KINDS; ValueError otherwise):

      generic        every parity reference has full rank at its eps_m
      minus_rank1    col_minus drops to rank one at eps_1
      minus_rank1_m0 col_minus drops to rank one at eps_0
      plus_rank1     col_plus drops to rank one at eps_2 (det = unit * X^2 Phi_2)
      minus_rank0    col_minus vanishes at eps_1 (a full Phi_1 factor)

    Pairs are drawn until one has a nonzero det on both sides and the
    wanted profile; none in 1000 draws raises PostconditionFailed.
    """
    if kind not in COLEMAN_KINDS:
        raise ValueError(f"unknown Coleman kind {kind!r}")
    p = ctx.p
    wanted = {m: 2 for m in range(4)} | COLEMAN_KINDS[kind]

    def draw():
        col_plus = _rand_matrix(rng, 3, bound=4).scaled(X)
        col_minus = _rand_matrix(rng, 4, bound=4)
        if kind in _MINUS_COLUMN:
            m, deg = _MINUS_COLUMN[kind]
            g0, g1 = (cyclotomic_phi(ctx, m) * _rand_poly(rng, deg, bound=3) for _ in range(2))
            col_minus = LambdaMatrix(((g0, col_minus.rows[0][1]), (g1, col_minus.rows[1][1])))
        elif kind == "plus_rank1":
            # det = Phi_2, as Phi_2 = sum_{k<p} (1 + omega_1)^k is p mod omega_1
            w1 = omega_poly(ctx, 1)
            core = LambdaMatrix((((cyclotomic_phi(ctx, 2) - p).exact_div(w1), -1), (p, w1)))
            col_plus = (_rand_unimodular(rng) @ core @ _rand_unimodular(rng)).scaled(X)
        elif kind == "minus_rank0":
            col_minus = _rand_matrix(rng, 2, bound=3).scaled(cyclotomic_phi(ctx, 1))
        return ColemanData(col_plus, col_minus)

    def accept(cd):
        nonzero = not (cd.col_plus.det.is_zero or cd.col_minus.det.is_zero)
        return nonzero and {m: rank_at_eps(ctx, m, parity_reference(cd, m).columns, 2) for m in range(4)} == wanted

    return _draw(draw, accept, f"{kind} Coleman pair")


_SUITES = {}


def _suite(name: str):
    """Register body(rng, scale, precision) -> checks as the suite
    ``name``: the registered suite_*(seed, scale, precision) seeds the RNG
    from the seed and the name, and reports the body's checks."""

    def register(body):
        def suite(seed: int, scale: float = 1.0, precision: int = DEFAULT_PRECISION) -> SuiteReport:
            checks = body(random.Random(f"{seed}:{name}"), scale, precision)
            return SuiteReport(suite=name, seed=seed, checks=checks)

        suite.__name__ = suite.__qualname__ = body.__name__
        suite.__doc__ = body.__doc__
        _SUITES[name] = suite
        return suite

    return register


@_suite("thm-app")
def suite_thm_app(rng, scale, precision):
    checks = []
    for p, n_top in ((3, 3), (5, 2)):
        ctx = PrimeContext(p, precision=precision)
        for n in range(1, n_top + 1):
            def trial(_):
                a, levels = rand_special_matrix(ctx, rng, n)
                res = nabla_matrix_tower(ctx, a, n)
                rank_ok = all(
                    rank_at_eps(ctx, m, a.columns, 2) == 2 - sum(1 for js in levels if m in js)
                    for m in range(n)
                )
                if res.agrees is True and rank_ok:
                    return []
                return [{"matrix": a.to_json_list(), "result": res.to_json_dict()}]

            checks.append(_sweep(f"special-p{p}-n{n}", _scaled(50, scale), trial))
    return checks


@_suite("lemma-3.3")
def suite_lemma_33(rng, scale, precision):
    ctx = PrimeContext(3, precision=precision)
    checks = []
    for n in (1, 2, 3):
        def cyclic_trial(_):
            f, predicted = rand_cyclic_poly(ctx, rng, n)
            res = nabla_cyclic(ctx, f, n)
            if res.agrees is True and res.closed_form == predicted:
                return []
            return [{"f": f.to_json_dict(), "result": res.to_json_dict()}]

        checks.append(_sweep(f"cyclic-ord-n{n}", _scaled(36, scale), cyclic_trial))

    def torsion_trial(_):
        a = rng.randint(0, 2)
        ms = tuple(m for m in (0, 1) if rng.random() < 0.5)
        g = LambdaElement([3 * rng.randint(-2, 2) for _ in range(rng.randint(0, 2))] + [1])
        f = _phi_product(ctx.p, ms) * g * ctx.p**a
        lambda_ = sum(euler_phi_pk(3, m) for m in ms) + g.degree  # and mu = a
        tower = TorsionTower(columns=((f,),))
        failures = []
        for n in (2, 3):
            res = nabla_torsion_tower(ctx, tower, n)
            if not (res.closed_form == lambda_ + euler_phi_pk(3, n) * a and res.agrees is True):
                failures.append({"f": f.to_json_dict(), "n": n})
        return failures

    checks.append(_sweep("torsion-stabilized", _scaled(12, scale), torsion_trial, levels=[2, 3]))
    return checks


def _rand_summand(ctx: PrimeContext, rng, n: int):
    kind = rng.randrange(3)
    if kind == 0:
        f, _ = rand_cyclic_poly(ctx, rng, n)
        return CyclicTower(f=f)
    if kind == 1:
        a, _ = rand_special_matrix(ctx, rng, n, max_deg=2)
        return MatrixTower(matrix=a)
    m = _draw(lambda: _rand_matrix(rng, 2, bound=3), lambda m: _residue(ctx, n, m.det), f"det free of Phi_{n}")
    return TorsionTower(columns=m.columns)


@_suite("additivity")
def suite_additivity(rng, scale, precision):
    ctx = PrimeContext(3, precision=precision)

    def trial(i):
        n = 1 + (i % 2)
        left, right = _rand_summand(ctx, rng, n), _rand_summand(ctx, rng, n)
        return [] if additivity_check(ctx, left, right, n) else [{"n": n}]

    finite = TorsionTower(columns=((LambdaElement.const(3),), (X,)))
    zeros = [nabla_torsion_tower(ctx, finite, n).nabla for n in (1, 2)]
    return [
        _sweep("direct-sums", _scaled(20, scale), trial),
        CheckOutcome(
            name="constant-finite-zero",
            ok=all(v == 0 for v in zeros),
            details={"nabla": zeros},
        ),
    ]


_PARITY_DRAWS = (
    ("generic", 8),
    ("minus_rank1", 5),
    ("minus_rank1_m0", 3),
    ("plus_rank1", 4),
    ("minus_rank0", 4),
)


@_suite("parity")
def suite_parity(rng, scale, precision):
    ctx = PrimeContext(3, precision=precision)
    n_max = 3
    total = applicable = 0
    failed = []  # (check, example or None), in draw order
    for kind, base in _PARITY_DRAWS:
        for _ in range(_scaled(base, scale)):
            total += 1
            cd = rand_coleman_data(ctx, rng, kind)
            # the library's parity_congruence_check is a theorem; this tests the arithmetic
            f = assemble_fn(ctx, cd, n_max)
            if not all(matrices_proportional_at_eps(ctx, m, f, parity_reference(cd, m)) for m in range(n_max + 1)):
                failed.append(("parity-congruence", None))
                continue
            try:
                moved = cd.transformed(good_basis_transform(ctx, cd, n_max))
            except PostconditionFailed as exc:
                failed.append(("good-basis-special", {"kind": kind, "data": cd.to_json_dict(), "error": str(exc)}))
                continue
            for n in (2, 3):
                # det F_n(eps_n) is det C_n(eps_n) times a nonzero square
                if _residue(ctx, n, parity_reference(moved, n).det).is_zero:
                    continue
                applicable += 1
                res = nabla_coleman_tower(ctx, moved, n)
                if res.agrees is not True:
                    example = {"kind": kind, "n": n, "data": cd.to_json_dict(), "result": res.to_json_dict()}
                    failed.append(("signed-closed-form", example))
    fails = Counter(check for check, _ in failed)
    checks = [
        CheckOutcome(name=check, ok=not fails[check] and count > 0, details={key: count, "failures": fails[check]})
        for check, key, count in (
            ("parity-congruence", "count", total),
            ("good-basis-special", "count", total),
            ("signed-closed-form", "applicable", applicable),
        )
    ]
    examples = [example for _, example in failed if example is not None]
    if examples:
        checks.append(CheckOutcome(name="first-failure", ok=False, details=examples[0]))
    return checks


@_suite("rod")
def suite_rod(rng, scale, precision):
    ctx = PrimeContext(3, precision=precision)
    checks = []
    for kind in ("saturation", "not-coprime"):
        for n in (1, 2):
            def trial(_):
                b = rand_unit_resultant_matrix(ctx, rng)
                if kind == "not-coprime":
                    phi, j = cyclotomic_phi(ctx, rng.randint(0, n)), rng.randrange(2)
                    b = LambdaMatrix(tuple(tuple(e * phi if i == j else e for i, e in enumerate(r)) for r in b.rows))
                try:
                    ok = rod_check(ctx, b, n, n + 1) and kind == "saturation"
                except NotCoprime:
                    ok = kind == "not-coprime"
                return [] if ok else [{"b": b.to_json_list()}]

            checks.append(_sweep(f"{kind}-n{n}", _scaled(10, scale), trial, test_level=n + 1))
    return checks


@_suite("degrees")
def suite_degrees(rng, scale, precision):
    checks = []
    for p in (3, 5, 7):
        ctx = PrimeContext(p, precision=precision)
        rows = [degree_identities(ctx, n) for n in range(1, 9)]
        checks.append(
            CheckOutcome(
                name=f"signed-degrees-p{p}",
                ok=all(r["odd_ok"] and r["even_ok"] for r in rows),
                details={"rows": rows},
            )
        )
    return checks


@_suite("growth")
def suite_growth(rng, scale, precision):
    zero = InvariantSet(p=3, lambda_plus=0, lambda_minus=0, mu_plus=0, mu_minus=0, r_inf=0)
    table = sha_growth(zero, range(1, 5), baseline=(0, 0))
    deltas = tuple(r.delta_e for r in table.rows)
    frozen = CheckOutcome(
        name="frozen-deltas",
        ok=deltas == (0, 6, 12, 42),
        details={"deltas": list(deltas)},
    )

    def trial(_):
        inv = InvariantSet(
            p=rng.choice((3, 5)),
            lambda_plus=rng.randint(0, 6),
            lambda_minus=rng.randint(0, 6),
            mu_plus=rng.randint(0, 2),
            mu_minus=rng.randint(0, 2),
            r_inf=rng.randint(0, 2),
        )
        n0 = rng.randint(0, 2)
        e0 = rng.randint(0, 9)
        table = sha_growth(inv, range(n0 + 1, n0 + 6), baseline=(n0, e0))
        failures = []
        prev = e0
        for row in table.rows:
            if row.e_n - prev != row.delta_e or row.delta_e != delta_e(inv, row.n):
                failures.append({"invariants": inv.to_json_dict(), "n": row.n})
            prev = row.e_n
        return failures

    return [frozen, _sweep("telescoping", _scaled(10, scale), trial)]


@_suite("precision")
def suite_precision(rng, scale, precision):
    """Drive a special-matrix sweep at a precision far too low for the
    lengths involved (fixed at 3 digits regardless of the requested
    precision): the engine must raise PrecisionUnstable before reporting
    any value that disagrees with the closed form."""
    low = PrimeContext(3, precision=3)
    candidates = [rand_special_matrix(low, rng, 2, max_deg=3)[0] for _ in range(30)]
    # kernel of this one carries an elementary divisor of valuation 3,
    # invisible at precision 3: guaranteed to trip the stability check
    candidates.append(LambdaMatrix.diagonal(LambdaElement.const(27), ONE))
    raised = False
    lied = False
    completed = 0
    for a in candidates:
        try:
            res = nabla_matrix_tower(low, a, 2)
        except PrecisionUnstable:
            raised = True
            break
        completed += 1
        if res.agrees is False:
            lied = True
            break
    return [
        CheckOutcome(
            name="low-precision-raises",
            ok=raised and not lied,
            details={"completed_before_raise": completed, "raised": raised, "lied": lied},
        )
    ]


SUITE_NAMES = tuple(_SUITES)


def run_suites(
    names, seed: int = 0, scale: float = 1.0, precision: int = DEFAULT_PRECISION
) -> list[SuiteReport]:
    """Run the named suites (a str is one name; "all" runs every suite)
    with a shared seed; unknown names raise KeyError, a scale that is not
    finite or that overflows a sweep count InvalidContext."""
    if not math.isfinite(scale):
        raise InvalidContext(f"scale must be finite, got {scale}")
    names = [names] if isinstance(names, str) else names
    if names == ["all"]:
        names = SUITE_NAMES
    return [_SUITES[name](seed, scale, precision) for name in names]
