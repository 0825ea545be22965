"""Input refusals of the library layers, each with its exception and
message: every one is raised before any work on the refused input."""

import pytest

from iwarank.errors import InvalidContext, PhiDivides, ZeroElement
from iwarank.growth_model import InvariantSet, degree_identities, nabla_x_formula, s_sequence, sha_growth
from iwarank.kobayashi_rank import CyclicTower, TorsionTower, additivity_check, nabla_cyclic
from iwarank.lambda_ring import ONE, X, LambdaElement, LambdaMatrix, PrimeContext, cyclotomic_phi, signed_degree, vp
from iwarank.special_matrices import ColemanData, good_basis_transform
from iwarank.zp_modules import SpanPresentation, lambda_column_span

CTX = PrimeContext(3)
PAIR = ColemanData(LambdaMatrix.diagonal(X, X), LambdaMatrix.identity())

REFUSALS = [
    # growth_model
    ("s-negative", lambda: s_sequence(3, -1), InvalidContext, "level must be >= 0, got -1"),
    ("growth-negative-baseline",
     lambda: sha_growth(InvariantSet(3, 0, 0, 0, 0, 0), range(1, 3), (0, -1)),
     InvalidContext, "baseline_value must be >= 0, got -1"),
    ("growth-negative-baseline-level",
     lambda: sha_growth(InvariantSet(3, 0, 0, 0, 0, 0), range(0, 3), (-1, 0)),
     InvalidContext, "baseline_level must be >= 0, got -1"),
    ("degree-identities-n0", lambda: degree_identities(CTX, 0), InvalidContext, "level must be >= 1, got 0"),
    ("nabla-x-n0", lambda: nabla_x_formula(InvariantSet(3, 0, 0, 0, 0, 0), 0), InvalidContext,
     "level must be >= 1, got 0"),
    ("invariants-negative", lambda: InvariantSet(3, -1, 0, 0, 0, 0), InvalidContext,
     "lambda_plus must be >= 0, got -1"),
    # a float level is refused by its type, before any comparison or power
    ("s-float", lambda: s_sequence(3, 2.0), InvalidContext, "level must be an integer, got 2.0"),
    ("nabla-x-float", lambda: nabla_x_formula(InvariantSet(3, 0, 0, 0, 0, 0), 2.0), InvalidContext,
     "level must be an integer, got 2.0"),
    ("degree-identities-float", lambda: degree_identities(CTX, 2.0), InvalidContext,
     "level must be an integer, got 2.0"),
    ("growth-float-levels", lambda: sha_growth(InvariantSet(3, 0, 0, 0, 0, 0), [1.0, 2.0], (0, 0)),
     InvalidContext, "level must be an integer, got 1.0"),
    ("growth-float-baseline-level",
     lambda: sha_growth(InvariantSet(3, 0, 0, 0, 0, 0), range(1, 3), (0.0, 0)),
     InvalidContext, "baseline_level must be an integer, got 0.0"),
    ("growth-float-baseline-value",
     lambda: sha_growth(InvariantSet(3, 0, 0, 0, 0, 0), range(1, 3), (0, 0.5)),
     InvalidContext, "baseline_value must be an integer, got 0.5"),
    # each InvariantSet field in turn set to 3.0, the others to 3
    *((f"invariants-float-{name}", lambda i=i: InvariantSet(*(3.0 if j == i else 3 for j in range(6))),
       InvalidContext, f"{name} must be an integer, got 3.0")
      for i, name in enumerate(("p", "lambda_plus", "lambda_minus", "mu_plus", "mu_minus", "r_inf"))),
    # kobayashi_rank
    ("nabla-cyclic-n0", lambda: nabla_cyclic(CTX, X, 0), InvalidContext, "level must be >= 1, got 0"),
    ("nabla-cyclic-float", lambda: nabla_cyclic(CTX, X, 1.5), InvalidContext, "level must be an integer, got 1.5"),
    # a summand is read as a torsion tower, which names no subject; the
    # refusal comes from the level's ords, before any span is read
    ("additivity-summand-phi-divides",
     lambda: additivity_check(CTX, CyclicTower(cyclotomic_phi(CTX, 1)), CyclicTower(X), 1),
     PhiDivides, "relations drop rank at eps_1; step kernel is infinite"),
    ("torsion-no-columns", lambda: TorsionTower(columns=()), InvalidContext, "need at least one generator"),
    ("torsion-ragged", lambda: TorsionTower(columns=((X, ONE), (X,))), InvalidContext,
     "generators of mixed rank"),
    # lambda_ring
    ("vp-zero", lambda: vp(0, 3), ZeroElement, "valuation of 0 is infinite"),
    ("precision-0", lambda: PrimeContext(3, precision=0), InvalidContext, "precision must be >= 1, got 0"),
    ("margin-0", lambda: PrimeContext(3, margin=0), InvalidContext, "margin must be >= 1, got 0"),
    ("p-float", lambda: PrimeContext(3.0), InvalidContext, "p must be an integer, got 3.0"),
    ("precision-float", lambda: PrimeContext(3, precision=40.0), InvalidContext,
     "precision must be an integer, got 40.0"),
    ("margin-string", lambda: PrimeContext(3, margin="8"), InvalidContext, "margin must be an integer, got '8'"),
    ("negative-power", lambda: X ** -1, ValueError, "negative power"),
    ("non-monic-divisor", lambda: (X * X).divmod_monic(LambdaElement([1, 2])), ValueError, "divisor must be monic"),
    ("inexact-division", lambda: (X * X + ONE).exact_div(X), ValueError, "division not exact"),
    ("unknown-sign", lambda: signed_degree(3, 2, "x"), ValueError, "sign must be '+' or '-'"),
    ("signed-degree-float", lambda: signed_degree(3, 2.0, "+"), InvalidContext, "level must be an integer, got 2.0"),
    # special_matrices
    ("good-basis-negative", lambda: good_basis_transform(CTX, PAIR, -1),
     InvalidContext, "level must be >= 0, got -1"),
    # zp_modules
    ("column-length", lambda: SpanPresentation(ambient_rank=2, columns=((1, 0), (1,))), InvalidContext,
     "column length 1 != ambient rank 2"),
    ("no-generators", lambda: lambda_column_span(CTX, [], 1), InvalidContext, "need at least one generator"),
    ("mixed-rank", lambda: lambda_column_span(CTX, [(X, ONE), (X,)], 1), InvalidContext,
     "generators of mixed rank"),
]


@pytest.mark.parametrize("call,error,message", [r[1:] for r in REFUSALS], ids=[r[0] for r in REFUSALS])
def test_refused(call, error, message):
    with pytest.raises(error) as exc:
        call()
    assert str(exc.value) == message
