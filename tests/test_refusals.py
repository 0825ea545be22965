"""Input refusals of the library layers, each with its exception and
message: every one is raised before any work on the refused input."""

import pytest

from iwarank.errors import InvalidContext, ZeroElement
from iwarank.growth_model import InvariantSet, degree_identities, s_sequence, sha_growth
from iwarank.kobayashi_rank import CyclicTower, nabla_tower, tower_sweep
from iwarank.lambda_ring import ONE, X, LambdaElement, PrimeContext, signed_degree, vp
from iwarank.zp_modules import SpanPresentation, lambda_column_span

CTX = PrimeContext(3)

REFUSALS = [
    # growth_model
    ("s-negative", lambda: s_sequence(3, -1), InvalidContext, "s_n needs n >= 0, got -1"),
    ("growth-negative-baseline",
     lambda: sha_growth(InvariantSet(3, 0, 0, 0, 0, 0), range(1, 3), (0, -1)),
     InvalidContext, "baseline level and value must be >= 0"),
    ("degree-identities-n0", lambda: degree_identities(CTX, 0), InvalidContext,
     "degree identities start at n = 1, got 0"),
    # kobayashi_rank
    ("unknown-tower", lambda: nabla_tower(CTX, object(), 1), InvalidContext, "unknown tower kind object"),
    ("sweep-n0", lambda: tower_sweep(CTX, CyclicTower(f=X + 3), 0), InvalidContext, "n_max must be >= 1, got 0"),
    # lambda_ring
    ("vp-zero", lambda: vp(0, 3), ZeroElement, "valuation of 0 is infinite"),
    ("precision-0", lambda: PrimeContext(3, precision=0), InvalidContext, "precision must be >= 1, got 0"),
    ("margin-0", lambda: PrimeContext(3, margin=0), InvalidContext, "margin must be >= 1, got 0"),
    ("negative-power", lambda: X ** -1, ValueError, "negative power"),
    ("non-monic-divisor", lambda: (X * X).divmod_monic(LambdaElement([1, 2])), ValueError, "divisor must be monic"),
    ("inexact-division", lambda: (X * X + ONE).exact_div(X), ValueError, "division not exact"),
    ("unknown-sign", lambda: signed_degree(3, 2, "x"), ValueError, "sign must be '+' or '-'"),
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
