"""End-to-end Coleman-pair walkthrough: draw a random pair, find a good
basis, and report per-level specialness plus the signed closed forms.

    python3 scripts/coleman_pipeline.py --kind minus_rank1 --seed 2
"""

import argparse
import random

from iwarank.cyclo_eval import INFINITE, matrices_proportional_at_eps, ord_eps, ord_json
from iwarank.kobayashi_rank import nabla_coleman_tower
from iwarank.lambda_ring import PrimeContext
from iwarank.special_matrices import (
    assemble_fn,
    good_basis_transform,
    is_special,
    parity_reference,
)
from iwarank.verify import COLEMAN_KINDS, rand_coleman_data


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--kind", choices=tuple(COLEMAN_KINDS), default="minus_rank1")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--n-max", type=int, default=3)
    args = ap.parse_args()

    ctx = PrimeContext(3)
    rng = random.Random(args.seed)
    cd = rand_coleman_data(ctx, rng, args.kind)
    print(f"col_plus  = {cd.col_plus!r}")
    print(f"col_minus = {cd.col_minus!r}")
    print(f"det col_plus  ords: "
          f"{[ord_json(ord_eps(ctx, m, cd.col_plus.det)) for m in range(args.n_max + 1)]}")
    print(f"det col_minus ords: "
          f"{[ord_json(ord_eps(ctx, m, cd.col_minus.det)) for m in range(args.n_max + 1)]}")

    print("\nbefore the basis change:")
    for n in range(1, args.n_max + 1):
        fn = assemble_fn(ctx, cd, n)
        parity = all(matrices_proportional_at_eps(ctx, m, fn, parity_reference(cd, m)) for m in range(n + 1))
        print(f"  n={n}: special={is_special(ctx, fn, n).verdict}  parity={parity}")

    b = good_basis_transform(ctx, cd, args.n_max)
    print(f"\ngood basis B = {b!r}")
    moved = cd.transformed(b)
    for n in range(1, args.n_max + 1):
        fn = assemble_fn(ctx, moved, n)
        line = f"  n={n}: special={is_special(ctx, fn, n).verdict}"
        if not fn.det.is_zero:
            o = ord_eps(ctx, n, fn.det)
            if o != INFINITE:
                res = nabla_coleman_tower(ctx, moved, n)
                line += f"  nabla={res.nabla}"
                if res.closed_form is not None:
                    line += f"  closed={res.closed_form}  agrees={res.agrees}"
        print(line)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
