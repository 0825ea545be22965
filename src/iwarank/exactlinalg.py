"""The package's one rank reading: the rank of a relation matrix at a
point of Lambda, over the residue field there, as the size of its largest
minor that does not vanish: mod Phi_m (at eps_m) or mod (p, X) (at the
closed point).  Minors are exact polynomial determinants of the reduced
entries: truncated p-adic data is never trusted here."""

from __future__ import annotations

from itertools import combinations

from .lambda_ring import LambdaElement


def _poly_det(rows) -> LambdaElement:
    k = len(rows)
    if k == 1:
        return rows[0][0]
    if k == 2:
        return rows[0][0] * rows[1][1] - rows[0][1] * rows[1][0]
    acc = LambdaElement()
    for j in range(k):
        if rows[0][j].is_zero:
            continue
        minor = [[row[c] for c in range(k) if c != j] for row in rows[1:]]
        term = rows[0][j] * _poly_det(minor)
        acc = acc + term if j % 2 == 0 else acc - term
    return acc


def _minor_rank(columns, k: int, reduce) -> int:
    """Size of the largest minor of the k x c polynomial matrix with the
    given columns that ``reduce``, a ring map onto a domain, does not send
    to zero: ``reduce`` is applied to the entries and then to each minor
    of them."""
    columns = [[reduce(e) for e in col] for col in columns]
    for size in range(min(k, len(columns)), 0, -1):
        for pick in combinations(range(len(columns)), size):
            for rows in combinations(range(k), size):
                if reduce(_poly_det([[columns[j][i] for j in pick] for i in rows])):
                    return size
    return 0
