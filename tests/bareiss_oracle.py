"""Fraction-free (Bareiss) elimination over Z: the exact Q-rank of an
integer matrix, kept as a test oracle for the cyclotomic rank profile
that the package reads its ranks from.
"""


def bareiss_rank(rows: list[list[int]]) -> int:
    """Rank over Q of an integer matrix, exactly."""
    if not rows or not rows[0]:
        return 0
    m = [list(r) for r in rows]
    nrows, ncols = len(m), len(m[0])
    prev = 1
    rank = 0
    row = 0
    for col in range(ncols):
        pivot_row = None
        for i in range(row, nrows):
            if m[i][col] != 0:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        m[row], m[pivot_row] = m[pivot_row], m[row]
        pivot = m[row][col]
        for i in range(row + 1, nrows):
            row_i = m[i]
            aic = row_i[col]
            for j in range(col + 1, ncols):
                row_i[j] = (row_i[j] * pivot - aic * m[row][j]) // prev
            row_i[col] = 0
        prev = pivot
        rank += 1
        row += 1
        if row == nrows:
            break
    return rank
