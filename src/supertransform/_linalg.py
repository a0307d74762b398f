"""Exact sparse linear algebra over the rationals and Gaussian rationals.

Rows are dicts column->value.  Everything here is plumbing for nullspace,
which serves `cliffweyl.monogenic_basis` and the test oracles (the
harmonic bases come from closed formulas); the echelon form also reduces
QQi rows, and coefficients stay Fraction or QQi throughout.
"""

from __future__ import annotations

from fractions import Fraction

from ._terms import add_into


class SparseRREF:
    """Incremental reduced echelon form; rows are sparse dicts."""

    def __init__(self):
        self.pivots = {}          # pivot column -> reduced row dict

    def reduce(self, row):
        """Reduce `row` (destructively) against the current pivots in one
        pass: `insert` keeps every pivot row free of the other pivot
        columns, so clearing one pivot column never refills another."""
        for col in [c for c in row if c in self.pivots]:
            factor = row[col]
            for c, v in self.pivots[col].items():
                add_into(row, c, -factor * v)
        return row

    def insert(self, row):
        """Reduce and, if nonzero, normalize and adopt as a new pivot row.

        Returns the pivot column, or None if the row reduced to zero.
        """
        row = self.reduce(row)
        if not row:
            return None
        col = min(row)
        inv = 1 / row[col] if isinstance(row[col], Fraction) \
            else row[col].inverse()
        row = {c: v * inv for c, v in row.items()}
        for pcol, prow in self.pivots.items():
            f = prow.get(col)
            if f is None:
                continue
            for c, v in row.items():
                add_into(prow, c, -f * v)
        self.pivots[col] = row
        return col


def nullspace(columns, rows_of):
    """Nullspace of a linear map given column-wise.

    `columns` is the ordered list of column keys; `rows_of(key)` returns
    the sparse image dict of that basis column.  Returns a list of sparse
    dicts column_index -> Fraction spanning the kernel, echelon-normalized
    deterministically (free column gets coefficient 1).
    """
    rref = SparseRREF()
    # transpose: build matrix rows indexed by image coordinates
    mat_rows = {}
    for ci, key in enumerate(columns):
        for rkey, val in rows_of(key).items():
            mat_rows.setdefault(rkey, {})[ci] = Fraction(val)
    for rkey in sorted(mat_rows):
        rref.insert(mat_rows[rkey])
    pivot_cols = set(rref.pivots)
    null = []
    for ci in range(len(columns)):
        if ci in pivot_cols:
            continue
        vec = {ci: Fraction(1)}
        for pcol, prow in rref.pivots.items():
            v = prow.get(ci)
            if v:
                vec[pcol] = -v
        null.append(vec)
    return null
