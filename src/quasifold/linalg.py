"""Exact linear algebra over a scalar field.

``Matrix`` is the library's Gauss–Jordan elimination and the tests'
reference; no command runs it.  Its pivot rule is fixed: scan columns
left to right and take the first row with a nonzero entry.  The reduced
echelon form is unique, so ranks, kernel bases and solutions are reproducible.

Every row update x - f * a goes through the fused kernel ``sub_product``
of ``quasifold.scalars``: one reduction per updated entry, not one per
multiply and subtract.  ``dot`` is re-exported from there.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .errors import DimensionMismatch
from .scalars import Field, Scalar, dot, sub_product  # noqa: F401  (dot is re-exported)

Vector = tuple[Scalar, ...]


@dataclass(frozen=True)
class Echelon:
    """Reduced row echelon form with its pivot columns."""

    rows: tuple[Vector, ...]
    pivots: tuple[int, ...]


class Matrix:
    """Immutable dense matrix over one Field, whose entries are Scalars of
    that field."""

    def __init__(self, field: Field, rows: Sequence[Sequence[Scalar]],
                 cols: int | None = None) -> None:
        self.field = field
        self.rows = tuple(tuple(row) for row in rows)
        if self.rows:
            width = len(self.rows[0])
            if any(len(r) != width for r in self.rows):
                raise DimensionMismatch("ragged rows")
            if cols is not None and cols != width:
                raise DimensionMismatch(f"rows of length {width}, cols={cols}")
            self.shape = (len(self.rows), width)
        else:
            self.shape = (0, 0 if cols is None else cols)

    def __repr__(self) -> str:
        body = "; ".join(", ".join(str(e) for e in row) for row in self.rows)
        return f"Matrix[{body}]"

    # -- elimination -----------------------------------------------------------

    def _reduce(self) -> tuple[list[list[Scalar]], list[int], Scalar]:
        """Gauss–Jordan elimination.

        Returns the nonzero rows of the reduced echelon form, its pivot
        columns, and the signed product of the pivots (the determinant of
        an invertible square matrix).  Each pivot row is scaled by one
        inverse; columns left of the pivot are already final, and rows
        whose factor is zero are skipped.
        """
        work = [list(r) for r in self.rows]
        m, n = self.shape
        zero, one = self.field.zero, self.field.one
        pivots: list[int] = []
        det = one
        for c in range(n):
            r = len(pivots)
            if r == m:
                break
            pivot_row = next((i for i in range(r, m) if not work[i][c].is_zero()), None)
            if pivot_row is None:
                continue
            if pivot_row != r:
                work[r], work[pivot_row] = work[pivot_row], work[r]
                det = -det
            row = work[r]
            det = det * row[c]
            inv = row[c].inverse()
            live = [j for j in range(c + 1, n) if not row[j].is_zero()]
            row[c] = one
            for j in live:
                row[j] = row[j] * inv
            for i in range(m):
                factor = work[i][c]
                if i == r or factor.is_zero():
                    continue
                other = work[i]
                other[c] = zero
                for j in live:
                    other[j] = sub_product(other[j], factor, row[j])
            pivots.append(c)
        return work[:len(pivots)], pivots, det

    def echelon(self) -> Echelon:
        """Reduced row echelon form (pivots normalized to 1)."""
        rows, pivots, _ = self._reduce()
        return Echelon(tuple(tuple(r) for r in rows), tuple(pivots))

    def rank(self) -> int:
        return len(self._reduce()[1])

    def kernel(self) -> tuple[Vector, ...]:
        """Basis of the right kernel, echelon-derived and deterministic.

        Free columns are visited in increasing index order; each basis vector
        has a 1 in its free column and zeros in every other free column.
        """
        ech = self.echelon()
        n = self.shape[1]
        free = [c for c in range(n) if c not in ech.pivots]
        zero = self.field.zero
        basis = []
        for f in free:
            v = [zero] * n
            v[f] = self.field.one
            for row, c in zip(ech.rows, ech.pivots):
                v[c] = -row[f]
            basis.append(tuple(v))
        return tuple(basis)

    def solve(self, rhs: Sequence[Scalar]) -> Vector | None:
        """Exact solution of self @ x = rhs, or None when inconsistent.

        Underdetermined systems return the particular solution whose free
        coordinates are zero.
        """
        b = tuple(rhs)
        m, n = self.shape
        if len(b) != m:
            raise DimensionMismatch(f"rhs of length {len(b)} against {m} rows")
        augmented = Matrix(self.field, [row + (b[i],) for i, row in enumerate(self.rows)])
        ech = augmented.echelon()
        if n in ech.pivots:
            return None
        zero = self.field.zero
        x = [zero] * n
        for row, c in zip(ech.rows, ech.pivots):
            x[c] = row[n]
        return tuple(x)

    def det(self) -> Scalar:
        m, n = self.shape
        if m != n:
            raise DimensionMismatch("determinant of a non-square matrix")
        _, pivots, det = self._reduce()
        return det if len(pivots) == n else self.field.zero

    def inverse(self) -> "Matrix | None":
        """Exact inverse, or None when singular."""
        m, n = self.shape
        if m != n:
            raise DimensionMismatch("inverse of a non-square matrix")
        zero, one = self.field.zero, self.field.one
        augmented = Matrix(self.field, [
            row + tuple(one if i == j else zero for j in range(n))
            for i, row in enumerate(self.rows)
        ])
        ech = augmented.echelon()
        if ech.pivots != tuple(range(n)):
            return None
        return Matrix(self.field, [row[n:] for row in ech.rows])
