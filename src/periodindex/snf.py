"""Exact integer linear algebra and homology of free chain complexes.

Everything here runs over Python's arbitrary-precision integers; there is
no floating point and no coefficient reduction, so results are exact.
Matrices are small at the scale this package works at (a few hundred rows
at most), which is why the Smith normal form below uses the simple
minimal-pivot strategy instead of a modular or lattice-assisted algorithm.
Swapping in a faster SNF would only touch ``smith_normal_form``.
"""

from __future__ import annotations

from dataclasses import dataclass


def xgcd(a: int, b: int) -> tuple[int, int, int]:
    """Return (g, x, y) with x*a + y*b == g == gcd(a, b) and g >= 0."""
    x, next_x = 1, 0
    y, next_y = 0, 1
    g, next_g = a, b
    while next_g:
        q = g // next_g
        x, next_x = next_x, x - q * next_x
        y, next_y = next_y, y - q * next_y
        g, next_g = next_g, g - q * next_g
    if g < 0:
        x, y, g = -x, -y, -g
    return g, x, y


@dataclass(frozen=True)
class IntegerMatrix:
    """Dense integer matrix with explicit shape (0-row / 0-column allowed).

    Entries are stored row-major in a flat tuple so that matrices are
    hashable values; anything that mutates works on nested lists and
    rebuilds at the end.
    """

    rows: int
    cols: int
    entries: tuple[int, ...]

    def __post_init__(self):
        if self.rows < 0 or self.cols < 0:
            raise ValueError("matrix shape must be non-negative")
        if len(self.entries) != self.rows * self.cols:
            raise ValueError(
                f"expected {self.rows * self.cols} entries, got {len(self.entries)}")

    @classmethod
    def from_rows(cls, rows: list[list[int]], cols: int | None = None) -> "IntegerMatrix":
        """Build from a list of rows; `cols` disambiguates the 0-row case."""
        if rows:
            width = len(rows[0])
            if cols is not None and cols != width:
                raise ValueError("cols does not match row width")
            if any(len(r) != width for r in rows):
                raise ValueError("ragged rows")
            flat = tuple(int(x) for r in rows for x in r)
            return cls(len(rows), width, flat)
        if cols is None:
            raise ValueError("cols is required for a matrix with no rows")
        return cls(0, cols, ())

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "IntegerMatrix":
        return cls(rows, cols, (0,) * (rows * cols))

    @classmethod
    def identity(cls, n: int) -> "IntegerMatrix":
        return cls(n, n, tuple(1 if i == j else 0 for i in range(n) for j in range(n)))

    def entry(self, i: int, j: int) -> int:
        if not (0 <= i < self.rows and 0 <= j < self.cols):
            raise IndexError((i, j))
        return self.entries[i * self.cols + j]

    def to_rows(self) -> list[list[int]]:
        c = self.cols
        return [list(self.entries[i * c:(i + 1) * c]) for i in range(self.rows)]

    def column(self, j: int) -> list[int]:
        return [self.entries[i * self.cols + j] for i in range(self.rows)]

    def is_zero(self) -> bool:
        return all(x == 0 for x in self.entries)

    def __matmul__(self, other: "IntegerMatrix") -> "IntegerMatrix":
        if self.cols != other.rows:
            raise ValueError(f"shape mismatch {self.rows}x{self.cols} @ {other.rows}x{other.cols}")
        a, b = self.to_rows(), other.to_rows()
        out = []
        for i in range(self.rows):
            ai = a[i]
            row = [0] * other.cols
            for k in range(self.cols):
                aik = ai[k]
                if aik:
                    bk = b[k]
                    for j in range(other.cols):
                        row[j] += aik * bk[j]
            out.append(row)
        return IntegerMatrix.from_rows(out, cols=other.cols)


def determinant(m: IntegerMatrix) -> int:
    """Exact determinant via fraction-free (Bareiss) elimination."""
    if m.rows != m.cols:
        raise ValueError("determinant needs a square matrix")
    n = m.rows
    if n == 0:
        return 1
    a = m.to_rows()
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


@dataclass(frozen=True)
class SmithNormalForm:
    """Diagonalisation U @ M @ V == S with d_1 | d_2 | ... on the diagonal.

    ``invariant_factors`` lists the nonzero diagonal entries; the remaining
    min(rows, cols) - rank diagonal entries of S are zero.  ``left`` and
    ``right`` (U and V) are populated only when transforms were requested.
    """

    matrix: IntegerMatrix
    invariant_factors: tuple[int, ...]
    rank: int
    left: IntegerMatrix | None = None
    right: IntegerMatrix | None = None


def smith_normal_form(m: IntegerMatrix, with_transforms: bool = False) -> SmithNormalForm:
    """Smith normal form by minimal-pivot reduction.

    Total on every integer matrix, including empty ones.  Pivots are chosen
    as the smallest nonzero absolute value of the working submatrix, rows
    and columns are reduced by Euclidean steps, and a pivot is only accepted
    once it divides the whole remaining submatrix, which yields the
    divisibility chain directly.
    """
    rows, cols = m.rows, m.cols
    a = m.to_rows()
    u = IntegerMatrix.identity(rows).to_rows() if with_transforms else None
    v = IntegerMatrix.identity(cols).to_rows() if with_transforms else None

    def swap_rows(i, k):
        a[i], a[k] = a[k], a[i]
        if u is not None:
            u[i], u[k] = u[k], u[i]

    def swap_cols(j, k):
        for row in a:
            row[j], row[k] = row[k], row[j]
        if v is not None:
            for row in v:
                row[j], row[k] = row[k], row[j]

    def row_add(i, k, c):
        # row i += c * row k
        ai, ak = a[i], a[k]
        for j in range(cols):
            ai[j] += c * ak[j]
        if u is not None:
            ui, uk = u[i], u[k]
            for j in range(rows):
                ui[j] += c * uk[j]

    def col_add(j, k, c):
        # col j += c * col k
        for row in a:
            row[j] += c * row[k]
        if v is not None:
            for row in v:
                row[j] += c * row[k]

    def negate_row(i):
        a[i] = [-x for x in a[i]]
        if u is not None:
            u[i] = [-x for x in u[i]]

    def min_nonzero(t):
        best = None
        for i in range(t, rows):
            ai = a[i]
            for j in range(t, cols):
                x = ai[j]
                if x and (best is None or abs(x) < best[0]):
                    best = (abs(x), i, j)
                    if best[0] == 1:
                        return best
        return best

    t = 0
    limit = min(rows, cols)
    while t < limit:
        best = min_nonzero(t)
        if best is None:
            break
        _, i0, j0 = best
        if i0 != t:
            swap_rows(t, i0)
        if j0 != t:
            swap_cols(t, j0)

        # Clear row t and column t; any leftover remainder shrinks the
        # candidate pivots, so re-picking the pivot terminates.
        while True:
            pivot = a[t][t]
            dirty = False
            for i in range(t + 1, rows):
                if a[i][t]:
                    row_add(i, t, -(a[i][t] // pivot))
                    if a[i][t]:
                        dirty = True
            for j in range(t + 1, cols):
                if a[t][j]:
                    col_add(j, t, -(a[t][j] // pivot))
                    if a[t][j]:
                        dirty = True
            if not dirty:
                break
            _, i0, j0 = min_nonzero(t)
            if i0 != t:
                swap_rows(t, i0)
            if j0 != t:
                swap_cols(t, j0)

        # Divisibility: fold a bad row into row t and redo this pivot.
        pivot = a[t][t]
        offender = None
        for i in range(t + 1, rows):
            ai = a[i]
            for j in range(t + 1, cols):
                if ai[j] % pivot:
                    offender = i
                    break
            if offender is not None:
                break
        if offender is not None:
            row_add(t, offender, 1)
            continue
        if pivot < 0:
            negate_row(t)
        t += 1

    factors = []
    for i in range(limit):
        d = a[i][i]
        if d == 0:
            break
        factors.append(d)
    return SmithNormalForm(
        matrix=IntegerMatrix.from_rows(a, cols=cols),
        invariant_factors=tuple(factors),
        rank=len(factors),
        left=IntegerMatrix.from_rows(u, cols=rows) if u is not None else None,
        right=IntegerMatrix.from_rows(v, cols=cols) if v is not None else None,
    )


def _column_reduction(m: IntegerMatrix):
    """Column-style Hermite reduction tracking the transform and its inverse.

    Returns (reduced, t, tinv, npivots) with reduced == m @ t, t unimodular,
    tinv == t^-1, and columns npivots.. of reduced identically zero.  The
    corresponding columns of t are a basis of the integer kernel of m.
    """
    rows, cols = m.rows, m.cols
    r = m.to_rows()
    t = IntegerMatrix.identity(cols).to_rows()
    tinv = IntegerMatrix.identity(cols).to_rows()

    def swap(j0, j1):
        for row in r:
            row[j0], row[j1] = row[j1], row[j0]
        for row in t:
            row[j0], row[j1] = row[j1], row[j0]
        tinv[j0], tinv[j1] = tinv[j1], tinv[j0]

    def combine(row_idx, j0, j1):
        # Zero r[row_idx][j1] against column j0 by a unimodular 2-column op.
        a_, b_ = r[row_idx][j0], r[row_idx][j1]
        if b_ == 0:
            return
        if a_ == 0:
            swap(j0, j1)
            return
        if b_ % a_ == 0:
            q = b_ // a_
            for row in r:
                row[j1] -= q * row[j0]
            for row in t:
                row[j1] -= q * row[j0]
            ti0, ti1 = tinv[j0], tinv[j1]
            tinv[j0] = [x + q * y for x, y in zip(ti0, ti1)]
            return
        g, x, y = xgcd(a_, b_)
        ag, bg = a_ // g, b_ // g
        for row in r:
            c0, c1 = row[j0], row[j1]
            row[j0] = x * c0 + y * c1
            row[j1] = -bg * c0 + ag * c1
        for row in t:
            c0, c1 = row[j0], row[j1]
            row[j0] = x * c0 + y * c1
            row[j1] = -bg * c0 + ag * c1
        ti0, ti1 = tinv[j0], tinv[j1]
        tinv[j0] = [ag * p + bg * q for p, q in zip(ti0, ti1)]
        tinv[j1] = [-y * p + x * q for p, q in zip(ti0, ti1)]

    piv = 0
    for row_idx in range(rows):
        if piv >= cols:
            break
        lead = None
        for j in range(piv, cols):
            if r[row_idx][j]:
                lead = j
                break
        if lead is None:
            continue
        for j in range(lead + 1, cols):
            combine(row_idx, lead, j)
        if lead != piv:
            swap(lead, piv)
        piv += 1
    return r, t, tinv, piv


def kernel_basis(m: IntegerMatrix) -> list[list[int]]:
    """Basis of the integer kernel {x : m @ x = 0}, one vector per entry."""
    _, t, _, piv = _column_reduction(m)
    return [[t[i][j] for i in range(m.cols)] for j in range(piv, m.cols)]


class ChainComplex:
    """Based free chain complex over the integers, truncated at ``max_degree``.

    ``basis_labels[n]`` lists the basis of the degree-n chain group; the
    boundary in degree n is a matrix whose columns are indexed by the
    degree-n basis and whose rows are indexed by the degree-(n-1) basis.
    Degrees above ``max_degree`` are unknown, which is why homology can only
    be asked for strictly below the cap.
    """

    def __init__(self, basis_labels, boundaries, validate: bool = True):
        self.basis_labels = tuple(tuple(labels) for labels in basis_labels)
        if not self.basis_labels:
            raise ValueError("need at least the degree-0 basis")
        self.max_degree = len(self.basis_labels) - 1
        bnd = {}
        for n in range(1, self.max_degree + 1):
            mat = boundaries.get(n)
            if mat is None:
                mat = IntegerMatrix.zeros(self.dim(n - 1), self.dim(n))
            bnd[n] = mat
        self._boundaries = bnd
        if validate:
            self.validate()

    def dim(self, n: int) -> int:
        if not 0 <= n <= self.max_degree:
            raise ValueError(f"degree {n} outside stored range 0..{self.max_degree}")
        return len(self.basis_labels[n])

    def differential(self, n: int) -> IntegerMatrix:
        if n == 0:
            return IntegerMatrix.zeros(0, self.dim(0))
        if not 1 <= n <= self.max_degree:
            raise ValueError(f"no boundary stored in degree {n}")
        return self._boundaries[n]

    def validate(self) -> None:
        """Check matrix shapes and the boundary condition d o d = 0."""
        for n in range(1, self.max_degree + 1):
            mat = self._boundaries[n]
            if mat.rows != self.dim(n - 1) or mat.cols != self.dim(n):
                raise ValueError(f"boundary shape mismatch in degree {n}")
        for n in range(2, self.max_degree + 1):
            if not (self._boundaries[n - 1] @ self._boundaries[n]).is_zero():
                raise ValueError(f"d o d != 0 between degrees {n} and {n - 2}")


def homology_of_complex(c: ChainComplex, n: int) -> tuple[int, list[int]]:
    """H_n(c) as (free rank, invariant factors > 1, sorted).

    Computes ker d_n, rewrites the columns of d_{n+1} in coordinates on the
    kernel basis, and reads the quotient off the Smith normal form of that
    coordinate matrix.  Raises for n == max_degree, where the incoming
    boundary is unknown under truncation.
    """
    if not 0 <= n < c.max_degree:
        raise ValueError(
            f"homology needs the boundary from degree {n + 1}; "
            f"complex is truncated at {c.max_degree}")
    dn = c.differential(n)
    dn1 = c.differential(n + 1)
    _, _, tinv, piv = _column_reduction(dn)
    kdim = dn.cols - piv
    coord_rows = [[0] * dn1.cols for _ in range(kdim)]
    incoming = dn1.to_rows()
    for col in range(dn1.cols):
        vec = [incoming[i][col] for i in range(dn1.rows)]
        for a in range(dn.cols):
            s = sum(tinv[a][b] * vec[b] for b in range(dn.cols) if vec[b])
            if a < piv:
                if s != 0:
                    raise ValueError("image of d_{n+1} is not contained in ker d_n")
            else:
                coord_rows[a - piv][col] = s
    quotient = smith_normal_form(IntegerMatrix.from_rows(coord_rows, cols=dn1.cols))
    free = kdim - quotient.rank
    torsion = sorted(d for d in quotient.invariant_factors if d > 1)
    return free, torsion
