"""Exact integer linear algebra and homology of free chain complexes.

Everything here runs over Python's arbitrary-precision integers, so results
are exact.  Chain complexes store boundaries as sparse columns, since the
tensor models' boundaries are a few percent non-zero and split into small
connected blocks.  Homology is read off the boundaries' invariant factors:
one dense minimal-pivot Smith normal form per block, merged into a single
divisibility chain (Dumas, Saunders and Villard, JSC 2001).  Every complex
has d o d = 0 checked when it is built, so every complex here is a chain
complex.  Swapping in a faster SNF would only touch ``smith_normal_form``.

This module imports nothing else from the package: the oracle knows no
closed form.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass
from itertools import chain, repeat
from math import gcd, lcm


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
    def identity(cls, n: int) -> "IntegerMatrix":
        return cls(n, n, tuple(1 if i == j else 0 for i in range(n) for j in range(n)))

    def to_rows(self) -> list[list[int]]:
        c = self.cols
        return [list(self.entries[i * c:(i + 1) * c]) for i in range(self.rows)]

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
    """Invariant factors d_1 | d_2 | ... of M, all positive.

    U @ M @ V is the matrix of M's shape with the invariant factors leading
    its diagonal and zeros everywhere else.  ``left`` and ``right`` (U and
    V) are populated only when transforms were requested.
    """

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
        invariant_factors=tuple(factors),
        rank=len(factors),
        left=IntegerMatrix.from_rows(u, cols=rows) if u is not None else None,
        right=IntegerMatrix.from_rows(v, cols=cols) if v is not None else None,
    )


def _divisibility_chain(factors) -> tuple[int, ...]:
    """Invariant factors > 1 of the sum of Z/e over ``factors``, ascending.

    Z/a + Z/b = Z/gcd(a, b) + Z/lcm(a, b): neighbouring orders that do not
    divide one another are replaced by their gcd and lcm until the distinct
    orders form a chain.  Each step spreads a pair apart at a fixed product,
    so the loop ends.

    >>> _divisibility_chain([2, 3, 4, 1])
    (2, 12)
    """
    counts = Counter(factors)
    while True:
        orders = sorted(e for e, m in counts.items() if m and e > 1)
        pair = next(((a, b) for a, b in zip(orders, orders[1:]) if b % a), None)
        if pair is None:
            return tuple(chain.from_iterable(repeat(e, counts[e]) for e in orders))
        a, b = pair
        t = min(counts[a], counts[b])
        counts.update({a: -t, b: -t, gcd(a, b): t, lcm(a, b): t})


def _block_invariants(columns) -> tuple[int, tuple[int, ...]]:
    """(rank, invariant factors > 1) of sparse columns, from the dense Smith
    normal forms of the connected blocks of their row/column graph."""
    parent = list(range(len(columns)))

    def root(j):
        while parent[j] != j:
            parent[j] = j = parent[parent[j]]
        return j

    first_column = {}
    for j, col in enumerate(columns):
        for r in col:
            k = first_column.setdefault(r, j)
            if k != j:
                parent[root(k)] = root(j)
    blocks = defaultdict(list)
    for j, col in enumerate(columns):
        if col:
            blocks[root(j)].append(col)
    rank, factors = 0, []
    for cols in blocks.values():
        if len(cols) == 1 and len(cols[0]) == 1:  # a lone entry is its own SNF
            rank += 1
            factors.extend(abs(a) for a in cols[0].values())
            continue
        rows = {r: i for i, r in enumerate(sorted({r for col in cols for r in col}))}
        entries = [0] * (len(rows) * len(cols))
        for j, col in enumerate(cols):
            for r, a in col.items():
                entries[rows[r] * len(cols) + j] = a
        s = smith_normal_form(IntegerMatrix(len(rows), len(cols), tuple(entries)))
        rank += s.rank
        factors.extend(s.invariant_factors)
    return rank, _divisibility_chain(factors)


class ChainComplex:
    """Based free chain complex over the integers, truncated at ``max_degree``.

    ``basis_labels[n]`` lists the basis of the degree-n chain group.  The
    degree-n boundary is given sparse, one ``{row: coefficient}`` map per
    degree-n basis element with rows indexing the degree-(n-1) basis;
    missing degrees are zero.  Shapes and d o d = 0 are checked here, on
    every complex, so a complex that exists is a chain complex.  Each
    boundary's rank and invariant factors are kept once computed, as they
    serve two degrees of homology.  Degrees above ``max_degree`` are
    unknown, so homology can only be asked for strictly below the cap.
    """

    def __init__(self, basis_labels, boundaries):
        self.basis_labels = tuple(tuple(labels) for labels in basis_labels)
        if not self.basis_labels:
            raise ValueError("need at least the degree-0 basis")
        self.max_degree = len(self.basis_labels) - 1
        self._columns = {n: self._sparse(n, boundaries.get(n))
                         for n in range(1, self.max_degree + 1)}
        self._invariants: dict[int, tuple[int, tuple[int, ...]]] = {0: (0, ())}
        self.validate()

    def _sparse(self, n: int, boundary) -> tuple[dict[int, int], ...]:
        rows, cols = self.dim(n - 1), self.dim(n)
        if boundary is None:
            boundary = [{}] * cols
        columns = tuple({r: a for r, a in col.items() if a} for col in boundary)
        if len(columns) != cols or any(not 0 <= r < rows for col in columns for r in col):
            raise ValueError(f"boundary shape mismatch in degree {n}")
        return columns

    def dim(self, n: int) -> int:
        if not 0 <= n <= self.max_degree:
            raise ValueError(f"degree {n} outside stored range 0..{self.max_degree}")
        return len(self.basis_labels[n])

    def columns(self, n: int) -> tuple[dict[int, int], ...]:
        """The degree-n boundary as sparse columns; read them, do not mutate."""
        if not 1 <= n <= self.max_degree:
            raise ValueError(f"no boundary stored in degree {n}")
        return self._columns[n]

    def differential(self, n: int) -> IntegerMatrix:
        """The degree-n boundary (n >= 1) as a dense matrix, built on each call.

        The package reads ``columns``; this dense copy is kept for
        ``perfbench/tracer.py``, which counts boundary sizes with it.
        """
        columns, rows = self.columns(n), self.dim(n - 1)
        entries = [0] * (rows * len(columns))
        for j, col in enumerate(columns):
            for r, a in col.items():
                entries[r * len(columns) + j] = a
        return IntegerMatrix(rows, len(columns), tuple(entries))

    def validate(self) -> None:
        """Check d o d = 0, column by sparse column; run on construction."""
        for n in range(2, self.max_degree + 1):
            lower = self._columns[n - 1]
            for col in self._columns[n]:
                image = defaultdict(int)
                for r, a in col.items():
                    for s, b in lower[r].items():
                        image[s] += a * b
                if any(image.values()):
                    raise ValueError(f"d o d != 0 between degrees {n} and {n - 2}")

    def boundary_invariants(self, n: int) -> tuple[int, tuple[int, ...]]:
        """(rank, invariant factors > 1) of the degree-n boundary, memoised."""
        if n not in self._invariants:
            self._invariants[n] = _block_invariants(self.columns(n))
        return self._invariants[n]


def homology_of_complex(c: ChainComplex, n: int) -> tuple[int, list[int]]:
    """H_n(c) as (free rank, invariant factors > 1, ascending).

    H_n = Z^(dim C_n - rk d_n - rk d_(n+1)) + the sum of Z/e over the
    invariant factors e > 1 of d_(n+1), both boundaries reduced block by
    block (``ChainComplex.boundary_invariants``).  Raises for n ==
    max_degree, where the incoming boundary is unknown under truncation.
    """
    if not 0 <= n < c.max_degree:
        raise ValueError(
            f"homology needs the boundary from degree {n + 1}; "
            f"complex is truncated at {c.max_degree}")
    rank_out, _ = c.boundary_invariants(n)
    rank_in, torsion = c.boundary_invariants(n + 1)
    return c.dim(n) - rank_out - rank_in, list(torsion)
