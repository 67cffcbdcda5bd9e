"""Exact integer linear algebra and homology of free chain complexes.

Everything here runs over Python's arbitrary-precision integers, so results
are exact.  Chain complexes store boundaries as sparse columns, since the
tensor models' boundaries are a few percent non-zero and split into small
connected blocks.  Homology is read off the boundaries' invariant factors,
block by block, merged into a single divisibility chain (Dumas, Saunders
and Villard, JSC 2001): a block with one row or one column has the gcd of
its entries, any other block one dense minimal-pivot Smith normal form.
Invariant factors are kept as counts, {factor: multiplicity}, from the
blocks to ``homology_counts``, which the route comparison reads; only
``homology_of_complex`` lists them out, for the degree asked.  Every
complex has d o d = 0 checked when it is built, so every complex here is
a chain complex.  A ``DirectSum`` of translated complexes, the form
the oracle gives a tensor model in, keeps one series per shape: an int
whose slot b holds the shape's multiplicity at base degree b (Kronecker
substitution; Schoenhage 1982).  Times the shape's memoised profile, its
dims, boundary ranks and torsion counts packed the same way
(``ChainComplex.profile``), a series gives all of that shape's terms in
one product, and each shape is reduced once however often it repeats, in
one sum or many: the sum needs only that homology commutes with direct
sums and translation.  The oracle's models sum in slots as wide as their
largest dim needs, the largest coefficient up to the cap of the product
of the factors' cell-count polynomials, which bounds every count in the
sum.  Each torsion order is read out once, in ascending order, and each
is a block's invariant factor > 1 with a count read from a set slot, so a
degree whose orders each divide the next, as one order or none do, is a
divisibility chain as read: only the other degrees are merged.  The
homology of every degree below the cap is one table, built with the sum,
that ``homology_counts`` reads.
Swapping in a faster SNF would only touch ``smith_normal_form``.

From the package this module imports only the leaf
:mod:`periodindex.packing`, which packs and unpacks series, merges orders
into a divisibility chain and imports nothing itself: the oracle knows no
closed form, no Tor rule and no Kunneth product.
"""

from __future__ import annotations

from collections import Counter, defaultdict, namedtuple
from itertools import chain, repeat, takewhile
from math import gcd
from operator import mod
from types import MappingProxyType
from typing import NamedTuple

from .packing import _divisibility_chain, _pack, _slot_width, _unpack


class IntegerMatrix(namedtuple("IntegerMatrix", "rows cols entries")):
    """Dense integer matrix with explicit shape (0-row / 0-column allowed).

    Entries are stored row-major in a flat tuple so that matrices are
    hashable values; anything that mutates works on nested lists and
    rebuilds at the end.  Every entry must be an ``int``: the constructor
    refuses a float or a str, which no arithmetic here keeps exact.
    """

    __slots__ = ()

    def __new__(cls, rows: int, cols: int, entries: tuple[int, ...]):
        if rows < 0 or cols < 0:
            raise ValueError("matrix shape must be non-negative")
        if len(entries) != rows * cols:
            raise ValueError(f"expected {rows * cols} entries, got {len(entries)}")
        if not all(isinstance(x, int) for x in entries):
            raise TypeError("matrix entries must be int")
        return tuple.__new__(cls, (rows, cols, entries))

    _make = classmethod(lambda cls, fields: cls(*fields))  # checked, and so is _replace

    @classmethod
    def from_rows(cls, rows: list[list[int]], cols: int | None = None) -> "IntegerMatrix":
        """Build from a list of rows; `cols` disambiguates the 0-row case."""
        if rows:
            width = len(rows[0])
            if cols is not None and cols != width:
                raise ValueError("cols does not match row width")
            if any(len(r) != width for r in rows):
                raise ValueError("ragged rows")
            return cls(len(rows), width, tuple(chain.from_iterable(rows)))
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
        columns = [other.entries[j::other.cols] for j in range(other.cols)]
        return IntegerMatrix(self.rows, other.cols, tuple(
            sum(x * y for x, y in zip(row, col)) for row in self.to_rows() for col in columns))


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


class SmithNormalForm(NamedTuple):
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
    divisibility chain directly.  With transforms the same steps run on the
    augmented matrix [[M, I], [I, 0]]: row steps on its first ``rows`` rows
    turn the right-hand I into U, column steps on its first ``cols`` columns
    turn the bottom I into V, and pivots are only ever read from the M block.
    """
    rows, cols = m.rows, m.cols
    a = m.to_rows()
    if with_transforms:
        a = ([row + unit for row, unit in zip(a, IntegerMatrix.identity(rows).to_rows())]
             + [unit + [0] * rows for unit in IntegerMatrix.identity(cols).to_rows()])

    def row_add(i, k, c):  # row i += c * row k
        a[i] = [x + c * y for x, y in zip(a[i], a[k])]

    def col_add(j, k, c):  # column j += c * column k
        for row in a:
            row[j] += c * row[k]

    def smallest(t):  # (|x|, i, j) of the first smallest nonzero M entry past (t, t)
        best = None
        for i in range(t, rows):
            for j, x in enumerate(a[i][t:cols], t):
                if x and (best is None or abs(x) < best[0]):
                    best = (abs(x), i, j)
                    if best[0] == 1:
                        return best
        return best

    t, limit = 0, min(rows, cols)
    while t < limit and (best := smallest(t)):
        _, i0, j0 = best
        a[t], a[i0] = a[i0], a[t]
        if j0 != t:
            for row in a:
                row[t], row[j0] = row[j0], row[t]
        # Clear column t and row t by quotients; a remainder left behind is
        # smaller than the pivot, so it becomes the next pivot tried at t.
        pivot = a[t][t]
        for i in range(t + 1, rows):
            if a[i][t]:
                row_add(i, t, -(a[i][t] // pivot))
        for j in range(t + 1, cols):
            if a[t][j]:
                col_add(j, t, -(a[t][j] // pivot))
        if any(a[i][t] for i in range(t + 1, rows)) or any(a[t][t + 1:cols]):
            continue
        # Divisibility: fold a row the pivot does not divide into row t and
        # redo this pivot.
        offender = next((i for i in range(t + 1, rows)
                         if any(x % pivot for x in a[i][t + 1:cols])), None)
        if offender is not None:
            row_add(t, offender, 1)
            continue
        if pivot < 0:
            a[t] = [-x for x in a[t]]
        t += 1

    factors = tuple(takewhile(bool, (a[i][i] for i in range(limit))))
    if not with_transforms:
        return SmithNormalForm(factors, len(factors))
    return SmithNormalForm(factors, len(factors),
                           IntegerMatrix.from_rows([row[cols:] for row in a[:rows]], cols=rows),
                           IntegerMatrix.from_rows([row[:cols] for row in a[rows:]], cols=cols))


def _dense(columns, index, rows: int) -> IntegerMatrix:
    """The ``rows``-row matrix of sparse columns, their row r in row index[r]."""
    entries = [0] * (rows * len(columns))
    for j, col in enumerate(columns):
        for r, a in col.items():
            entries[index[r] * len(columns) + j] = a
    return IntegerMatrix(rows, len(columns), tuple(entries))


def _block_invariants(columns) -> tuple[int, dict[int, int]]:
    """(rank, {invariant factor > 1: multiplicity}) of sparse columns, one
    connected block of their row/column graph at a time.  A block with one
    row or one column has rank 1 and factor the gcd of its entries; any
    other block gets a dense Smith normal form."""
    if len(columns) < 2 or len(set().union(*columns)) < 2:  # one block at most: no union-find
        g = gcd(*chain.from_iterable(map(dict.values, columns)))
        return (1, {g: 1} if g > 1 else {}) if g else (0, {})
    parent = list(range(len(columns)))

    def root(j):
        while parent[j] != j:
            parent[j] = j = parent[parent[j]]
        return j

    first_column = {}
    for j, col in enumerate(columns):
        for r in col:
            k = first_column.setdefault(r, j)
            if k != j:  # j is still the root of its own block
                parent[root(k)] = j
    blocks = defaultdict(list)
    for j, col in enumerate(columns):
        if col:
            blocks[root(j)].append(col)
    rank, factors = 0, Counter()
    for cols in blocks.values():
        if len(cols) == 1 or len(rows := set().union(*cols)) == 1:
            rank += 1
            factors[gcd(*(a for col in cols for a in col.values()))] += 1
            continue
        form = smith_normal_form(_dense(cols, {r: i for i, r in enumerate(rows)}, len(rows)))
        rank += form.rank
        factors.update(form.invariant_factors)
    return rank, _divisibility_chain(factors)


class ChainComplex:
    """Based free chain complex over the integers, truncated at ``max_degree``.

    ``dims[n]`` is the rank of the degree-n chain group.  The degree-n
    boundary is given sparse, one ``{row: coefficient}`` map per degree-n
    basis element with rows indexing the degree-(n-1) basis; a degree
    missing from ``boundaries`` has the zero boundary, ``dims[n]`` empty
    columns.  Stored entries are non-zero: zeros given are dropped.  Shapes
    and d o d = 0 are checked here, on every complex, so a complex that
    exists is a chain complex.  Each boundary's rank and invariant factors
    are kept once computed, as they serve two degrees of homology, and so
    is each width's ``profile``, the dims, ranks and torsion counts as the
    series that a ``DirectSum`` multiplies by.  Degrees above
    ``max_degree`` are unknown, so homology is only asked for below the cap.
    """

    __slots__ = ("dims", "max_degree", "_columns", "_invariants", "_packed")

    def __init__(self, dims, boundaries):
        self.dims = tuple(dims)
        if not self.dims:
            raise ValueError("need at least the degree-0 rank")
        if any(d < 0 for d in self.dims):
            raise ValueError("chain group ranks must be >= 0")
        self.max_degree = len(self.dims) - 1
        self._columns = {n: self._sparse(n, boundaries.get(n, repeat({}, self.dims[n])))
                         for n in range(1, self.max_degree + 1)}
        self._invariants: dict[int, tuple[int, dict[int, int]]] = {0: (0, {})}
        self._packed = {}
        self.validate()

    def _sparse(self, n: int, boundary) -> tuple[dict[int, int], ...]:
        rows, cols = self.dims[n - 1], self.dims[n]  # 1 <= n <= max_degree
        columns = []
        for col in boundary:  # copied once, zeros dropped, rows checked
            own = {}
            for r, a in dict.items(col):  # a TypeError for a column that is no dict
                if not 0 <= r < rows:
                    raise ValueError(f"boundary shape mismatch in degree {n}")
                if a:
                    own[r] = a
            columns.append(own)
        if len(columns) != cols:
            raise ValueError(f"boundary shape mismatch in degree {n}")
        return tuple(columns)

    def dim(self, n: int) -> int:
        if not 0 <= n <= self.max_degree:
            raise ValueError(f"degree {n} outside stored range 0..{self.max_degree}")
        return self.dims[n]

    def columns(self, n: int) -> tuple[dict[int, int], ...]:
        """The degree-n boundary as sparse columns; read them, do not mutate."""
        if not 1 <= n <= self.max_degree:
            raise ValueError(f"no boundary stored in degree {n}")
        return self._columns[n]

    def validate(self) -> None:
        """Check d o d = 0, column by sparse column; run on construction."""
        for n in range(2, self.max_degree + 1):
            lower = self._columns[n - 1]
            for col in self._columns[n]:
                image = {}
                for r, a in col.items():
                    for s, b in lower[r].items():
                        image[s] = image.get(s, 0) + a * b
                if any(image.values()):
                    raise ValueError(f"d o d != 0 between degrees {n} and {n - 2}")

    def boundary_invariants(self, n: int) -> tuple[int, dict[int, int]]:
        """(rank, {invariant factor > 1: multiplicity}) of the degree-n
        boundary, memoised."""
        if n not in self._invariants:
            self._invariants[n] = _block_invariants(self.columns(n))
        return self._invariants[n]

    def profile(self, width: int) -> tuple[int, int, tuple[tuple[int, int], ...]]:
        """(dims, boundary ranks, ((torsion order e, counts of Z/e), ...)) as
        series of ``width``-byte slots, slot n for degree n: all that a
        ``DirectSum`` multiplies its series by.  Built from
        ``boundary_invariants`` and kept per width while the complex lives."""
        packed = self._packed.get(width)
        if packed is None:
            bits, ranks, orders = 8 * width, [], {}
            for n in range(self.max_degree + 1):
                rank, factors = self.boundary_invariants(n)
                ranks.append(rank)
                for e, k in factors.items():
                    orders[e] = orders.get(e, 0) + (k << bits * n)
            packed = self._packed[width] = (_pack(self.dims, width), _pack(ranks, width),
                                            tuple(orders.items()))
        return packed


class DirectSum:
    """Direct sum of translated chain complexes, truncated at ``max_degree``.

    Each complex is complete (zero above its own ``max_degree``) and has
    its degree 0 in its base degree.  The sum is kept as {complex: series}:
    one int per shape whose slot b, ``width`` bytes wide, holds its
    multiplicity in base degree b, slots above ``max_degree`` cut off.
    Dims, boundary ranks and each torsion order's counts are each one sum
    of products, series times the shape's ``profile`` at that width, read
    out once, the orders ascending, and each degree's torsion merged into
    one divisibility chain: a shape repeated m times, at any bases, or in
    many sums, is reduced once while it lives, and the oracle's live for
    the process.  A degree whose orders each divide the next, as one order
    or none do, is its own chain and is not merged: every order of a
    profile comes from the chain that ``_block_invariants`` returns, so it
    is > 1, and each count is read from a slot that holds a set bit, so it
    is >= 1.  The homology of each degree below ``max_degree``, (dim less
    both boundary ranks, torsion of the next boundary), is tabled from the
    unpacked counts as the sum is built.  The width must bound every slot,
    up to ``max_degree``, of the series and of those sums; above it the
    slots of a shape's profile and of the products may carry, upwards
    only, past every slot read.  The constructor takes the sum of m times
    the cells of each complex (one at least, for a complex with no cells),
    ``from_series`` the caller's bound, which for the oracle's fold is its
    largest dim.
    """

    def __init__(self, summands, max_degree: int):
        """The sum of {(complex, base degree): multiplicity}, all >= 0."""
        summands = dict(summands)
        if any(base < 0 or m < 0 for (_, base), m in summands.items()):
            raise ValueError("base degrees and multiplicities must be >= 0")
        kept = [(c, base, m) for (c, base), m in summands.items() if m and base <= max_degree]
        width = _slot_width(sum(m * max(1, sum(c.dims)) for c, _, m in kept))
        series, bits = {}, 8 * width
        for c, base, m in kept:
            series[c] = series.get(c, 0) + (m << bits * base)
        self._add_up(series, width, max_degree)

    @classmethod
    def from_series(cls, series, width: int, max_degree: int) -> "DirectSum":
        """The sum of {complex: series} of ``width``-byte slots, each series
        cut at ``max_degree``; no slot up to ``max_degree`` of any sum of
        products may overflow."""
        self = cls.__new__(cls)
        self._add_up(series, width, max_degree)
        return self

    def _add_up(self, series, width: int, max_degree: int) -> None:
        self._series, self._width, self.max_degree = series, width, max_degree
        top = max_degree + 1
        dims = ranks = 0
        orders = {}
        for c, s in series.items():
            shape_dims, shape_ranks, shape_orders = c.profile(width)
            dims += s * shape_dims
            ranks += s * shape_ranks
            for e, t in shape_orders:
                orders[e] = orders.get(e, 0) + s * t
        torsion, bits = [{} for _ in range(top)], 8 * width
        slot, cut = (1 << bits) - 1, (1 << bits * top) - 1
        for e in sorted(orders):  # ascending, so each degree's counts are too
            t = orders[e] & cut
            while t:  # the slots in use below top, lowest first
                n = ((t & -t).bit_length() - 1) // bits
                torsion[n][e] = t >> bits * n & slot
                t &= ~(slot << bits * n)
        self.dims = dims = tuple(_unpack(dims, width, top))
        ranks = _unpack(ranks, width, top)
        # orders that each divide the next are a chain as read (class docstring)
        chains = [counts if len(counts) < 2 or not any(map(mod, list(counts)[1:], counts))
                  else _divisibility_chain(counts) for counts in torsion[1:]]
        self._homology = [(dim - out - into, counts) for dim, out, into, counts
                          in zip(dims, ranks, ranks[1:], chains)]

    @property
    def summands(self):
        """{(complex, base degree): multiplicity}, a read-only view unpacked
        from every slot of the series."""
        width = self._width
        return MappingProxyType({
            (c, base): m for c, s in self._series.items()
            for base, m in enumerate(_unpack(s, width, -(-s.bit_length() // (8 * width)))) if m})

    dim = ChainComplex.dim


def homology_counts(c: ChainComplex | DirectSum, n: int) -> tuple[int, dict[int, int]]:
    """H_n(c) as (free rank, {invariant factor > 1: multiplicity}, ascending).

    H_n = Z^(dim C_n - rk d_n - rk d_(n+1)) + the sum of Z/e over the
    invariant factors e > 1 of d_(n+1), both boundaries reduced block by
    block (``boundary_invariants``); a ``DirectSum`` reads its table of
    them.  The counts are the memoised ones, so read them, do not mutate.
    Raises for n < 0, and for n >= max_degree, where the incoming boundary
    is unknown under truncation.
    """
    if n < 0:
        raise ValueError(f"no homology in negative degree {n}")
    if n >= c.max_degree:
        raise ValueError(
            f"homology needs the boundary from degree {n + 1}; "
            f"complex is truncated at {c.max_degree}")
    if isinstance(c, DirectSum):
        return c._homology[n]
    rank_out, _ = c.boundary_invariants(n)
    rank_in, torsion = c.boundary_invariants(n + 1)
    return c.dim(n) - rank_out - rank_in, torsion


def homology_of_complex(c: ChainComplex | DirectSum, n: int) -> tuple[int, list[int]]:
    """H_n(c) as (free rank, invariant factors > 1, ascending), each factor
    listed as often as it occurs: ``homology_counts`` listed out."""
    free, torsion = homology_counts(c, n)
    listed = []
    for e, m in torsion.items():
        listed += [e] * m
    return free, listed
