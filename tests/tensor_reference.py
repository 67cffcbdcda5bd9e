"""The general tensor product of based chain complexes, and elementary
complexes written out cell by cell, kept test-side as the references the
oracle's direct sums of shapes are compared against.

The package never builds a whole tensor product: its oracle folds the
factors' components into a ``DirectSum`` of shapes, and its one product is
a shape times an edge (``complexes._cone``).  This fold builds the whole
product plainly, so the tests can check that the two agree.
"""

from periodindex.complexes import ComplexKind
from periodindex.snf import ChainComplex


def per_kind_realization(c, max_degree: int) -> ChainComplex:
    """An elementary complex written out cell by cell, kind by kind, truncated
    at ``max_degree`` + 1: the reference for the oracle's one-factor direct
    sum, ``realize_chain_complex``, and the factors the fold below takes."""
    top, q = max_degree + 1, c.q
    dims, boundaries = [0] * (top + 1), {}
    for d in range(0, top + 1, 2 * q):  # gamma_k of the even generator, degree 2qk
        dims[d] = 1
    if c.kind is ComplexKind.EP_SECOND:
        # x gamma_k(y), degree 2q-1+2qk; d(gamma_k(y)) = h x gamma_(k-1)(y)
        for d in range(2 * q - 1, top + 1, 2 * q):
            dims[d] = 1
        for d in range(2 * q, top + 1, 2 * q):
            boundaries[d] = ({0: c.h},)
    else:
        # y gamma_k(x), degree 2q+1+2qk, to h(k+1) gamma_(k+1)(x)
        for k, d in enumerate(range(2 * q + 1, top + 1, 2 * q)):
            dims[d] = 1
            boundaries[d] = ({0: c.h * (k + 1)},)
    return ChainComplex(dims, boundaries)


def tensor_chain_complex(factors, max_degree: int) -> ChainComplex:
    """Tensor product of a sequence of based complexes, truncated at
    ``max_degree`` + 1, with the Koszul sign d(a ox b) = da ox b +
    (-1)^|a| a ox db.

    Every factor must be complete up to max_degree + 1 (what it lacks above
    its own cap counts as zero, which is the caller's responsibility).  The
    fold starts from the first factor (from Z in degree 0 when there is
    none) and keeps each partial product as plain dims and sparse columns;
    only the result becomes a ``ChainComplex``, so shapes and d o d = 0 are
    checked once, on the complex the caller holds.
    That check covers the partial products too: every factor built here has
    a degree-0 cell with zero boundary, and d^2(a ox 1) = d^2(a) ox 1.

    In degree d the basis of A ox B runs over i, then a in A_i, then b in
    B_(d-i), so a ox b sits at offset[d][i] + a * dim B_(d-i) + b.  The
    caller chooses the order of the factors, and with it the basis; the
    homology is the same in any order.
    """
    if max_degree < 0:
        raise ValueError("max_degree must be >= 0")
    top = max_degree + 1
    dims = columns = None  # the fold starts from the first factor, or Z in degree 0
    for c in factors:
        dim2 = list(c.dims[:top + 1]) + [0] * (top - c.max_degree)
        cols2 = [({},) * dim2[0]] + [c.columns(n) for n in range(1, min(c.max_degree, top) + 1)]
        dims, columns = (dim2, cols2) if dims is None else _tensor(dims, columns, dim2, cols2)
    if dims is None:
        dims, columns = [1] + [0] * top, [({},)]
    return ChainComplex(dims, dict(enumerate(columns)))


def _tensor(dim1, cols1, dim2, cols2):
    """(dims, columns) of one product in the fold: the column of a ox b, a in
    A_i and b in B_j, is da ox b + (-1)^i a ox db, over the blocks A_i ox B_j
    in which both ranks are non-zero."""
    offsets, dims = [], []
    for d in range(len(dim1)):
        start, size = {}, 0
        for i in range(d + 1):
            if dim1[i] and dim2[d - i]:
                start[i] = size
                size += dim1[i] * dim2[d - i]
        offsets.append(start)
        dims.append(size)
    columns = [({},) * dims[0]]
    for d in range(1, len(dim1)):
        out, below = [], offsets[d - 1]
        for i in offsets[d]:
            j, sign = d - i, (-1) ** i
            left, right = below.get(i - 1), below.get(i)  # blocks (i-1, j) and (i, j-1)
            for a, da in enumerate(cols1[i]):
                for b, db in enumerate(cols2[j]):
                    col = {left + r * dim2[j] + b: x for r, x in da.items()}
                    col.update((right + a * dim2[j - 1] + r, sign * x) for r, x in db.items())
                    out.append(col)
        columns.append(out)
    return dims, columns
