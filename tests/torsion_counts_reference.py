"""The list-based torsion counts, kept test-side as the reference the
package's packed ``complexes._torsion_counts`` is compared against.

``torsion_counts`` keeps one Python int per degree: it multiplies by each
factor's mod-q series (1 + x^a) / (1 - x^s) slice by slice, then reads
t_d = (-1)^d times the sum of (-1)^j b_j over 1 <= j <= d off the product
b, by the universal coefficient theorem (b_d = [d = 0] + t_d + t_(d-1)).
"""

from itertools import accumulate
from operator import add, neg


def torsion_counts(series, max_degree: int) -> list[int]:
    """t_0, ..., t_max_degree for factors given as (a, s) pairs."""
    b = [1] + [0] * max_degree
    for a, s in series:
        b[a:] = list(map(add, b[a:], b))  # times 1 + x^a
        if s * s > max_degree:  # over 1 - x^s: add each block of s to the next
            for j in range(s, max_degree + 1, s):
                b[j:j + s] = map(add, b[j:j + s], b[j - s:j])
        else:  # or a running sum along each residue mod s, whichever takes fewer steps
            for i in range(s):
                b[i::s] = accumulate(b[i::s])
    b[0] = 0  # t_0; then t_d = (-1)^d times the sum of (-1)^j b_j over j <= d
    b[1::2] = map(neg, b[1::2])
    t = list(accumulate(b))
    t[1::2] = map(neg, t[1::2])
    return t
