"""Brute-force definitions that several test modules check the library against."""
from itertools import product
from math import comb, prod

from functorlab.combinatorics import Multiset


def stirling2(n: int, m: int) -> int:
    """Stirling number of the second kind: set partitions of n into m blocks,
    by the recurrence S(n, m) = m S(n-1, m) + S(n-1, m-1)."""
    if n < 0 or m < 0:
        raise ValueError("indices must be nonnegative")
    row = [1]
    for nn in range(1, n + 1):
        row = [(j * row[j] if j < len(row) else 0) + (row[j - 1] if j else 0) for j in range(nn + 1)]
    return row[m] if m <= n else 0


def stirling_sum_identity(n: int, m: int) -> int:
    """The alternating sum sum_{r=0}^{m} (-1)^(m-r) C(m, r) r^n, with 0^0 = 1;
    it equals m! * stirling2(n, m)."""
    if n < 0 or m < 0:
        raise ValueError("indices must be nonnegative")
    return sum((-1) ** (m - r) * comb(m, r) * r**n for r in range(m + 1))


def sub_multisets(X: Multiset) -> list:
    """(A, w) over sub-multisets A of X, with the basis class of X equal to
    the sum of w [A]: w = (-1)^(|X| - |A|) prod C(m_i, a_i)."""
    out = []
    for sub in product(*(range(m + 1) for _, m in X.pairs)):
        w = (-1) ** (X.size - sum(sub)) * prod(comb(m, a) for (_, m), a in zip(X.pairs, sub))
        out.append((Multiset(tuple((i, a) for (i, _), a in zip(X.pairs, sub) if a)), w))
    return out
