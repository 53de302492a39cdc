"""Brute-force definitions that several test modules check the library against."""
from functools import lru_cache
from itertools import product
from math import comb, prod

from functorlab.augmentation import composition_entries
from functorlab.combinatorics import Multiset, multiset_codes, multisets_up_to
from functorlab.divided_powers import gamma_dimension
from functorlab.functors import Div, Ext, Sym, _wedge, _wedge_columns
from functorlab.intlinalg import Matrix


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


@lru_cache(maxsize=None)
def composition_tables(a: int, b: int, c: int, degree: int) -> tuple:
    """Table of [s][t] = [st] for a x b matrices s and b x c matrices t
    (flattened row-major), truncated at degree: table[i][j] holds the nonzero
    (index, coefficient) pairs, on the basis of B(ac), of the product of the
    basis classes of the i-th multiset of B(ab) and the j-th of B(bc).

    Read off the square composition entries of side m = max(a, b, c):
    padding with zeros embeds r x s matrices in m x m ones, commutes with
    the product, and sends the basis class of X to that of X's padded units.
    Padding keeps the order of the units, so each entry stays sorted.
    """
    m = max(a, b, c)
    entries = composition_entries(m, degree)
    index = {X: i for i, X in enumerate(multisets_up_to(m * m, degree))}

    def padded(rows: int, cols: int) -> list:
        """Positions in B(m^2) of the padded basis classes of B(rows * cols)."""
        return [
            index[Multiset(tuple((u // cols * m + u % cols, k) for u, k in X.pairs))]
            for X in multisets_up_to(rows * cols, degree)
        ]

    back = {t: i for i, t in enumerate(padded(a, c))}
    right = padded(b, c)
    return tuple(
        tuple(tuple((back[t], v) for t, v in entries[i][j]) for j in right) for i in padded(a, b)
    )


def depth_first_word_products(forms, length: int, times, repeat: bool = True) -> list:
    """The products of the forms over the sorted (or, without `repeat`,
    strictly increasing) words of the given length, in lexicographic order,
    by recursion: the depth-first walk the level-wise one replaced."""
    out = []

    def expand(acc: dict, start: int, depth: int):
        if depth == length:
            out.append(acc)
            return
        for t in range(start, len(forms)):
            expand(times(acc, forms[t]), t if repeat else t + 1, depth + 1)

    expand({0: 1}, 0, 0)
    return out


def _times_coded(acc: dict, form) -> dict:
    nxt: dict = {}
    for code, c in acc.items():
        for step, v in form:
            nxt[code + step] = nxt.get(code + step, 0) + c * v
    return nxt


def _gamma_of_hom(alpha: Matrix, degree: int) -> Matrix:
    """Gamma^degree(alpha) by the depth-first walk, each monomial placed
    through the index of every multiset code less the offset of the
    size-degree tail."""
    index = multiset_codes(alpha.ncols, degree)[2]
    width = gamma_dimension(alpha.ncols, degree)
    coded = [[((degree + 1) ** j, v) for j, v in row.items()] for row in alpha.sparse_rows]
    products = depth_first_word_products(coded, degree, _times_coded)
    offset = len(index) - width
    return Matrix([{index[code] - offset: c for code, c in acc.items()} for acc in products], width)


def transpose_route_arrow(spec, alpha: Matrix) -> Matrix:
    """The arrow of a Sym, Div or Ext spec by the depth-first walk, with
    Sym^n(alpha) = Gamma^n(alpha^T)^T through two transposes."""
    if isinstance(spec, Sym):
        return _gamma_of_hom(alpha.transpose(), spec.power).transpose()
    if isinstance(spec, Div):
        return _gamma_of_hom(alpha, spec.power)
    assert isinstance(spec, Ext)
    columns = _wedge_columns(alpha.ncols, spec.power)
    products = depth_first_word_products(alpha.sparse_rows, spec.power, _wedge, repeat=False)
    return Matrix([{columns[mask]: c for mask, c in acc.items()} for acc in products], len(columns))


def _tensor_relation_rows(
    gens: int, products, action: dict, basis, presentation: Matrix
) -> list[dict]:
    """Sparse rows {index: value} spanning the balanced-product relations
    inside Z^(len(products)*gens), zero rows left out.

    Generator (xi, j) sits at flat index xi*gens + j.  products[xi][y] holds
    the nonzero (index, coefficient) pairs of the xi-th left basis element
    times the y-th algebra basis class.  For each algebra basis class b and
    each generator: (p.b) (x) m_j - p (x) (b.m_j).
    """
    rows = []
    for y, Y in enumerate(basis):
        act_cols = action[Y].transpose().sparse_rows
        for xi in range(len(products)):
            moved = products[xi][y]
            if not moved:
                rows += [{xi * gens + g: -v for g, v in col.items()} for col in act_cols if col]
                continue
            for j, col in enumerate(act_cols):
                row = {}
                for pi, c in moved:
                    k = pi * gens + j
                    row[k] = row.get(k, 0) + c
                for g, v in col.items():
                    k = xi * gens + g
                    row[k] = row.get(k, 0) - v
                row = {k: v for k, v in row.items() if v}
                if row:
                    rows.append(row)
    for col in presentation.transpose().sparse_rows:
        if col:
            rows += [{xi * gens + g: v for g, v in col.items()} for xi in range(len(products))]
    return rows
