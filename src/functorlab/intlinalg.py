"""Exact linear algebra over the integers, with rational spillover: sparse
storage, sparse elimination.

Matrices are immutable and carry int or Fraction entries (never floats),
stored as sparse rows {column: nonzero} that never hold a zero; no other
module converts between dense and sparse rows.  Two constructors:

  * Matrix(rows, ncols), for rows from outside, each a dense sequence or a
    dict {column: value}, copies the rows and checks ragged rows, the
    declared width, the entry types (one C-level pass; only on a non-int
    entry a normalization entry by entry: bools and integral Fractions
    collapse to int, anything inexact is a TypeError) and the column range
    of dict rows.
  * Matrix._sparse(rows, ncols), for sparse rows the package built from
    checked matrices (arithmetic, products, transposes, stacking, the
    normal forms, the arrow maps), keeps the type pass and drops zeros but
    takes the list as it is: no copy, no width bookkeeping, no column scan.

Arithmetic, products, transposes and stacking run over the nonzeros; `rows`
is a dense read-out, built on access.  The integer normal forms drive
everything downstream:

  * hermite_normal_form  - canonical row form; lattice equality is HNF equality
  * smith_normal_form    - the diagonal form S with d_1 | d_2 | ..., no transforms
  * relation_invariants, relation_hermite_form - the same for sparse relations
  * kernel_lattice, cokernel_invariants, lattice_intersection, saturation

They share one elimination, `_echelon`, on copies of the stored rows: the
Smith form alternates row Hermite forms of the rows and of their transpose
(Kannan-Bachem), a kernel is read off the sparse transform rows of the rows
that reduce to zero, and saturation is the kernel of the kernel.  Rows are
bucketed by leading column, so the cost follows the nonzero entries, and no
dense identity or transform is built.  saturation is kept as public API and
as the tests' oracle for the kernel of gamma; nothing else in the package
calls it.

Cokernel invariants come from relation_invariants, also for a matrix (its
columns are the relations): before any Smith form, every relation with
a +-1 entry removes its generator by substitution, shortest relation first
(the unit-pivot reduction for sparse integer Smith forms, Dumas-Saunders-
Villard 2001), and the Smith form runs only on the sparse remainder.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from heapq import heapify, heappop, heappush
from itertools import chain, compress, repeat
from math import gcd, lcm

_INT = frozenset((int,))


def _norm(v):
    """Force an exact scalar: ints stay, bools and integral Fractions
    collapse to int."""
    if isinstance(v, int):
        return int(v)
    if isinstance(v, Fraction):
        return int(v) if v.denominator == 1 else v
    raise TypeError(f"exact scalar required, got {type(v).__name__}")


def _exact_nonzero(rows: list) -> list:
    """Sparse rows with exact entries and no zero: the rows themselves when
    one C-level pass finds only ints and no zero, else normalized copies."""
    if not _INT.issuperset(map(type, chain.from_iterable(map(dict.values, rows)))):
        rows = [{j: _norm(v) for j, v in row.items()} for row in rows]
    if not all(map(all, map(dict.values, rows))):
        rows = [dict(compress(row.items(), row.values())) for row in rows]
    return rows


class Matrix:
    """Immutable matrix with exact entries.  `sparse_rows` holds one dict
    {column: nonzero} per row, never a zero; read it, never change it."""

    __slots__ = ("sparse_rows", "nrows", "ncols")

    def __init__(self, rows, ncols: int | None = None):
        """Each row is a dense sequence or a dict {column: value}; zeros are
        dropped.  A matrix of dict rows alone needs `ncols`."""
        data, widths = [], []
        for row in rows:
            if not isinstance(row, dict):
                row = tuple(row)
                widths.append(len(row))
                if not _INT.issuperset(map(type, row)):
                    row = tuple(map(_norm, row))
                row = compress(enumerate(row), row)
            data.append(dict(row))
        shapes = set(widths)
        if len(shapes) > 1:
            raise ValueError("ragged rows")
        if shapes:
            (width,) = shapes
            if ncols is not None and ncols != width:
                raise ValueError(f"declared {ncols} columns, rows have {width}")
            ncols = width
        elif ncols is None:
            ncols = 0
        if len(widths) < len(data):  # some rows came as dicts
            data = _exact_nonzero(data)
            cols = list(chain.from_iterable(data))
            if cols and (min(cols) < 0 or max(cols) >= ncols):
                raise ValueError(f"a sparse row has a column outside range({ncols})")
        self._store(data, ncols)

    def _store(self, rows: list, ncols: int):
        object.__setattr__(self, "sparse_rows", tuple(rows))
        object.__setattr__(self, "nrows", len(rows))
        object.__setattr__(self, "ncols", ncols)

    def __setattr__(self, name, value):
        raise AttributeError("Matrix is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def _sparse(cls, rows: list, ncols: int) -> "Matrix":
        """The matrix of sparse rows that the package built itself, their
        columns in range(ncols): entries made exact and zeros dropped, as
        for dict rows in the constructor, but the list is taken as it is,
        with no copy and no column check."""
        mat = object.__new__(cls)
        mat._store(_exact_nonzero(rows), ncols)
        return mat

    @classmethod
    def zeros(cls, nrows: int, ncols: int) -> "Matrix":
        return cls._sparse([{}] * nrows, ncols)

    @classmethod
    def identity(cls, n: int) -> "Matrix":
        return cls._sparse([{i: 1} for i in range(n)], n)

    @classmethod
    def from_cols(cls, cols, nrows: int | None = None) -> "Matrix":
        """Matrix of dense columns."""
        cols = [tuple(c) for c in cols]
        if len(set(map(len, cols))) > 1:
            raise ValueError("ragged columns")
        return cls(cols, nrows).transpose()

    # -- structure ---------------------------------------------------------

    @property
    def shape(self) -> tuple[int, int]:
        return (self.nrows, self.ncols)

    @property
    def rows(self) -> tuple:
        """Dense read-out: one tuple per row, zeros filled in."""
        width = range(self.ncols)
        return tuple(tuple(map(row.get, width, repeat(0))) for row in self.sparse_rows)

    def __getitem__(self, key):
        i, j = key
        if not 0 <= j < self.ncols:
            raise IndexError(f"column index outside 0..{self.ncols - 1}")
        return self.sparse_rows[i].get(j, 0)

    def to_lists(self) -> list[list]:
        return [list(r) for r in self.rows]

    def transpose(self) -> "Matrix":
        return Matrix._sparse(_transpose(self.sparse_rows, self.ncols), self.nrows)

    # -- predicates ---------------------------------------------------------

    @property
    def is_integral(self) -> bool:
        return _INT.issuperset(map(type, chain.from_iterable(map(dict.values, self.sparse_rows))))

    @property
    def is_zero(self) -> bool:
        return not any(self.sparse_rows)

    def __eq__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        return self.shape == other.shape and self.sparse_rows == other.sparse_rows

    def __hash__(self):
        return hash((self.shape, tuple(frozenset(r.items()) for r in self.sparse_rows)))

    # -- arithmetic ----------------------------------------------------------

    def _combine(self, other: "Matrix", sign: int) -> "Matrix":
        if self.shape != other.shape:
            raise ValueError(f"shape mismatch {self.shape} vs {other.shape}")
        out = []
        for r, s in zip(self.sparse_rows, other.sparse_rows):
            r = dict(r)
            for j, v in s.items():
                r[j] = r.get(j, 0) + sign * v
            out.append(r)
        return Matrix._sparse(out, self.ncols)

    def __add__(self, other: "Matrix") -> "Matrix":
        return self._combine(other, 1)

    def __sub__(self, other: "Matrix") -> "Matrix":
        return self._combine(other, -1)

    def __neg__(self) -> "Matrix":
        return self.scale(-1)

    def scale(self, c) -> "Matrix":
        c = _norm(c)
        rows = [{j: c * v for j, v in r.items()} for r in self.sparse_rows]
        return Matrix._sparse(rows, self.ncols)

    def __matmul__(self, other: "Matrix") -> "Matrix":
        if self.ncols != other.nrows:
            raise ValueError(f"inner dimensions differ: {self.shape} @ {other.shape}")
        right = other.sparse_rows
        out = []
        for row in self.sparse_rows:
            acc: dict = {}
            for k, a in row.items():
                for j, b in right[k].items():
                    acc[j] = acc.get(j, 0) + a * b
            out.append(acc)
        return Matrix._sparse(out, other.ncols)

    def matvec(self, vec) -> tuple:
        vec = tuple(vec)
        if len(vec) != self.ncols:
            raise ValueError("vector length mismatch")
        support = dict(compress(enumerate(vec), vec))
        rows = self.sparse_rows
        return tuple(sum([v * support[j] for j, v in r.items() if j in support]) for r in rows)

    # -- exact numerics -------------------------------------------------------

    def denominator_lcm(self) -> int:
        values = chain.from_iterable(map(dict.values, self.sparse_rows))
        return lcm(1, *(v.denominator for v in values if isinstance(v, Fraction)))

    def rank(self) -> int:
        """Rank over the rationals (scale to integers, then echelon)."""
        return len(_echelon(_int_rows(self.scale(self.denominator_lcm()))))

    def det(self) -> int:
        """Exact determinant of a square integer matrix (fraction-free Bareiss)."""
        if self.nrows != self.ncols:
            raise ValueError("determinant needs a square matrix")
        if not self.is_integral:
            raise ValueError("determinant implemented for integer matrices only")
        n = self.nrows
        if n == 0:
            return 1
        m = self.to_lists()
        sign = 1
        prev = 1
        for k in range(n - 1):
            if m[k][k] == 0:
                for i in range(k + 1, n):
                    if m[i][k]:
                        m[k], m[i] = m[i], m[k]
                        sign = -sign
                        break
                else:
                    return 0
            for i in range(k + 1, n):
                for j in range(k + 1, n):
                    m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
                m[i][k] = 0
            prev = m[k][k]
        return sign * m[n - 1][n - 1]


def hstack(*mats: Matrix) -> Matrix:
    nrows = mats[0].nrows
    if any(m.nrows != nrows for m in mats):
        raise ValueError("row counts differ")
    return vstack(*(m.transpose() for m in mats)).transpose()


def vstack(*mats: Matrix) -> Matrix:
    ncols = mats[0].ncols
    if any(m.ncols != ncols for m in mats):
        raise ValueError("column counts differ")
    return Matrix._sparse([r for m in mats for r in m.sparse_rows], ncols)


def block_diag(*mats: Matrix) -> Matrix:
    rows, left = [], 0
    for m in mats:
        rows += [{left + j: v for j, v in r.items()} for r in m.sparse_rows]
        left += m.ncols
    return Matrix._sparse(rows, left)


def linear_combination(pairs, nrows: int, ncols: int) -> Matrix:
    """The sum of c * m over the (c, m) pairs, built as one Matrix."""
    total: list[dict] = [{} for _ in range(nrows)]
    for c, m in pairs:
        if m.shape != (nrows, ncols):
            raise ValueError(f"shape mismatch {m.shape} vs {(nrows, ncols)}")
        if c:
            for t, r in zip(total, m.sparse_rows):
                for j, v in r.items():
                    t[j] = t.get(j, 0) + c * v
    return Matrix._sparse(total, ncols)


def _int_rows(mat: Matrix, form: str = "Hermite") -> list[dict]:
    """Copies of the sparse rows of an integer matrix, for an elimination."""
    if not mat.is_integral:
        raise ValueError(f"{form} form needs integer entries")
    return [dict(row) for row in mat.sparse_rows]


def _transpose(rows: list[dict], width: int) -> list[dict]:
    """Sparse columns of sparse rows whose columns lie in 0..width-1."""
    cols: list[dict] = [{} for _ in range(width)]
    for i, row in enumerate(rows):
        for j, v in row.items():
            cols[j][i] = v
    return cols


def _echelon(rows: list[dict], transform: list[dict] | None = None) -> list[int]:
    """In-place integer row echelon of sparse rows {column: nonzero value},
    with back-reduction (canonical HNF layout).

    Rows are bucketed by leading column and a heap holds the columns whose
    bucket is pending, so column j touches only the rows that start there,
    and a row reduced to zero drops out.  Forward pass: per column, Euclid
    within the bucket: the entry of smallest absolute value (the topmost row
    on ties) becomes the pivot and the others are reduced modulo it, moving
    to the bucket of their new leading column, until only the pivot is left;
    then it is made positive.  Reducing by remainders rather than by Bezout
    combinations keeps entries small on dense matrices.  Positions follow
    the row swaps of an in-place elimination; rows are put in that order at
    the end.  Back pass: reduce entries above each pivot into [0, pivot).
    `transform` rows (sparse too) receive the same row operations.  Returns
    the list of pivot columns; rows beyond len(pivots) end up empty.
    """
    stores = (rows, transform) if transform is not None else (rows,)
    at = list(range(len(rows)))  # at[p]: the row standing at position p
    pos = list(range(len(rows)))  # pos[i]: the position of row i
    buckets: dict[int, list[int]] = {}
    for i, row in enumerate(rows):
        if row:
            buckets.setdefault(min(row), []).append(i)
    pending = sorted(buckets)  # a heap of the columns with a pending bucket
    pivots: list[int] = []

    def row_sub(i, k, q):
        for store in stores:
            ri = store[i]
            for c, v in store[k].items():
                w = ri.get(c, 0) - q * v
                if w:
                    ri[c] = w
                else:
                    del ri[c]

    while pending:
        j = heappop(pending)
        live = buckets.pop(j)
        r = len(pivots)
        while True:
            best = min(live, key=lambda i: (abs(rows[i][j]), pos[i]))
            other, p = at[r], pos[best]
            at[r], at[p], pos[best], pos[other] = best, other, r, p
            if len(live) == 1:
                break
            a = rows[best][j]
            still = [best]
            for i in live:
                if i != best:
                    row_sub(i, best, rows[i][j] // a)
                    if j in rows[i]:
                        still.append(i)
                    elif rows[i]:
                        lead = min(rows[i])
                        if lead not in buckets:
                            heappush(pending, lead)
                        buckets.setdefault(lead, []).append(i)
            live = still
        if rows[best][j] < 0:
            for store in stores:
                store[best] = {c: -v for c, v in store[best].items()}
        pivots.append(j)

    for store in stores:
        store[:] = [store[i] for i in at]

    # canonical back-reduction: entries above a pivot lie in [0, pivot).
    # Must go left to right: subtracting pivot row idx only touches columns
    # >= pivots[idx], so earlier pivot columns stay reduced.
    for idx, j in enumerate(pivots):
        p = rows[idx][j]
        for i in range(idx):
            q = rows[i].get(j, 0) // p
            if q:
                row_sub(i, idx, q)
    return pivots


def hermite_normal_form(mat: Matrix) -> Matrix:
    """Canonical row Hermite normal form, zero rows dropped.

    Two integer row spans are equal iff their forms are equal.
    """
    rows = _int_rows(mat)
    return Matrix._sparse(rows[: len(_echelon(rows))], mat.ncols)


def relation_hermite_form(width: int, relations) -> Matrix:
    """Hermite form of the span of sparse integer relations {column: value}
    in Z^width, with no dense copy of the relations."""
    rows = _relation_rows(width, relations)
    return Matrix._sparse(rows[: len(_echelon(rows))], width)


def hnf_with_transform(mat: Matrix) -> tuple[Matrix, Matrix]:
    """Return (H, U) with U unimodular, U @ mat == H, H echelon incl. zero rows."""
    rows, transform = _int_rows(mat), [{i: 1} for i in range(mat.nrows)]
    _echelon(rows, transform)
    return Matrix._sparse(rows, mat.ncols), Matrix._sparse(transform, mat.nrows)


def _kernel(rows: list[dict]) -> list[dict]:
    """Canonical Hermite rows of {y : sum_i y_i rows[i] == 0}: the transform
    rows of the rows that reduce to zero.  Reduces `rows` in place."""
    transform = [{i: 1} for i in range(len(rows))]
    kernel = transform[len(_echelon(rows, transform)):]
    return kernel[: len(_echelon(kernel))]


def left_kernel(mat: Matrix) -> Matrix:
    """Canonical basis rows of {y : y @ mat == 0}."""
    return Matrix._sparse(_kernel(_int_rows(mat)), mat.nrows)


@dataclass(frozen=True)
class Lattice:
    """Sublattice of Z^ambient_rank, held as canonical HNF basis rows."""

    ambient_rank: int
    basis: Matrix

    @classmethod
    def from_rows(cls, ambient_rank: int, rows) -> "Lattice":
        return cls(ambient_rank, hermite_normal_form(Matrix(rows, ambient_rank)))

    @property
    def rank(self) -> int:
        return self.basis.nrows

    @cached_property
    def _pivot_rows(self) -> dict:
        """Sparse basis row by pivot column, built on the first membership
        test.  Not a field, so equality and hashing still see the basis alone."""
        return {min(row): row for row in self.basis.sparse_rows}

    def contains(self, vec) -> bool:
        """Whether the lattice holds the vector, dense or a dict {index: value}.

        Reduces by the basis row of each leading column in increasing order;
        a Hermite row has no entry left of its pivot, so every column it
        touches is still to come."""
        if not isinstance(vec, dict):
            vec = tuple(vec)
            if len(vec) != self.ambient_rank:
                raise ValueError("vector length differs from ambient rank")
            vec = enumerate(vec)
        vec = dict(vec)
        pending = list(vec)
        heapify(pending)
        pivot_of = self._pivot_rows
        while pending:
            j = heappop(pending)
            v = vec[j]
            if not v:
                continue
            row = pivot_of.get(j)
            if row is None or v % row[j]:
                return False
            q = v // row[j]
            for c, w in row.items():
                if c not in vec:
                    vec[c] = 0
                    heappush(pending, c)
                vec[c] -= q * w
        return True


def kernel_lattice(mat: Matrix) -> Lattice:
    """Integer solutions of mat @ x == 0, as a (saturated) lattice in Z^ncols."""
    cols = _transpose(_int_rows(mat), mat.ncols)
    return Lattice(mat.ncols, Matrix._sparse(_kernel(cols), mat.ncols))


@dataclass(frozen=True)
class CokernelInvariants:
    """Torsion invariant factors (each > 1, divisibility order) and free rank."""

    torsion: tuple[int, ...]
    free_rank: int

    @property
    def trivial(self) -> bool:
        return not self.torsion and self.free_rank == 0


def cokernel_invariants(mat: Matrix) -> CokernelInvariants:
    """Invariants of Z^nrows / (column span of mat)."""
    return relation_invariants(mat.nrows, mat.transpose().sparse_rows)


def relation_invariants(width: int, relations) -> CokernelInvariants:
    """Invariants of Z^width modulo the span of sparse integer relations,
    each a mapping {column: value}.

    Unit pivots first: while some relation has an entry u = +-1 at column j,
    it says e_j = -u * (the rest of it), so e_j is substituted out of the
    other relations touching column j, and that relation and generator j are
    dropped.  Each step is unimodular, so the invariants do not change.  The
    shortest relation goes first (fewest substitutions, least fill), and
    among its unit columns the one touched by the fewest relations.  The
    Smith form then runs only on the sparse remainder.
    """
    rels = dict(enumerate(_relation_rows(width, relations)))
    touching: dict[int, set] = {}  # column -> ids of the relations with an entry there
    for i, row in rels.items():
        for j in row:
            touching.setdefault(j, set()).add(i)
    # (length, id), pushed again whenever a relation changes; stale entries skip
    queue = [(len(row), i) for i, row in rels.items()]
    heapify(queue)
    removed = 0
    while queue:
        size, i = heappop(queue)
        pivot = rels.get(i)
        if pivot is None or len(pivot) != size:
            continue
        units = [j for j, v in pivot.items() if v == 1 or v == -1]
        if not units:
            continue
        j = min(units, key=lambda c: len(touching[c]))
        del rels[i]
        for k in pivot:
            touching[k].discard(i)
        u = pivot.pop(j)
        for s in touching.pop(j):
            other = rels[s]
            c = other.pop(j) * u
            for k, v in pivot.items():
                w = other.get(k, 0) - c * v
                if w:
                    if k not in other:
                        touching[k].add(s)
                    other[k] = w
                else:
                    del other[k]
                    touching[k].discard(s)
            if other:
                heappush(queue, (len(other), s))
            else:
                del rels[s]
        removed += 1
    diag = _smith_diagonal(list(rels.values()), width)
    torsion = tuple(d for d in diag if d > 1)
    return CokernelInvariants(torsion, width - removed - len(diag))


def _relation_rows(width: int, relations) -> list[dict]:
    """Checked copies of sparse integer relations {column: value} in Z^width,
    with zero entries, empty relations and repeated relations left out."""
    rows, seen = [], set()
    for rel in relations:
        row = {}
        for j, v in rel.items():
            if v:
                if not isinstance(v, int):
                    raise ValueError("relations need integer entries")
                if not 0 <= j < width:
                    raise ValueError(f"relation column outside 0..{width - 1}")
                row[j] = v
        key = frozenset(row.items())
        if row and key not in seen:
            seen.add(key)
            rows.append(row)
    return rows


def smith_normal_form(mat: Matrix) -> Matrix:
    """Smith form S of mat: same shape, nonnegative diagonal d_1 | d_2 | ...,
    zero past the rank, every other entry zero."""
    diag = _smith_diagonal(_int_rows(mat, "Smith"), mat.ncols)
    rows = [{i: d} for i, d in enumerate(diag)] + [{}] * (mat.nrows - len(diag))
    return Matrix._sparse(rows, mat.ncols)


def _smith_diagonal(rows: list[dict], width: int) -> list[int]:
    """Nonzero invariant factors d_1 | d_2 | ... of sparse rows in Z^width.

    Row Hermite forms of the rows and of the transpose alternate until each
    row keeps one nonzero entry.  Each pass's first pivot divides the last
    one's, and an equal pivot leaves its row and column cleared for good, so
    the loop ends.  gcd/lcm swaps then order the diagonal into a chain.
    """
    while True:
        rank = len(_echelon(rows))
        rows = rows[:rank]
        if all(len(r) == 1 for r in rows):
            break
        rows, width = _transpose(rows, width), rank
    diag = [v for r in rows for v in r.values()]
    for i in range(rank):
        for j in range(i + 1, rank):
            g = gcd(diag[i], diag[j])
            diag[i], diag[j] = g, diag[i] // g * diag[j]
    return diag


def lattice_intersection(a: Lattice, b: Lattice) -> Lattice:
    if a.ambient_rank != b.ambient_rank:
        raise ValueError("ambient ranks differ")
    relations = left_kernel(vstack(a.basis, b.basis))
    coeffs = [{j: v for j, v in rel.items() if j < a.rank} for rel in relations.sparse_rows]
    return Lattice(a.ambient_rank, hermite_normal_form(Matrix._sparse(coeffs, a.rank) @ a.basis))


def saturation(lat: Lattice) -> Lattice:
    """Smallest sublattice containing lat whose quotient is torsion-free."""
    amb = lat.ambient_rank
    ortho = _kernel(_transpose(_int_rows(lat.basis), amb))
    return Lattice(amb, Matrix._sparse(_kernel(_transpose(ortho, amb)), amb))


def lattice_index(lat: Lattice) -> int | None:
    """Index [Z^n : lat]; None when the lattice has infinite index."""
    if lat.rank < lat.ambient_rank:
        return None
    result = 1
    for i in range(lat.ambient_rank):
        result *= lat.basis[i, i]
    return result


def solve_int(mat: Matrix, target) -> tuple | None:
    """One integer solution x of mat @ x == target, or None."""
    cols, transform = _transpose(_int_rows(mat), mat.ncols), [{i: 1} for i in range(mat.ncols)]
    b = list(target)
    if len(b) != mat.nrows:
        raise ValueError("target length differs from row count")
    x = [0] * mat.ncols
    for j, row, urow in zip(_echelon(cols, transform), cols, transform):
        if b[j] % row[j]:
            return None
        c = b[j] // row[j]
        for k, v in row.items():
            b[k] -= c * v
        for k, v in urow.items():
            x[k] += c * v
    if any(b):
        return None
    return tuple(x)


def solve_rational(mat: Matrix, rhs: Matrix) -> Matrix:
    """Unique rational solution X of mat @ X == rhs for full-column-rank mat."""
    m, n = mat.shape
    if rhs.nrows != m:
        raise ValueError("row counts differ")
    aug = [[Fraction(v) for v in row] + [Fraction(w) for w in rrow]
           for row, rrow in zip(mat.rows, rhs.rows)]
    pivots = []
    r = 0
    for j in range(n):
        pivot_row = next((i for i in range(r, m) if aug[i][j]), None)
        if pivot_row is None:
            raise ValueError("matrix does not have full column rank")
        aug[r], aug[pivot_row] = aug[pivot_row], aug[r]
        p = aug[r][j]
        aug[r] = [v / p for v in aug[r]]
        for i in range(m):
            if i != r and aug[i][j]:
                f = aug[i][j]
                aug[i] = [a - f * b for a, b in zip(aug[i], aug[r])]
        pivots.append(j)
        r += 1
    for i in range(r, m):
        if any(aug[i][n:]):
            raise ValueError("inconsistent system")
    return Matrix((aug[i][n:] for i in range(n)), rhs.ncols)


def rational_inverse(mat: Matrix) -> Matrix:
    if mat.nrows != mat.ncols:
        raise ValueError("inverse needs a square matrix")
    return solve_rational(mat, Matrix.identity(mat.nrows))
