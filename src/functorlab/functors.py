"""Catalog of classical module functors and the degree-n module dictionary.

A functor spec is a value of one class per functor kind: Tensor, Sym, Ext
and Div (the powers, sharing one base and one power check), Const and
DirectSum.  Each class holds its JSON key, label, degree, object dimension
`dim(q)` and arrow map `arrow(mat)`; the module-level functions object_dim
and arrow_map dispatch to them after validating their input.  Sym, Div and
Ext expand products of linear forms by one level-wise word walk,
_word_products of divided_powers: Div over alpha's rows and Sym over its
columns, keyed by monomial code, and Ext wedges rows, keyed by bitmask.

Degree-certified functors are traded for modules over the degree-truncated
augmentation algebra of the n x n matrix module: the basis class of a
multiset X acts by the deviation of the arrow map at X's word of matrix
units, the Newton forward difference of the arrows at the multiplicity
matrices of size <= n.  One difference table per (spec, n) and one
certificate per (spec, n, seed), a direct sum's from its parts', serve every
extraction, so none evaluates or samples the functor again (n = 4, one
core: sym^4 0.8 s, div^4 0.9 s, tensor^4 8 s, 6-7 s of it the certificate).
Reconstruction reads the value on Z^q off the module's n + 1 cross effects,
at a cost that does not grow with q.  Restriction/extension of scalars
moves between that algebra and the divided power algebra Gamma^n of
matrices.  Extension writes balanced relations for n + 4 or fewer ring
generators [g] only, acting on Gamma^n as Gamma^n(x -> xg), and Green's rule
tabulates the left Schur products once per n.  A homogeneous functor's
divided-power structure is in closed form: the basis class of A acts by the
same deviation at A's word, divided by a! = prod(a_i!).

Both kinds of module are a PresentedModule, a cokernel with one action
matrix per basis multiset; MoritaModule and GammaModuleStruct differ only in
the algebra, its product and its unit.
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from operator import add

from .augmentation import AugAlgebra, aug_dimension, composition_entries
from .combinatorics import (
    binomial, multiset_codes, multisets_exactly, multisets_up_to,
)
from .deviations import DeviationReport, scaling_law
from .divided_powers import (
    GammaModule,
    _monomial_columns,
    _times_coded,
    _word_products,
    gamma_of_hom,
    schur_product,
)
from .gamma_section import VerificationError, gamma_matrix
from .intlinalg import (
    CokernelInvariants,
    Lattice,
    Matrix,
    _smith_diagonal,
    block_diag,
    cokernel_invariants,
    hstack,
    linear_combination,
    relation_hermite_form,
)


class FunctorSpec:
    """Base of the functor kinds.  Each kind holds its JSON form (`key`),
    label, degree, object dimension `dim(q)` and arrow map `arrow(mat)` on
    an integer matrix."""

    __slots__ = ()


def _check_power(n: int):
    if not isinstance(n, int) or isinstance(n, bool) or n < 0:
        raise ValueError(f"power must be a nonnegative integer, got {n!r}")


@dataclass(frozen=True)
class _Power(FunctorSpec):
    """The power-th tensor, symmetric, exterior or divided power."""

    power: int

    def __post_init__(self):
        _check_power(self.power)

    def to_json(self):
        return {self.key: self.power}

    def label(self) -> str:
        return f"{self.key}^{self.power}"

    def degree(self) -> int:
        return self.power


class Tensor(_Power):
    """Pure tensors in lexicographic order."""

    key = "tensor"

    def dim(self, q: int) -> int:
        return q**self.power

    def arrow(self, mat: Matrix) -> Matrix:
        # iterated Kronecker product: row (a, j) is row a times row j of mat
        p = mat.ncols
        rows = [{0: 1}]
        for _ in range(self.power):
            rows = [
                {b * p + i: c * v for b, c in left.items() for i, v in right.items()}
                for left in rows
                for right in mat.sparse_rows
            ]
        return Matrix._sparse(rows, p**self.power)


class Sym(_Power):
    """Monomials by sorted multiset word.  Sym^n(alpha) = Gamma^n(alpha^T)^T:
    column A, the product of alpha's columns a_1..a_n read as linear forms
    (gamma_of_hom's expansion), is written into its monomials' rows."""

    key = "sym"

    def dim(self, q: int) -> int:
        return binomial(q + self.power - 1, self.power)

    def arrow(self, mat: Matrix) -> Matrix:
        forms: list[list] = [[] for _ in range(mat.ncols)]  # alpha's columns, coded
        for i, row in enumerate(mat.sparse_rows):
            for j, v in row.items():
                forms[j].append(((self.power + 1) ** i, v))
        columns = _monomial_columns(mat.nrows, self.power)
        rows: list[dict] = [{} for _ in columns]
        products = _word_products(forms, self.power, _times_coded)
        for a, acc in enumerate(products):
            for code, c in acc.items():
                rows[columns[code]][a] = c
        return Matrix._sparse(rows, len(products))


@lru_cache(maxsize=None)
def _wedge_columns(nvars: int, power: int) -> dict:
    """Column of each wedge e_S, |S| = power, in the order of
    itertools.combinations, keyed by the bitmask of S."""
    return {sum(1 << j for j in S): i for i, S in enumerate(combinations(range(nvars), power))}


def _wedge(acc: dict, form: dict) -> dict:
    """acc wedge form, the wedges e_S keyed by the bitmask of S: e_S wedge
    e_j is e_(S + j), signed by the parity of the members of S above j."""
    nxt: dict = {}
    for mask, c in acc.items():
        for j, v in form.items():
            if not mask >> j & 1:
                key = mask | 1 << j
                w = -c * v if (mask >> j).bit_count() & 1 else c * v
                nxt[key] = nxt.get(key, 0) + w
    return nxt


class Ext(_Power):
    """Strictly increasing index tuples.  Row J of Ext^n(alpha) is the wedge
    of alpha's rows j_1..j_n read as linear forms, whose coefficient at e_I
    is the minor at rows J and columns I."""

    key = "ext"

    def dim(self, q: int) -> int:
        return binomial(q, self.power)

    def arrow(self, mat: Matrix) -> Matrix:
        columns = _wedge_columns(mat.ncols, self.power)
        products = _word_products(mat.sparse_rows, self.power, _wedge, repeat=False)
        rows = [{columns[mask]: c for mask, c in acc.items()} for acc in products]
        return Matrix._sparse(rows, len(columns))


class Div(_Power):
    """Divided powers by sorted multiset word."""

    key = "div"

    def dim(self, q: int) -> int:
        return binomial(q + self.power - 1, self.power)

    def arrow(self, mat: Matrix) -> Matrix:
        return gamma_of_hom(mat, self.power)


@dataclass(frozen=True)
class Const(FunctorSpec):
    """The constant functor of the given rank; every arrow is the identity."""

    rank: int
    key = "const"

    def __post_init__(self):
        _check_power(self.rank)

    def to_json(self):
        return {self.key: self.rank}

    def label(self) -> str:
        return f"const({self.rank})"

    def degree(self) -> int:
        return 0

    def dim(self, q: int) -> int:
        return self.rank

    def arrow(self, mat: Matrix) -> Matrix:
        return Matrix.identity(self.rank)


@dataclass(frozen=True)
class DirectSum(FunctorSpec):
    """Finite direct sum; arrows are block diagonal, in the order of parts."""

    parts: tuple
    key = "sum"

    def __init__(self, *parts):
        if len(parts) == 1 and isinstance(parts[0], (tuple, list)):
            parts = tuple(parts[0])
        if not parts:
            raise ValueError("direct sum needs at least one part")
        for p in parts:
            if not isinstance(p, FunctorSpec):
                raise ValueError(f"not a functor spec: {p!r}")
        object.__setattr__(self, "parts", tuple(parts))

    def to_json(self):
        return {self.key: [p.to_json() for p in self.parts]}

    def label(self) -> str:
        return "(" + " + ".join(p.label() for p in self.parts) + ")"

    def degree(self) -> int:
        return max(p.degree() for p in self.parts)

    def dim(self, q: int) -> int:
        return sum(p.dim(q) for p in self.parts)

    def arrow(self, mat: Matrix) -> Matrix:
        return block_diag(*(p.arrow(mat) for p in self.parts))


_KINDS = {kind.key: kind for kind in (Tensor, Sym, Ext, Div, Const)}


def spec_from_json(data) -> FunctorSpec:
    if not isinstance(data, dict) or len(data) != 1:
        raise ValueError(f"functor spec must be a one-key object, got {data!r}")
    key, value = next(iter(data.items()))
    if key in _KINDS:
        return _KINDS[key](value)
    if key == DirectSum.key:
        return DirectSum(tuple(spec_from_json(p) for p in value))
    raise ValueError(f"unknown functor kind {key!r}")


def object_dim(spec: FunctorSpec, q: int) -> int:
    if q < 0:
        raise ValueError("rank must be nonnegative")
    return spec.dim(q)


def arrow_map(spec: FunctorSpec, alpha: Matrix) -> Matrix:
    """Matrix of the induced map on the chosen bases, each kind's `arrow`
    after the integrality check."""
    if not alpha.is_integral:
        raise ValueError("arrow maps take integer matrices")
    return spec.arrow(alpha)


def scaling_cross_check(spec: FunctorSpec, n: int, alpha: Matrix) -> DeviationReport:
    """The binomial scaling law for the table r -> arrow_map(spec, r * alpha)."""
    return scaling_law(lambda r: arrow_map(spec, alpha.scale(r)), n)


def degree_certificate(spec: FunctorSpec, n: int, seed: int = 0) -> DeviationReport:
    """Certify (by exact sampling) that the functor is numerical of degree <= n.

    Two ingredients: the scaling law at the identity of the rank-(n+1)
    module on the window [-(n+2), n+2], and the vanishing of every (n+1)-st
    deviation of the arrow map on three seeded random matrix tuples of each
    of assorted shapes.

    The report is a pure function of (spec, n, seed), all frozen and
    hashable, so it is memoized however seed is passed: extract_morita_module
    reuses the certificate a caller has just asked for.  A raising call is
    not cached.
    """
    return _certificate(spec, n, seed)


@lru_cache(maxsize=None)
def _scaling(spec: FunctorSpec, n: int) -> DeviationReport:
    """The scaling law at the identity of rank n + 1, which gives it at rank
    n, as F(r I_n) = F(p) F(r I_(n+1)) F(i) for the projection p and
    inclusion i (at rank n it can be vacuous); a sum's is its parts'."""
    if isinstance(spec, DirectSum):
        return min((_scaling(p, n) for p in spec.parts), key=lambda r: (r.passed, r.samples_used))
    return scaling_cross_check(spec, n, Matrix.identity(n + 1))


@lru_cache(maxsize=None)
def _certificate(spec: FunctorSpec, n: int, seed: int) -> DeviationReport:
    """A direct sum's report is its parts': the failing one's with the fewest
    samples used (the scaling laws first), else their common passing one.
    Exact: the sum's arrow is block diagonal, so a scaling-law comparison or
    sampled deviation holds on it iff on every part, and no window point or
    draw depends on the functor: the sum fails at its parts' earliest failure."""
    if n < 0:
        raise ValueError("degree must be nonnegative")
    report = _scaling(spec, n)
    if not report.passed:
        return report
    if isinstance(spec, DirectSum):
        reports = (_certificate(part, n, seed) for part in spec.parts)
        return min(reports, key=lambda r: (r.passed, r.samples_used))
    used = report.samples_used
    rng = random.Random(seed)
    for qq, pp in [(m, m) for m in range(1, n + 2)] + [(2, 1), (1, 2)]:
        for _ in range(3):
            mats = [
                tuple(tuple(rng.randint(-2, 2) for _ in range(pp)) for _ in range(qq))
                for _ in range(n + 1)
            ]
            # the signed subset sums as int rows, doubled one matrix at a time
            sums = [((-1) ** len(mats), [[0] * pp] * qq)]
            for m in mats:
                sums += [(-sign, [list(map(add, r, q)) for r, q in zip(s, m)]) for sign, s in sums]
            arrows = ((sign, arrow_map(spec, Matrix(s, pp))) for sign, s in sums)
            dev = linear_combination(arrows, object_dim(spec, qq), object_dim(spec, pp))
            used += 1
            if not dev.is_zero:
                return DeviationReport(n, used, False, ("deviation", tuple(mats)))
    return DeviationReport(n, used, True)


def _flat(mat: Matrix) -> tuple:
    return tuple(v for row in mat.rows for v in row)


class PresentedModule:
    """Module coker(presentation) over a multiset-indexed algebra: each basis
    multiset of the algebra acts by a square matrix on the generators.
    Construction checks that the actions descend to the cokernel (when there
    are relations) and that `unit`, the unit of the algebra's product, acts
    as the identity."""

    def __init__(self, n: int, algebra, presentation: Matrix, action: dict, unit):
        self.n = n
        self.algebra = algebra
        self.presentation = presentation
        self.generators = presentation.nrows
        self.action = dict(action)
        if set(self.action) != set(algebra.basis):
            raise ValueError("action must cover exactly the algebra basis")
        self._relations = Lattice.from_rows(self.generators, presentation.transpose().sparse_rows)
        for X, m in self.action.items():
            if m.shape != (self.generators, self.generators):
                raise ValueError(f"action matrix for {X} has shape {m.shape}")
            if presentation.ncols and not self.zero_action(m @ presentation):
                raise VerificationError(f"action of {X} does not preserve the relations")
        if not self.identity_action(self.act(unit)):
            raise VerificationError("the unit of the algebra does not act as the identity")

    def act(self, elem) -> Matrix:
        if elem.space != self.algebra:
            raise ValueError("element lives in the wrong algebra")
        pairs = ((c, self.action[X]) for X, c in elem.coeffs.items())
        return linear_combination(pairs, self.generators, self.generators)

    def zero_action(self, mat: Matrix) -> bool:
        """Whether the matrix sends every generator into the relation lattice."""
        if mat.is_zero:
            return True
        if not mat.is_integral:
            return False
        return all(map(self._relations.contains, mat.transpose().sparse_rows))

    def identity_action(self, mat: Matrix) -> bool:
        return self.zero_action(mat - Matrix.identity(self.generators))

    def _multiplicative(self, product, pairs: int, seed: int) -> bool:
        """act(product(u, v)) == act(u) act(v) on seeded random basis pairs."""
        rng = random.Random(seed)
        basis = self.algebra.basis
        for _ in range(pairs):
            X = basis[rng.randrange(len(basis))]
            Y = basis[rng.randrange(len(basis))]
            uv = product(self.algebra.basis_element(X), self.algebra.basis_element(Y))
            if not self.zero_action(self.act(uv) - self.action[X] @ self.action[Y]):
                return False
        return True

    def group_invariants(self) -> CokernelInvariants:
        return cokernel_invariants(self.presentation)


class MoritaModule(PresentedModule):
    """Module over the degree-n augmentation algebra of n x n matrices, with
    the composition product; its unit is the class of the identity matrix."""

    def __init__(self, n: int, algebra: AugAlgebra, presentation: Matrix, action: dict):
        if algebra.rank != n * n or algebra.degree != n:
            raise ValueError("algebra does not match the stated degree")
        unit = algebra.class_of(_flat(Matrix.identity(n)))
        super().__init__(n, algebra, presentation, action, unit)

    def check_multiplicativity(self, pairs: int = 20, seed: int = 0) -> bool:
        """act(u v) == act(u) act(v) for the composition product."""
        return self._multiplicative(self.algebra.product_mul, pairs, seed)


@lru_cache(maxsize=None)
def _difference_plan(n: int) -> tuple:
    """(position, lower position) steps of the forward differences over
    multisets_up_to(n * n, n): per unit u and level 1..n, each position whose
    multiplicity of u reaches the level, top code first, with the position
    of one u fewer."""
    codes, _, index = multiset_codes(n * n, n)
    order = sorted(range(len(codes)), key=codes.__getitem__, reverse=True)
    return tuple(
        (t, index[codes[t] - e])
        for e in [(n + 1) ** u for u in range(n * n)]
        for level in range(1, n + 1)
        for t in order
        if codes[t] // e % (n + 1) >= level
    )


@lru_cache(maxsize=None)
def _difference_table(spec: FunctorSpec, n: int) -> tuple:
    """Deviation of the arrow map at the word of n x n matrix units of each
    X in multisets_up_to(n * n, n), in that order.  A subset of X's word sums
    to the multiplicity matrix of a sub-multiset, so the deviation is the
    forward difference prod_u (E_u - 1)^(x_u) F(0), F(A) the arrow at the
    multiplicity matrix A and E_u the shift by unit u: one arrow per
    multiset, then T[A] -= T[A - u] in place by _difference_plan, whose top
    code first order leaves T[A - u] at the level below.  Entries are kept
    flat, {row * dim + column: v}.  A direct sum's table is the block
    diagonal of its parts' tables, as forward differences are linear."""
    if isinstance(spec, DirectSum):
        return tuple(map(block_diag, *(_difference_table(part, n) for part in spec.parts)))
    dim = object_dim(spec, n)
    table = []
    for A in multisets_up_to(n * n, n):
        rows: list[dict] = [{} for _ in range(n)]
        for u, m in A.pairs:
            rows[u // n][u % n] = m
        arrow = arrow_map(spec, Matrix._sparse(rows, n)).sparse_rows
        table.append({i * dim + j: v for i, row in enumerate(arrow) for j, v in row.items()})
    for t, lower in _difference_plan(n):
        entry = table[t]
        for k, v in table[lower].items():
            entry[k] = entry.get(k, 0) - v
    out = []
    for entry in table:
        rows = [{} for _ in range(dim)]
        for k, v in entry.items():
            if v:
                rows[k // dim][k % dim] = v
        out.append(Matrix._sparse(rows, dim))
    return tuple(out)


def extract_morita_module(spec: FunctorSpec, n: int, seed: int = 0) -> MoritaModule:
    """Degree-certify the functor, then read off its module structure: the
    basis class of X acts by the deviation of the arrow map at X's word of
    matrix units."""
    cert = degree_certificate(spec, n, seed=seed)
    if not cert.passed:
        raise ValueError(f"functor {spec.label()} fails the degree-{n} certificate: {cert.witness}")
    algebra = AugAlgebra(n * n, n)
    action = dict(zip(algebra.basis, _difference_table(spec, n)))
    return MoritaModule(n, algebra, Matrix.zeros(object_dim(spec, n), 0), action)


def reconstruct(module: MoritaModule, q: int) -> CokernelInvariants:
    """Invariants of G(Z^q) = P_q (x)_B M, with P_q the degree-n augmentation
    algebra of q x n matrices, a right module over B = B(n^2, n) by
    composition: for the module of a degree-n functor, its value on Z^q.

    By cross effects G(Z^q) is the sum over s <= min(q, n) of C(q, s) copies
    of cr_s = d_s M, d_s the deviation class of the units E_11..E_ss:
    - G has degree <= n, as [t] -> [alpha t] has degree <= n in alpha;
    - for s <= n, [t] -> [iota t] (iota: Z^s -> Z^n, p iota = 1) maps P_s
      injectively onto the right B-module [eps_s]B, eps_s = iota p, so
      G(Z^s) = [eps_s]M;
    - cr_s is the image on G(Z^s) of the deviation of the projections e_T
      onto coordinates T, and [iota e_T t] = [E_T][iota t], E_T = sum_T E_ii,
      so cr_s = d_s [eps_s]M = d_s M.
    An idempotent d_s gives d_s M = M / (1 - d_s)M.  Construction does not
    check multiplicativity, so idempotence is checked here.
    """
    if q < 0:
        raise ValueError("rank must be nonnegative")
    n, gens = module.n, module.generators
    units = Matrix.identity(n * n).rows[:: n + 1]  # E_11, ..., E_nn flattened
    free, torsion = 0, []
    for s in range(min(q, n) + 1):
        idem = module.act(module.algebra.class_of_deviation(units[:s]))
        if not module.zero_action(idem @ idem - idem):
            raise VerificationError(f"the deviation class d_{s} does not act as an idempotent")
        inv = cokernel_invariants(hstack(module.presentation, Matrix.identity(gens) - idem))
        copies = binomial(q, s)
        free += copies * inv.free_rank
        torsion += [t for t in inv.torsion for _ in range(copies)]
    chain = _smith_diagonal([{i: t} for i, t in enumerate(torsion)], len(torsion))
    return CokernelInvariants(tuple(d for d in chain if d > 1), free)


class GammaModuleStruct(PresentedModule):
    """Module over the divided power algebra of n x n matrices, with the
    Schur product; its unit is the divided power of the identity matrix."""

    def __init__(self, n: int, presentation: Matrix, action: dict):
        algebra = GammaModule(n * n, n)
        unit = algebra.divided_power(_flat(Matrix.identity(n)))
        super().__init__(n, algebra, presentation, action, unit)

    def check_multiplicativity(self, pairs: int = 20, seed: int = 0) -> bool:
        """act(schur(u, v)) == act(u) act(v)."""
        return self._multiplicative(schur_product, pairs, seed)


def extract_gamma_structure(spec: FunctorSpec, n: int) -> GammaModuleStruct:
    """Divided-power module structure of a homogeneous catalog functor.

    The basis class of A, with support units U_1..U_r and multiplicities
    a_1..a_r, acts by the coefficient of t^a in the matrix polynomial
    arrow_map(spec, t_1 U_1 + ... + t_r U_r).  For a functor homogeneous of
    degree n = |A|, that coefficient is the deviation of the arrow map at A's
    word of units divided by a! = prod(a_i!), a division that must be exact.
    """
    one = Matrix.identity(object_dim(spec, n))  # F(I), as F is a functor
    for r in (2, 3):
        if arrow_map(spec, Matrix.identity(n).scale(r)) != one.scale(r**n):
            raise ValueError(f"functor {spec.label()} is not homogeneous of degree {n}")
    table = _difference_table(spec, n)
    space = GammaModule(n * n, n)
    action = {}
    for A, dev in zip(space.basis, table[len(table) - len(space.basis) :]):
        a_fact = A.factorial
        if a_fact > 1:
            if any(v % a_fact for row in dev.sparse_rows for v in row.values()):
                raise VerificationError(f"deviation at {A} is not divisible by {a_fact}")
            rows = [{j: v // a_fact for j, v in row.items()} for row in dev.sparse_rows]
            dev = Matrix._sparse(rows, dev.ncols)
        action[A] = dev
    return GammaModuleStruct(n, Matrix.zeros(object_dim(spec, n), 0), action)


def restrict_scalars(struct: GammaModuleStruct) -> MoritaModule:
    """Pull the divided-power module structure back along the divided power
    map: a basis class acts by its image, expanded in the divided basis."""
    n = struct.n
    algebra = AugAlgebra(n * n, n)
    gamma_cols = gamma_matrix(n * n, n).transpose().sparse_rows
    divided = [struct.action[A] for A in struct.algebra.basis]
    action = {}
    for X, col in zip(algebra.basis, gamma_cols):
        pairs = ((v, divided[i]) for i, v in col.items())
        action[X] = linear_combination(pairs, struct.generators, struct.generators)
    return MoritaModule(n, algebra, struct.presentation, action)


@lru_cache(maxsize=None)
def _schur_tables(n: int):
    """Left Schur products on Gamma^n of n x n matrices, for extend_scalars:
    left[di][ai] lists the nonzero (index, coefficient) pairs of D times A.

    Green's product rule (Polynomial Representations of GL_n, LNM 830,
    section 2.3): X! Y! e^[X] e^[Y] = sum_sigma W(sigma)! e^[W(sigma)], sigma
    over the bijections between the positions of X's and Y's words of matrix
    units that pair each u with a composable v, W(sigma) the multiset of the
    products uv.  It is the image under the multiplicative gamma, which sends
    delta_W to W! e^[W] at |W| = n, of the relation-sum rule: relations onto
    n positions of size <= n are bijections, so entry [X][Y] of
    composition_entries(n, n) at |X| = |Y| = n, the only ones read, counts
    the sigma by W(sigma).  Weighting by W! / (X! Y!) must divide exactly.
    """
    basis = multisets_exactly(n * n, n)
    offset = aug_dimension(n * n, n) - len(basis)  # the size-n classes come last

    def divided(entries, denom):
        out = tuple((t - offset, v * basis[t - offset].factorial) for t, v in entries)
        if any(v % denom for _, v in out):
            raise VerificationError(f"Green's rule: {denom} does not divide {out}")
        return tuple((t, v // denom) for t, v in out)

    return tuple(
        tuple(divided(row[offset + y], X.factorial * Y.factorial) for y, Y in enumerate(basis))
        for X, row in zip(basis, composition_entries(n, n)[offset:])
    )


@lru_cache(maxsize=None)
def _monoid_generators(n: int) -> tuple:
    """(class in B(n^2, n), right action on Gamma^n as sparse rows) of
    diag(d, 1, ..., 1) for d in {-1, 0, 2, ..., n}, of I + E_12 and the
    transposition (1 2) from n = 2 on, and of the n-cycle from n = 3 on.
    [g] acts by Gamma^n(x -> xg), on row-major coordinates n blocks g^T."""
    eye = [[int(i == j) for j in range(n)] for i in range(n)]
    mats = [[[d, *eye[0][1:]], *eye[1:]] for d in (-1, 0, *range(2, n + 1))] if n else []
    if n >= 2:
        mats += [[[1, 1, *eye[0][2:]], *eye[1:]], eye[1::-1] + eye[2:]]
    if n >= 3:
        mats.append(eye[1:] + eye[:1])
    algebra = AugAlgebra(n * n, n)
    out = []
    for g in map(Matrix, mats):
        right = gamma_of_hom(block_diag(*[g.transpose()] * n), n).transpose()
        out.append((algebra.class_of(_flat(g)), right.sparse_rows))
    return tuple(out)


def extend_scalars(module: MoritaModule) -> GammaModuleStruct:
    """Balanced product Gamma^n (x)_B M, Gamma^n the divided power algebra
    of matrices as a right module over B = B(n^2, n) through gamma; the
    divided basis acts by left Schur multiplication.

    The relations are p (x) (relations of M) and p[g] (x) m - p (x) [g]m
    over the basis p of Gamma^n, the generators m of M and the g of
    _monoid_generators alone, which span all of the balanced relations:
    - relations for ring generators give all: p b1b2 (x) m - p (x) b1b2 m
      = [(p b1) b2 (x) m - p b1 (x) b2 m] + [p b1 (x) b2 m - p (x) b1(b2 m)],
      sums are linear, and the unit's relation lies in those of M;
    - the [g] generate B: B is spanned by the [s], s = U D V (Smith) with U,
      V in GL_n(Z), which I + E_12, (1 2), the n-cycle and diag(-1, 1, ...)
      generate as a monoid (I - E_12 is a diag(-1, 1, ...) conjugate of
      I + E_12); D is a product of permutation conjugates of diag(d, 1, ...,
      1), whose class is numerical of degree <= n in d, so an integer
      combination of its values at d = 0..n;
    - gamma([g]) = g^[n], and right multiplication by it agrees with
      Gamma^n(x -> xg) on the pure powers x^[n], which span Gamma^n over Q,
      so on all of the torsion-free Gamma^n.
    """
    n, gens = module.n, module.generators
    space = GammaModule(n * n, n)
    gens_total = len(space.basis) * gens
    rows = []  # generator (ai, j) at flat index ai * gens + j
    for cls, right in _monoid_generators(n):
        act_cols = module.act(cls).transpose().sparse_rows
        for ai, moved in enumerate(right):
            for j, col in enumerate(act_cols):
                row = {ci * gens + j: c for ci, c in moved.items()}
                for k, v in col.items():
                    row[ai * gens + k] = row.get(ai * gens + k, 0) - v
                rows.append(row)
    for col in module.presentation.transpose().sparse_rows:
        rows += [{ai * gens + k: v for k, v in col.items()} for ai in range(len(space.basis))]
    presentation = relation_hermite_form(gens_total, rows).transpose()

    action = {}
    for D, left_d in zip(space.basis, _schur_tables(n)):
        # left Schur multiplication by D, Kronecker with the identity on the
        # original generators
        rows_out: list[dict] = [{} for _ in range(gens_total)]
        for ai, pairs in enumerate(left_d):
            for ci, v in pairs:
                for g in range(gens):
                    rows_out[ci * gens + g][ai * gens + g] = v
        action[D] = Matrix._sparse(rows_out, gens_total)
    return GammaModuleStruct(n, presentation, action)
