"""Catalog of classical module functors and the degree-n module dictionary.

A functor spec is a value describing tensor, symmetric, exterior, or divided
powers, constants, or finite direct sums.  Degree-certified functors are
traded for modules over the degree-truncated augmentation algebra of the
n x n matrix module: the basis class of a multiset X acts by the deviation
of the arrow map at X's word of matrix units.  Reconstruction goes back
through a balanced tensor product, read off the one composition table of
augmentation.composition_tables, and restriction/extension of scalars
moves between that algebra and the divided power algebra of matrices.  A
homogeneous functor's divided-power structure is in closed form: the basis
class of A acts by the same deviation at A's word, divided by a! =
prod(a_i!).

Both kinds of module are a PresentedModule, a cokernel with one action
matrix per basis multiset; MoritaModule and GammaModuleStruct differ only in
the algebra, its product and its unit.
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import combinations, repeat
from operator import add, mul

from .augmentation import AugAlgebra, AugElement, aug_dimension, composition_tables
from .combinatorics import Multiset, binomial, multisets_exactly
from .deviations import DeviationReport, alternating_sum, cross_check_conditions
from .divided_powers import GammaModule, schur_product
from .gamma_section import VerificationError, gamma_matrix
from .intlinalg import (
    CokernelInvariants,
    Lattice,
    Matrix,
    block_diag,
    cokernel_invariants,
    hermite_normal_form,
    solve_rational,
)
from .modules import Hom


class FunctorSpec:
    """Marker base for functor descriptions."""

    __slots__ = ()


def _check_power(n: int):
    if not isinstance(n, int) or isinstance(n, bool) or n < 0:
        raise ValueError(f"power must be a nonnegative integer, got {n!r}")


@dataclass(frozen=True)
class Tensor(FunctorSpec):
    power: int

    def __post_init__(self):
        _check_power(self.power)


@dataclass(frozen=True)
class Sym(FunctorSpec):
    power: int

    def __post_init__(self):
        _check_power(self.power)


@dataclass(frozen=True)
class Ext(FunctorSpec):
    power: int

    def __post_init__(self):
        _check_power(self.power)


@dataclass(frozen=True)
class Div(FunctorSpec):
    power: int

    def __post_init__(self):
        _check_power(self.power)


@dataclass(frozen=True)
class Const(FunctorSpec):
    rank: int

    def __post_init__(self):
        _check_power(self.rank)


@dataclass(frozen=True)
class DirectSum(FunctorSpec):
    parts: tuple

    def __init__(self, *parts):
        if len(parts) == 1 and isinstance(parts[0], (tuple, list)):
            parts = tuple(parts[0])
        if not parts:
            raise ValueError("direct sum needs at least one part")
        for p in parts:
            if not isinstance(p, FunctorSpec):
                raise ValueError(f"not a functor spec: {p!r}")
        object.__setattr__(self, "parts", tuple(parts))


def spec_to_json(spec: FunctorSpec):
    if isinstance(spec, Tensor):
        return {"tensor": spec.power}
    if isinstance(spec, Sym):
        return {"sym": spec.power}
    if isinstance(spec, Ext):
        return {"ext": spec.power}
    if isinstance(spec, Div):
        return {"div": spec.power}
    if isinstance(spec, Const):
        return {"const": spec.rank}
    if isinstance(spec, DirectSum):
        return {"sum": [spec_to_json(p) for p in spec.parts]}
    raise TypeError(f"not a functor spec: {spec!r}")


def spec_from_json(data) -> FunctorSpec:
    if not isinstance(data, dict) or len(data) != 1:
        raise ValueError(f"functor spec must be a one-key object, got {data!r}")
    key, value = next(iter(data.items()))
    makers = {"tensor": Tensor, "sym": Sym, "ext": Ext, "div": Div, "const": Const}
    if key in makers:
        return makers[key](value)
    if key == "sum":
        return DirectSum(tuple(spec_from_json(p) for p in value))
    raise ValueError(f"unknown functor kind {key!r}")


def spec_label(spec: FunctorSpec) -> str:
    if isinstance(spec, Tensor):
        return f"tensor^{spec.power}"
    if isinstance(spec, Sym):
        return f"sym^{spec.power}"
    if isinstance(spec, Ext):
        return f"ext^{spec.power}"
    if isinstance(spec, Div):
        return f"div^{spec.power}"
    if isinstance(spec, Const):
        return f"const({spec.rank})"
    if isinstance(spec, DirectSum):
        return "(" + " + ".join(spec_label(p) for p in spec.parts) + ")"
    raise TypeError(f"not a functor spec: {spec!r}")


def natural_degree(spec: FunctorSpec) -> int:
    """Degree the functor is homogeneous (or, for sums, bounded) of."""
    if isinstance(spec, (Tensor, Sym, Ext, Div)):
        return spec.power
    if isinstance(spec, Const):
        return 0
    if isinstance(spec, DirectSum):
        return max(natural_degree(p) for p in spec.parts)
    raise TypeError(f"not a functor spec: {spec!r}")


def object_dim(spec: FunctorSpec, q: int) -> int:
    if q < 0:
        raise ValueError("rank must be nonnegative")
    if isinstance(spec, Tensor):
        return q**spec.power
    if isinstance(spec, Sym):
        return binomial(q + spec.power - 1, spec.power)
    if isinstance(spec, Ext):
        return binomial(q, spec.power)
    if isinstance(spec, Div):
        return binomial(q + spec.power - 1, spec.power)
    if isinstance(spec, Const):
        return spec.rank
    if isinstance(spec, DirectSum):
        return sum(object_dim(p, q) for p in spec.parts)
    raise TypeError(f"not a functor spec: {spec!r}")


def arrow_map(spec: FunctorSpec, alpha) -> Matrix:
    """Matrix of the induced map on the chosen bases.

    Basis orders: pure tensors lexicographic; symmetric and divided powers by
    sorted multiset word; exterior powers by strictly increasing index tuples
    (minors carry the signs).
    """
    mat = alpha.matrix if isinstance(alpha, Hom) else alpha
    if not mat.is_integral:
        raise ValueError("arrow maps take integer matrices")
    p, q = mat.ncols, mat.nrows

    if isinstance(spec, Tensor):
        # iterated Kronecker product, built over the nonzero entries of mat
        nonzero = [(j, i, v) for j, row in enumerate(mat.rows) for i, v in enumerate(row) if v]
        terms = [(0, 0, 1)]
        for _ in range(spec.power):
            terms = [(a * q + j, b * p + i, c * v) for a, b, c in terms for j, i, v in nonzero]
        rows = [[0] * p**spec.power for _ in range(q**spec.power)]
        for a, b, c in terms:
            rows[a][b] = c
        return Matrix(rows, p**spec.power)

    if isinstance(spec, Sym):
        nn = spec.power
        src = multisets_exactly(p, nn)
        tgt = multisets_exactly(q, nn)
        tgt_index = {A: i for i, A in enumerate(tgt)}
        support = [[(j, v) for j, v in enumerate(c) if v] for c in mat.cols()]
        cols = []
        for A in src:
            # expand the product of the image linear forms monomial by monomial
            acc = {(): 1}
            for t in A.indices():
                nxt: dict = {}
                for word, c in acc.items():
                    for j, v in support[t]:
                        key = tuple(sorted(word + (j,)))
                        nxt[key] = nxt.get(key, 0) + c * v
                acc = nxt
            col = [0] * len(tgt)
            for word, c in acc.items():
                col[tgt_index[Multiset.from_indices(word)]] = c
            cols.append(col)
        return Matrix.from_cols(cols, len(tgt))

    if isinstance(spec, Ext):
        nn = spec.power
        src = tuple(combinations(range(p), nn))
        tgt = tuple(combinations(range(q), nn))
        rows = []
        for jj in tgt:
            rows.append([mat.submatrix(jj, ii).det() for ii in src])
        return Matrix(rows, len(src))

    if isinstance(spec, Div):
        from .divided_powers import gamma_of_hom

        return gamma_of_hom(mat, spec.power)

    if isinstance(spec, Const):
        return Matrix.identity(spec.rank)

    if isinstance(spec, DirectSum):
        return block_diag(*(arrow_map(part, mat) for part in spec.parts))

    raise TypeError(f"not a functor spec: {spec!r}")


def scaling_cross_check(spec: FunctorSpec, n: int, alpha: Matrix, window=None) -> DeviationReport:
    """Both scaling laws for the table r -> arrow_map(spec, r * alpha)."""
    if window is None:
        window = range(-(n + 2), n + 3)
    table = {r: arrow_map(spec, alpha.scale(r)) for r in set(window) | set(range(n + 1))}
    return cross_check_conditions(table, n, list(window))


def degree_certificate(spec: FunctorSpec, n: int, seed: int = 0, samples: int = 3) -> DeviationReport:
    """Certify (by exact sampling) that the functor is numerical of degree <= n.

    Two ingredients: the scaling laws at the identity of the rank-n module on
    the window [-(n+2), n+2], and the vanishing of every (n+1)-st deviation
    of the arrow map on seeded random matrix tuples of assorted shapes.
    """
    if n < 0:
        raise ValueError("degree must be nonnegative")
    used = 0

    # scaling at identity(n) alone can be vacuous (the functor may vanish on
    # small ranks), so check it one rank up as well
    for side in (n, n + 1):
        report = scaling_cross_check(spec, n, Matrix.identity(side))
        used += report.samples_used
        if not report.passed:
            return DeviationReport(n, used, False, report.witness)

    rng = random.Random(seed)
    shapes = [(m, m) for m in range(1, n + 2)] + [(2, 1), (1, 2)]
    for qq, pp in shapes:
        for _ in range(samples):
            mats = [
                Matrix([[rng.randint(-2, 2) for _ in range(pp)] for _ in range(qq)], pp)
                for _ in range(n + 1)
            ]
            dev = alternating_sum(
                lambda a: arrow_map(spec, a), mats, Matrix.zeros(qq, pp)
            )
            used += 1
            if not dev.is_zero:
                return DeviationReport(
                    n, used, False, ("deviation", tuple(m.rows for m in mats))
                )
    return DeviationReport(n, used, True)


def _unit_matrix(flat: int, nrows: int, ncols: int) -> Matrix:
    i, j = divmod(flat, ncols)
    return Matrix(
        tuple(
            tuple(int(r == i and c == j) for c in range(ncols)) for r in range(nrows)
        ),
        ncols,
    )


def _flat(mat: Matrix) -> tuple:
    return tuple(v for row in mat.rows for v in row)


def _linear_combo(pairs, nrows: int, ncols: int) -> Matrix:
    total = [(0,) * ncols] * nrows
    for c, m in pairs:
        if c:
            total = [tuple(map(add, t, map(mul, repeat(c), r))) for t, r in zip(total, m.rows)]
    return Matrix(total, ncols)


class PresentedModule:
    """Module coker(presentation) over a multiset-indexed algebra: each basis
    multiset of the algebra acts by a square matrix on the generators.
    Construction checks that the actions descend to the cokernel and that
    `unit`, the unit of the algebra's product, acts as the identity."""

    def __init__(self, n: int, algebra, presentation: Matrix, action: dict, unit):
        self.n = n
        self.algebra = algebra
        self.presentation = presentation
        self.generators = presentation.nrows
        self.action = dict(action)
        if set(self.action) != set(algebra.basis):
            raise ValueError("action must cover exactly the algebra basis")
        for X, m in self.action.items():
            if m.shape != (self.generators, self.generators):
                raise ValueError(f"action matrix for {X} has shape {m.shape}")
        self._relations = Lattice.from_rows(
            self.generators, presentation.transpose().rows
        )
        rel_cols = presentation.cols()
        for X, m in self.action.items():
            for v in rel_cols:
                if not self._relations.contains(m.matvec(v)):
                    raise VerificationError(
                        f"action of {X} does not preserve the relations"
                    )
        if not self.identity_action(self.act(unit)):
            raise VerificationError(
                "the unit of the algebra does not act as the identity"
            )

    def act(self, elem) -> Matrix:
        if elem.space != self.algebra:
            raise ValueError("element lives in the wrong algebra")
        return _linear_combo(
            ((c, self.action[X]) for X, c in elem.coeffs.items()),
            self.generators,
            self.generators,
        )

    def zero_action(self, mat: Matrix) -> bool:
        """Whether the matrix sends every generator into the relation lattice."""
        if mat.is_zero:
            return True
        if not mat.is_integral:
            return False
        return all(self._relations.contains(col) for col in mat.cols())

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
        return self._multiplicative(AugElement.product_mul, pairs, seed)


def _unit_word_deviation(spec: FunctorSpec, n: int, X: Multiset) -> Matrix:
    """Deviation of the arrow map at X's word of n x n matrix units."""
    units = [_unit_matrix(u, n, n) for u in X.indices()]
    return alternating_sum(lambda a: arrow_map(spec, a), units, Matrix.zeros(n, n))


def extract_morita_module(spec: FunctorSpec, n: int, seed: int = 0) -> MoritaModule:
    """Degree-certify the functor, then read off its module structure: the
    basis class of X acts by the deviation of the arrow map at X's word of
    matrix units."""
    cert = degree_certificate(spec, n, seed=seed)
    if not cert.passed:
        raise ValueError(
            f"functor {spec_label(spec)} fails the degree-{n} certificate: {cert.witness}"
        )
    algebra = AugAlgebra(n * n, n)
    action = {X: _unit_word_deviation(spec, n, X) for X in algebra.basis}
    return MoritaModule(n, algebra, Matrix.zeros(object_dim(spec, n), 0), action)


def _tensor_relation_rows(
    left_dim: int,
    gens: int,
    products,
    action: dict,
    basis,
    presentation: Matrix,
):
    """Rows spanning the balanced-product relations inside Z^(left_dim*gens).

    Generator (xi, j) sits at flat index xi*gens + j.  products[xi][y] holds
    the nonzero (index, coefficient) pairs of the xi-th left basis element
    times the y-th algebra basis class.  For each algebra basis class b and
    each generator: (p.b) (x) m_j - p (x) (b.m_j).
    """
    rows = []
    for y, Y in enumerate(basis):
        act = action[Y]
        for xi in range(left_dim):
            moved = products[xi][y]
            for j in range(gens):
                row = [0] * (left_dim * gens)
                for pi, c in moved:
                    row[pi * gens + j] += c
                for g in range(gens):
                    v = act[g, j]
                    if v:
                        row[xi * gens + g] -= v
                if any(row):
                    rows.append(row)
    for c in range(presentation.ncols):
        col = presentation.col(c)
        for xi in range(left_dim):
            row = [0] * (left_dim * gens)
            for g in range(gens):
                row[xi * gens + g] = col[g]
            if any(row):
                rows.append(row)
    return rows


def reconstruct(module: MoritaModule, q: int) -> CokernelInvariants:
    """Invariants of the balanced product of the module with the degree-n
    augmentation algebra of q x n matrices; for the module of a degree-n
    functor this recovers the functor's value on the rank-q module."""
    if q < 0:
        raise ValueError("rank must be nonnegative")
    n = module.n
    R = module.algebra
    dimP = aug_dimension(n * q, n)
    table = composition_tables(q, n, n, n)
    rows = _tensor_relation_rows(
        dimP, module.generators, table, module.action, R.basis, module.presentation
    )
    total = dimP * module.generators
    reduced = hermite_normal_form(Matrix(rows, total))
    return cokernel_invariants(reduced.transpose())


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
    for r in (2, 3):
        if arrow_map(spec, Matrix.identity(n).scale(r)) != arrow_map(
            spec, Matrix.identity(n)
        ).scale(r**n):
            raise ValueError(
                f"functor {spec_label(spec)} is not homogeneous of degree {n}"
            )
    space = GammaModule(n * n, n)
    action = {}
    for A in space.basis:
        dev = _unit_word_deviation(spec, n, A)
        a_fact = A.factorial
        if any(v % a_fact for row in dev.rows for v in row):
            raise VerificationError(f"deviation at {A} is not divisible by {a_fact}")
        action[A] = Matrix([[v // a_fact for v in row] for row in dev.rows], dev.ncols)
    return GammaModuleStruct(n, Matrix.zeros(object_dim(spec, n), 0), action)


def restrict_scalars(struct: GammaModuleStruct) -> MoritaModule:
    """Pull the divided-power module structure back along the divided power
    map: a basis class acts by its image, expanded in the divided basis."""
    n = struct.n
    algebra = AugAlgebra(n * n, n)
    gmat = gamma_matrix(n * n, n)
    space = struct.algebra
    action = {}
    for xi, X in enumerate(algebra.basis):
        col = gmat.col(xi)
        action[X] = _linear_combo(
            zip(col, (struct.action[A] for A in space.basis)),
            struct.generators,
            struct.generators,
        )
    return MoritaModule(n, algebra, struct.presentation, action)


def extend_scalars(module: MoritaModule) -> GammaModuleStruct:
    """Balanced product with the divided power algebra of matrices, seen as a
    right module over the augmentation algebra through the divided power map;
    the divided basis acts through left Schur multiplication."""
    n = module.n
    gens = module.generators
    space = GammaModule(n * n, n)
    dimG = space.dimension()
    gens_total = dimG * gens
    images = [space.from_vector(col) for col in gamma_matrix(n * n, n).cols()]
    products = [
        [schur_product(space.basis_element(A), img).nonzero() for img in images]
        for A in space.basis
    ]
    rows = _tensor_relation_rows(
        dimG, gens, products, module.action, module.algebra.basis, module.presentation
    )
    presentation = hermite_normal_form(Matrix(rows, gens_total)).transpose()

    action = {}
    for D in space.basis:
        # left Schur multiplication by D, Kronecker with the identity on the
        # original generators
        rows_out = [[0] * gens_total for _ in range(gens_total)]
        for ai, A in enumerate(space.basis):
            left = schur_product(space.basis_element(D), space.basis_element(A))
            for ci, v in left.nonzero():
                for g in range(gens):
                    rows_out[ci * gens + g][ai * gens + g] = v
        action[D] = Matrix(rows_out, gens_total)
    return GammaModuleStruct(n, presentation, action)


def action_trace_on_quotient(presentation: Matrix, act: Matrix):
    """Trace of the map induced on coker(presentation), as an exact rational:
    full trace minus the trace of the restriction to the relation span."""
    rel = hermite_normal_form(presentation.transpose())
    if rel.nrows == 0:
        return act.trace()
    rt = rel.transpose()
    coords = solve_rational(rt, act @ rt)
    return act.trace() - coords.trace()
