"""The divided-power comparison map, its rational section, and exact checks.

gamma sends the class of x in the degree-n augmentation algebra to the n-th
divided power x^[n]; epsilon sends a divided basis class e^[A] back to the
basis class of A divided by prod(a_i!).  Both maps, the truncation [I | 0]
and the integral section at degree 2 are written down in closed form, gamma
with its inclusion-exclusion factored over coordinates.  All statements
verified here are exact integer or rational identities: the section identity
gamma @ epsilon == 1, the kernel as the lattice that contains the scaling
classes [2z] - 2^n [z], one per z in N^rank with |z| <= n - 1, and has their
rank (so it is their saturated span), the finite cokernel of the
truncation-plus-gamma stack,
multiplicativity with respect to the composition products, and the projector
decomposition of epsilon's image.
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import takewhile
from math import comb, factorial, prod
from typing import Optional

from .augmentation import AugAlgebra, aug_dimension
from .combinatorics import (
    Multiset, multiset_codes, multiset_products, multisets_exactly, multisets_up_to,
)
from .divided_powers import GammaModule, schur_product
from .intlinalg import (
    CokernelInvariants,
    Lattice,
    Matrix,
    cokernel_invariants,
    kernel_lattice,
    lattice_intersection,
    relation_hermite_form,
    vstack,
)
from .modules import MultisetVector


class VerificationError(ArithmeticError):
    """An exact identity that the construction relies on failed to hold."""


@dataclass(frozen=True)
class GammaEpsilonPair:
    rank: int
    degree: int
    gamma: Matrix
    epsilon: Matrix


@lru_cache(maxsize=None)
def gamma_matrix(rank: int, degree: int) -> Matrix:
    """Integer matrix of gamma on the deviation basis: the basis class of X
    goes to the deviation of x -> x^[n] at X's word of unit vectors.  Built
    once per (rank, degree); Matrix is immutable, so callers share it.

    Read at e^[A], the deviation factors over coordinates: a sub-word with
    s_i of the x_i copies of e_i adds (-1)^(|X| - |s|) prod_i s_i^(a_i), and
    C(x_i, s_i) sub-words pick that many, so the entry is the product over i
    of T[a_i][x_i], where T[a][x] = sum_s (-1)^(x - s) C(x, s) s^a = x! S(a, x)
    counts the surjections of an a-set onto an x-set.  The recurrence T[a][x]
    = x (T[a-1][x] + T[a-1][x-1]) builds it: the last point goes to one of x
    values, which the others do or do not also hit.  T[a][x] is 0 when
    exactly one of a, x is 0, so a row reads only the columns of its support.
    """
    table = [[1] + [0] * degree]
    for _ in range(degree):
        last = table[-1]
        table.append([0] + [x * (last[x] + last[x - 1]) for x in range(1, degree + 1)])
    by_support: dict = {}  # support -> the (column, pairs) of each basis multiset
    for j, X in enumerate(multisets_up_to(rank, degree)):
        by_support.setdefault(X.support, []).append((j, X.pairs))
    rows = [
        {
            j: prod(table[a][x] for (_, a), (_, x) in zip(A.pairs, pairs))
            for j, pairs in by_support.get(A.support, ())
        }
        for A in multisets_exactly(rank, degree)
    ]
    return Matrix._sparse(rows, aug_dimension(rank, degree))


def epsilon_matrix(rank: int, degree: int) -> Matrix:
    """Rational matrix of the section, in closed form: e^[A] -> delta_A / a!,
    where delta_A, the deviation class of A's expanded word, is the basis
    class of A and a! = prod(a_i!).  Fails loudly if gamma @ epsilon != 1."""
    basis = multisets_exactly(rank, degree)
    # the size-degree multisets come last in the basis of B(rank, degree)
    offset = aug_dimension(rank, degree) - len(basis)
    diagonal = [{j: Fraction(1, A.factorial)} for j, A in enumerate(basis)]
    eps = Matrix._sparse([{}] * offset + diagonal, len(basis))
    gam = gamma_matrix(rank, degree)
    if not _is_section(gam, eps):
        raise VerificationError(
            f"section identity failed at rank={rank} degree={degree}: "
            f"gamma={gam.rows} epsilon={eps.rows}"
        )
    return eps


def _is_section(gam: Matrix, eps: Matrix) -> bool:
    """gamma @ epsilon == 1, exactly."""
    return eps.shape == (gam.ncols, gam.nrows) and gam @ eps == Matrix.identity(gam.nrows)


def gamma_epsilon_pair(rank: int, degree: int) -> GammaEpsilonPair:
    return GammaEpsilonPair(rank, degree, gamma_matrix(rank, degree), epsilon_matrix(rank, degree))


def verify_section(pair: GammaEpsilonPair) -> bool:
    return _is_section(pair.gamma, pair.epsilon)


def apply_gamma(pair: GammaEpsilonPair, u: MultisetVector) -> MultisetVector:
    space = GammaModule(pair.rank, pair.degree)
    return space.from_vector(pair.gamma.matvec(u.vector))


def apply_epsilon(pair: GammaEpsilonPair, g: MultisetVector) -> MultisetVector:
    alg = AugAlgebra(pair.rank, pair.degree)
    return alg.from_vector(pair.epsilon.matvec(g.vector))


@lru_cache(maxsize=None)
def gamma_kernel(rank: int, degree: int) -> Lattice:
    """Ker gamma in Hermite form, built once per (rank, degree) and shared."""
    return kernel_lattice(gamma_matrix(rank, degree))


@dataclass(frozen=True)
class KernelReport:
    rank: int
    degree: int
    generated: Lattice  # the span L of the scaling classes, not saturated
    match: bool
    witness: Optional[tuple] = None  # ("escape", z) or ("rank", rank L, rank Ker gamma)

    @property
    def kernel(self) -> Lattice:
        return gamma_kernel(self.rank, self.degree)

    @property
    def index(self) -> Optional[int]:  # [Ker gamma : L], when they match
        return _pivot_product(self.generated) // _pivot_product(self.kernel) if self.match else None


def _scaling_rows(rank: int, degree: int) -> dict:
    """z -> the class [2z] - 2^degree [z] as a sparse row {column: value},
    one per z in the simplex |z| <= degree - 1 (the multiplicity vectors of
    the basis of B(rank, degree - 1)).

    The class of x has prod_i C(x_i, m_i) at the basis class of X, where m_i
    are X's multiplicities; for x >= 0 that is 0 unless supp X lies in supp x.
    So the row of z reads the multisets over supp z alone, both products
    from the product walk over supp z, its multisets mapped to columns once.
    """
    base, scale, ms = degree + 1, 2**degree, range(degree + 1)
    index = multiset_codes(rank, degree)[2]
    columns: dict = {}
    rows = {}
    for Z in multisets_up_to(rank, degree - 1):
        S, z = Z.support, dict(Z.pairs)
        if S not in columns:
            local = multisets_up_to(len(S), degree)
            columns[S] = [index[sum(m * base ** S[i] for i, m in X.pairs)] for X in local]
        doubled = multiset_products([[comb(2 * x, m) for m in ms] for x in z.values()], degree)
        single = multiset_products([[comb(x, m) for m in ms] for x in z.values()], degree)
        rows[tuple(z.get(i, 0) for i in range(rank))] = {
            j: v for j, d, s in zip(columns[S], doubled, single) if (v := d - scale * s)
        }
    return rows


def _pivot_product(lattice: Lattice) -> int:
    return prod(row[min(row)] for row in lattice.basis.sparse_rows)


def kernel_of_gamma(rank: int, degree: int) -> KernelReport:
    """Ker(gamma), compared against the span L of the scaling classes
    [2z] - 2^n [z], n = degree, over the simplex of z in N^rank with
    |z| <= n - 1: gamma must kill every class, and rank L must equal
    rank Ker(gamma).  Only the report's `kernel` and `index` build Ker(gamma).

    Why that decides it.  Ker(gamma) is the kernel of an integer map, so it
    is saturated: it holds every integer vector of its rational span.  If L
    lies in it with the same rank, the two have the same rational span, so
    Ker(gamma) is the saturation of L, and the index [Ker(gamma) : L] is
    finite.  Their Hermite forms then share pivot columns, and the index is
    the quotient of their pivot products.

    Why rank Ker(gamma) is read off the shape.  The size-n columns of gamma
    are diag(a!), which is what gamma @ epsilon == 1 says (certified by the
    section-identity cell at the same cell), so gamma has full row rank and
    rank Ker(gamma) is its number of columns less its number of rows.

    Why the ranks agree.  A rational linear form on B(rank, n) is a
    polynomial map f of degree <= n (Passi, LNM 715); write f_j for its
    degree-j homogeneous part.  The form kills [2z] - 2^n [z] exactly when
    h(z) = sum_{j<n} (2^j - 2^n) f_j(z) vanishes.  The simplex is unisolvent
    for polynomials of degree <= n - 1 (Chung-Yao 1977), and h has degree
    <= n - 1, so h = 0 there means h = 0 everywhere; since 2^j != 2^n, every
    f_j with j < n is 0.  So f is homogeneous of degree n, and those are the
    forms that factor through gamma (Roby 1963): L and Ker(gamma) have the
    same annihilator, hence the same rank.  The simplex has
    dim B(rank, n - 1) = rank Ker(gamma) points, so the rows are a Q-basis of
    the kernel.  Both conditions are checked here, the containment by the
    product L gamma^T, whose row at z is gamma applied to the class of z, and
    the rank by L's own Hermite form, not assumed; L is in general a proper
    sublattice of the kernel.
    """
    gam = gamma_matrix(rank, degree)
    dim = gam.ncols
    rows = _scaling_rows(rank, degree)
    generated = Lattice(dim, relation_hermite_form(dim, rows.values()))
    images = Matrix._sparse(list(rows.values()), dim) @ gam.transpose()
    escaped = next((z for z, image in zip(rows, images.sparse_rows) if image), None)
    if escaped is not None:
        return KernelReport(rank, degree, generated, False, ("escape", escaped))
    if generated.rank != dim - gam.nrows:
        return KernelReport(rank, degree, generated, False, ("rank", generated.rank, dim - gam.nrows))
    return KernelReport(rank, degree, generated, True)


def truncation_matrix(rank: int, degree: int) -> Matrix:
    """Matrix of the degree-lowering quotient map on deviation bases: [I | 0],
    as the basis of B(rank, degree - 1) begins that of B(rank, degree)."""
    if degree < 1:
        raise ValueError("need degree >= 1 to truncate")
    units = [{i: 1} for i in range(aug_dimension(rank, degree - 1))]
    return Matrix._sparse(units, aug_dimension(rank, degree))


def stacked_pi_gamma(rank: int, degree: int) -> Matrix:
    """The truncation map stacked over gamma; square by the dimension count."""
    return vstack(truncation_matrix(rank, degree), gamma_matrix(rank, degree))


def products_sublattice(rank: int, degree: int) -> Lattice:
    """Lattice in Gamma^degree spanned by the products x_1 ... x_n of 0/1
    vectors, in closed form: the direct sum of a! Z e^[A], a! = prod(a_i!).

    The product is multilinear and e^[A] e^[B] = prod C(a_i + b_i, a_i)
    e^[A+B] (Roby 1963), so e_{i_1} ... e_{i_n} = a! e^[A], A = {i_1..i_n}.
    Expanding the 0/1 factors into unit vectors makes every such product an
    integer sum of these monomials, and each monomial is a product of unit
    vectors; so the two lattices agree, and the quotient is the sum of Z/a!.
    """
    basis = GammaModule(rank, degree).basis
    return Lattice.from_rows(len(basis), [{j: A.factorial} for j, A in enumerate(basis)])


def products_quotient_invariants(rank: int, degree: int) -> CokernelInvariants:
    """Invariant factors of Gamma^degree modulo the products sublattice, the
    sum of Z/a! over the basis multisets A, in closed form.

    The Smith form of a diagonal goes prime by prime: the k-th largest
    invariant factor holds, at each prime p, the k-th largest exponent of p
    among the entries.  The exponent of p in a! = prod(a_i!) is the sum of
    those in the a_i!, and only primes p <= degree divide an entry."""
    basis = multisets_exactly(rank, degree)
    top: list[int] = []  # the invariant factors above 1, largest first
    for p in range(2, degree + 1):
        if any(p % d == 0 for d in range(2, p)):
            continue
        # the exponent of p in m! is the sum of m // p^j over j >= 1 (Legendre)
        in_factorial = [sum(m // p**j for j in range(1, m + 1)) for m in range(degree + 1)]
        exponents = sorted((sum(in_factorial[m] for _, m in A.pairs) for A in basis), reverse=True)
        for k, v in enumerate(takewhile(bool, exponents)):
            if k == len(top):
                top.append(1)
            top[k] *= p**v
    return CokernelInvariants(tuple(reversed(top)), 0)


@dataclass(frozen=True)
class CokernelReport:
    injective: bool
    invariants: CokernelInvariants
    quotient_invariants: CokernelInvariants
    index: Optional[int]
    match: bool


def cokernel_of_pi_gamma(rank: int, degree: int) -> CokernelReport:
    """Check the stacked map is injective with finite cokernel isomorphic to
    Gamma^degree modulo the products sublattice: the stacked map's Smith form
    against the closed-form quotient, the sum of Z/a! (products_sublattice).

    Everything is read off the one Smith form.  The map is square, so it is
    injective exactly when its cokernel has free rank 0, and then the index
    of its image is the product of the invariant factors, |det|.
    """
    stacked = stacked_pi_gamma(rank, degree)
    if stacked.nrows != stacked.ncols:
        raise VerificationError(f"the stacked map is {stacked.nrows} x {stacked.ncols}, not square")
    invariants = cokernel_invariants(stacked)
    quotient = products_quotient_invariants(rank, degree)
    injective = invariants.free_rank == 0
    return CokernelReport(
        injective,
        invariants,
        quotient,
        prod(invariants.torsion) if injective else None,
        injective and invariants == quotient,
    )


@dataclass(frozen=True)
class RingHomReport:
    pairs_checked: int
    gamma_multiplicative: bool
    epsilon_multiplicative: bool
    top_deviation_identity: bool
    witness: Optional[tuple] = None

    @property
    def passed(self) -> bool:
        return (
            self.gamma_multiplicative
            and self.epsilon_multiplicative
            and self.top_deviation_identity
        )


def ring_hom_checks(side: int, degree: int, pairs: int = 20, seed: int = 0) -> RingHomReport:
    """Composition-product multiplicativity of gamma and epsilon on random
    matrix pairs with entries in -2..2, plus the factorial identity for top
    deviation classes:

      gamma([a][b])        == gamma([a]) . gamma([b])   (Schur product)
      epsilon((ab)^[n])    == epsilon(a^[n]) [b-product] epsilon(b^[n])
      [del_n a][del_n b]   == n! [del_n ab]
    """
    rank = side * side
    alg = AugAlgebra(rank, degree)
    space = GammaModule(rank, degree)
    pair = gamma_epsilon_pair(rank, degree)
    rng = random.Random(seed)

    gamma_ok = epsilon_ok = deviation_ok = True
    witness = None
    for _ in range(pairs):
        a = [[rng.randint(-2, 2) for _ in range(side)] for _ in range(side)]
        b = [[rng.randint(-2, 2) for _ in range(side)] for _ in range(side)]
        ab = [
            [sum(a[i][t] * b[t][j] for t in range(side)) for j in range(side)]
            for i in range(side)
        ]
        fa = tuple(v for row in a for v in row)
        fb = tuple(v for row in b for v in row)
        fab = tuple(v for row in ab for v in row)

        pa, pb = space.divided_power(fa), space.divided_power(fb)
        ua, ub = alg.class_of(fa), alg.class_of(fb)
        if apply_gamma(pair, alg.product_mul(ua, ub)) != schur_product(pa, pb):
            gamma_ok, witness = False, ("gamma", a, b)

        ea, eb = apply_epsilon(pair, pa), apply_epsilon(pair, pb)
        eab = apply_epsilon(pair, space.divided_power(fab))
        if alg.product_mul(ea, eb) != eab:
            epsilon_ok, witness = False, ("epsilon", a, b)

        da = alg.class_of_deviation([fa] * degree)
        db = alg.class_of_deviation([fb] * degree)
        dab = alg.class_of_deviation([fab] * degree)
        if alg.product_mul(da, db) != dab.scale(factorial(degree)):
            deviation_ok, witness = False, ("top-deviation", a, b)

    return RingHomReport(pairs, gamma_ok, epsilon_ok, deviation_ok, witness)


@dataclass(frozen=True)
class DecompositionReport:
    projector_idempotent: bool
    image_rank: int
    gamma_side_rank: int
    kernel_part_rank_projector: int
    kernel_part_rank_lattice: int

    @property
    def consistent(self) -> bool:
        return (
            self.projector_idempotent
            and self.kernel_part_rank_projector == self.kernel_part_rank_lattice
            and self.image_rank == self.gamma_side_rank + self.kernel_part_rank_lattice
        )


def image_epsilon_decomposition(rank: int, degree: int) -> DecompositionReport:
    """Exact bookkeeping for the splitting of epsilon's image.

    p = epsilon @ gamma is checked to be idempotent over Q; the part of the
    image killed by gamma is measured twice, once as the rank of (1-p) on
    epsilon's columns and once as the rank of the lattice intersection of
    Ker(gamma) with the integral column lattice of epsilon.
    """
    pair = gamma_epsilon_pair(rank, degree)
    p = pair.epsilon @ pair.gamma
    idempotent = (p @ p) == p
    d = pair.epsilon.denominator_lcm()
    eps_int = pair.epsilon.scale(d)
    image_lattice = Lattice.from_rows(eps_int.nrows, eps_int.transpose().sparse_rows)
    one_minus_p = Matrix.identity(p.nrows) - p
    ker_proj_rank = (one_minus_p @ eps_int).rank()
    ker_lat_rank = lattice_intersection(gamma_kernel(rank, degree), image_lattice).rank
    return DecompositionReport(
        idempotent,
        image_lattice.rank,
        GammaModule(rank, degree).dimension(),
        ker_proj_rank,
        ker_lat_rank,
    )


@dataclass(frozen=True)
class QuadraticReport:
    surjective: bool
    epsilon_integral: bool
    integral_section: Optional[Matrix]

    @property
    def split_integrally(self) -> bool:
        return self.surjective and self.integral_section is not None


def quadratic_split(rank: int) -> QuadraticReport:
    """Degree-2 phenomena: gamma is onto the integral divided square lattice,
    and e^[A] -> the basis class of the set supp A splits it integrally: by
    gamma_matrix, gamma of the class of a set S is the sum of e^[B] over
    |B| = 2 with supp B = S, and at degree 2 only B = A has that support.
    The identity gamma @ s == 1, checked exactly, is the proof that gamma is
    onto.  Whether the canonical rational section is itself integral is
    reported, not assumed."""
    gam = gamma_matrix(rank, 2)
    eps = epsilon_matrix(rank, 2)
    support = {Multiset.from_indices(A.support): j for j, A in enumerate(multisets_exactly(rank, 2))}
    rows = [{support[X]: 1} if X in support else {} for X in multisets_up_to(rank, 2)]
    section = Matrix._sparse(rows, gam.nrows)
    if gam @ section != Matrix.identity(gam.nrows):
        raise VerificationError("constructed section does not invert gamma")
    return QuadraticReport(True, eps.is_integral, section)


def quasi_homogeneity_test(module, degree: int) -> bool:
    """Whether every kernel class of gamma acts as zero on the module.

    `module` needs: an `algebra` attribute (the degree-truncated augmentation
    algebra of the matrix module it is defined over), `act(elem) -> Matrix`,
    and `zero_action(matrix) -> bool`.
    """
    alg = module.algebra
    if alg.degree != degree:
        raise ValueError("module algebra degree differs from the requested degree")
    for row in gamma_kernel(alg.rank, degree).basis.rows:
        elem = alg.from_vector(row)
        if not module.zero_action(module.act(elem)):
            return False
    return True
