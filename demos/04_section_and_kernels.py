"""
The comparison map, its section, and exact lattice bookkeeping
==============================================================

gamma sends the class [x] to the divided power x^[n]; epsilon is a rational
one-sided inverse.  The kernel of gamma contains the scaling classes and has
their rank, so it is their saturated span, and stacking gamma with the degree truncation gives an
injection of finite index whose cokernel is computed two independent ways.
"""
from functorlab import (
    cokernel_of_pi_gamma,
    gamma_epsilon_pair,
    gamma_matrix,
    kernel_of_gamma,
    quadratic_split,
    ring_hom_checks,
    verify_section,
)

# the section identity, exact over the rationals
for k, n in [(1, 2), (2, 2), (3, 3), (9, 3)]:
    print(f"gamma.epsilon == 1 at (k={k}, n={n}):", verify_section(gamma_epsilon_pair(k, n)))

print("gamma(1,2) =", gamma_matrix(1, 2).rows)

# kernel description: gamma kills the classes [2z] - 2^n [z] over z in N^k
# with |z| <= n - 1, and they span a sublattice of the kernel's rank, of
# finite index
rep = kernel_of_gamma(2, 2)
print("scaling classes in the kernel, of its rank:", rep.match)
print("kernel basis rows:", rep.kernel.basis.rows)
for k, n in [(2, 2), (2, 3), (2, 4), (3, 4)]:
    print(f"index of the scaling span in the kernel at (k={k}, n={n}):", kernel_of_gamma(k, n).index)

# truncation stacked over gamma: injective, finite index, and its cokernel
# invariants agree with Gamma^n modulo the sublattice of products
cok = cokernel_of_pi_gamma(1, 2)
print(
    "stack (1,2): injective", cok.injective,
    "torsion", cok.invariants.torsion,
    "index", cok.index,
)
cok = cokernel_of_pi_gamma(3, 3)
print("stack (3,3): torsion", cok.invariants.torsion, "index", cok.index)

# gamma and epsilon respect the two composition products; the top deviation
# classes multiply with a factorial
print("ring checks (2x2, degree 3):", ring_hom_checks(2, 3, pairs=20, seed=0).passed)

# degree 2 is special: gamma is onto, so an integral section exists even
# though the canonical rational one has denominators
q = quadratic_split(4)
print(
    "degree-2 splitting at k=4: onto", q.surjective,
    "| canonical section integral:", q.epsilon_integral,
    "| integral section found:", q.integral_section is not None,
)
