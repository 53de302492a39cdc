"""
Truncated augmentation algebras
===============================

B(k, n) is spanned by classes [x] of integer vectors, cut down by the
degree-n relations.  The deviation classes of basis vectors form an
integral basis indexed by multisets of size <= n, and any [x] expands with
binomial coefficients.
"""
from functorlab import AugAlgebra, Matrix, aug_dimension, pushforward

alg = AugAlgebra(2, 2)
print("dimension of B(2,2):", alg.dimension(), "==", aug_dimension(2, 2))

# normal form of a class: coefficients are multiset binomials
u = alg.class_of((3, -1))
print("[ (3,-1) ] =", u.to_json())

# the sum product realizes [x][y] = [x+y]
v = alg.class_of((1, 2))
print("[x][y] == [x+y]:", alg.sum_mul(u, v) == alg.class_of((4, 1)))

# scaling relation: [r z] is a binomial combination of repeated deviations
z = (2, 1)
r = 5
lhs = alg.class_of((10, 5))
rhs = alg.zero()
from functorlab import binomial

for m in range(3):
    rhs = rhs + alg.class_of_deviation([z] * m).scale(binomial(r, m))
print("scaling relation at r=5:", lhs == rhs)

# on a matrix module the composition product [s][t] = [st] also exists
end2 = AugAlgebra(4, 2)
s = (1, 1, 0, 1)
t = (0, 1, 1, 0)
st = (1, 1, 1, 0)  # rows of the 2x2 product
print("[s][t] == [st]:", end2.product_mul(end2.class_of(s), end2.class_of(t)) == end2.class_of(st))

# a linear map of modules (an integer matrix, columns the images of the
# basis vectors) pushes classes forward; the matrix acts on the deviation
# basis and is functorial
chi = Matrix([[1, 2], [0, 1], [1, 1]])
target = AugAlgebra(3, 2)
p = pushforward(chi, alg, target)
x = (2, -1)
image = chi.matvec(x)
print(
    "pushforward tracks classes:",
    p.matvec(alg.class_of(x).vector) == target.class_of(image).vector,
)
