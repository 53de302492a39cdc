"""
The functor/module dictionary
=============================

A degree-certified functor is traded for a module over the truncated
augmentation algebra of n x n matrices; the functor's values come back
through a balanced tensor product.  Restriction and extension of scalars
move between that algebra and the divided power side.
"""
from functorlab import (
    DirectSum,
    Const,
    Div,
    Ext,
    Matrix,
    Sym,
    Tensor,
    arrow_map,
    degree_certificate,
    extend_scalars,
    extract_gamma_structure,
    extract_morita_module,
    object_dim,
    quasi_homogeneity_test,
    reconstruct,
    restrict_scalars,
)

# the catalog and its induced matrices
sigma = Matrix([[1, 2], [3, 4]])
for spec in (Tensor(2), Sym(2), Ext(2), Div(2)):
    print(spec.label(), "on [[1,2],[3,4]] ->", arrow_map(spec, sigma).rows)

# degree certificates: pass at the right degree, fail one below with a witness
print("sym^2 at degree 2:", degree_certificate(Sym(2), 2).passed)
print("sym^2 at degree 1:", degree_certificate(Sym(2), 1).witness)

# extraction: the class of a matrix acts exactly as the functor does
mod = extract_morita_module(Ext(2), 2)
print("ext^2 module: [sigma] acts by", mod.act(mod.algebra.class_of((1, 2, 3, 4))).rows)

# reconstruction recovers the functor's values rank by rank
for spec in (Tensor(2), Sym(2), Ext(2), Div(2)):
    module = extract_morita_module(spec, 2)
    dims = [reconstruct(module, q).free_rank for q in (1, 2, 3)]
    wanted = [object_dim(spec, q) for q in (1, 2, 3)]
    print(f"{spec.label():9} reconstructed ranks {dims} expected {wanted}")

# homogeneous functors also carry a divided-power structure; restricting it
# along gamma gives back the numerical module on the nose
struct = extract_gamma_structure(Sym(2), 2)
direct = extract_morita_module(Sym(2), 2)
restricted = restrict_scalars(struct)
print("restriction == direct extraction:", restricted.action == direct.action)

# extension of scalars goes the other way
extended = extend_scalars(direct)
print("extension invariants:", extended.group_invariants())

# quasi-homogeneity separates the honestly homogeneous from mixed sums
mixed = extract_morita_module(DirectSum(Const(1), Sym(2)), 2)
print("kernel classes annihilate sym^2 module:", quasi_homogeneity_test(direct, 2))
print("kernel classes annihilate mixed module:", quasi_homogeneity_test(mixed, 2))
