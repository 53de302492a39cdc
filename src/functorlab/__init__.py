"""Exact integer computation for numerical functors and divided powers.

The package materializes, over the integers, the calculus of deviations,
degree-truncated augmentation algebras, divided power modules with their
Schur product, the divided power map together with its rational section,
and the dictionary between degree-n functors on free modules and modules
over the truncated algebra of n x n matrices.  All arithmetic is exact.

This namespace holds the paper's objects as the demos use them: the
deviations and the scaling law, B(k, n) and Gamma^n, the map gamma with its
section epsilon, the kernel and cokernel lattices, and the functor/module
dictionary.  Every other name is imported from its module.
"""

from .combinatorics import binomial
from .intlinalg import Matrix
from .modules import FreeModule, SetMap
from .deviations import cross_check_conditions, deviation, is_numerical_degree
from .augmentation import AugAlgebra, aug_dimension, pushforward
from .divided_powers import (
    GammaModule,
    gamma_dimension,
    gamma_of_hom,
    schur_product,
    tensor_embedding,
    tensor_readoff,
)
from .gamma_section import (
    cokernel_of_pi_gamma,
    gamma_epsilon_pair,
    gamma_matrix,
    kernel_of_gamma,
    quadratic_split,
    quasi_homogeneity_test,
    ring_hom_checks,
    verify_section,
)
from .functors import (
    Const,
    DirectSum,
    Div,
    Ext,
    Sym,
    Tensor,
    arrow_map,
    degree_certificate,
    extend_scalars,
    extract_gamma_structure,
    extract_morita_module,
    object_dim,
    reconstruct,
    restrict_scalars,
)

__version__ = "0.1.0"

__all__ = [
    "AugAlgebra",
    "Const",
    "DirectSum",
    "Div",
    "Ext",
    "FreeModule",
    "GammaModule",
    "Matrix",
    "SetMap",
    "Sym",
    "Tensor",
    "arrow_map",
    "aug_dimension",
    "binomial",
    "cokernel_of_pi_gamma",
    "cross_check_conditions",
    "degree_certificate",
    "deviation",
    "extend_scalars",
    "extract_gamma_structure",
    "extract_morita_module",
    "gamma_dimension",
    "gamma_epsilon_pair",
    "gamma_matrix",
    "gamma_of_hom",
    "is_numerical_degree",
    "kernel_of_gamma",
    "object_dim",
    "pushforward",
    "quadratic_split",
    "quasi_homogeneity_test",
    "reconstruct",
    "restrict_scalars",
    "ring_hom_checks",
    "schur_product",
    "tensor_embedding",
    "tensor_readoff",
    "verify_section",
]
