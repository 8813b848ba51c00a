"""Exact Cauchy-Szego kernel construction on the quaternionic Siegel half
space, with hypercomplex algebra, Heisenberg geometry and the quadrature
machinery used to verify the kernel identities numerically."""

from .hypercomplex import (
    Hypercomplex,
    associator,
    left_mult_matrix,
    mult_table,
)
from .polyfrac import HyperFrac, RadialFraction, RatPoly, radius_sq
from .geometry import (
    BallPoint,
    GroupElement,
    SiegelPoint,
    boundary_param,
    boundary_unparam,
    cayley,
    cayley_inv,
    dilate,
    dilate_element,
    group_inverse,
    group_mul,
    homogeneous_dim,
    identity_element,
    rho_length,
    rotate,
    translate,
)
from .kernel import (
    KernelOrder,
    PiScaledKernel,
    cauchy_kernel,
    complex_szego_closed_form,
    density_closed_form,
    group_kernel,
    newton_derivative,
    newton_potential,
    szego_density,
    szego_eval,
    szego_nu,
)

__version__ = "0.1.0"

__all__ = [
    "Hypercomplex",
    "associator",
    "left_mult_matrix",
    "mult_table",
    "HyperFrac",
    "RadialFraction",
    "RatPoly",
    "radius_sq",
    "BallPoint",
    "GroupElement",
    "SiegelPoint",
    "boundary_param",
    "boundary_unparam",
    "cayley",
    "cayley_inv",
    "dilate",
    "dilate_element",
    "group_inverse",
    "group_mul",
    "homogeneous_dim",
    "identity_element",
    "rho_length",
    "rotate",
    "translate",
    "KernelOrder",
    "PiScaledKernel",
    "cauchy_kernel",
    "complex_szego_closed_form",
    "density_closed_form",
    "group_kernel",
    "newton_derivative",
    "newton_potential",
    "szego_density",
    "szego_eval",
    "szego_nu",
    "__version__",
]
