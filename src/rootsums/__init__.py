"""Verification lab for exponential sums over prime fields and modular square roots.

Submodules:
    modular      arithmetic in F_q and its cached residue tables
    expsums      Gauss / Salie / incomplete square-root sums
    weights      weight vectors and the additive energy of squares
    lattice      2D lattices, successive minima, congruence counts
    bilinear     bilinear Weyl sums and their envelope sweeps
    quadforms    binary quadratic forms, class numbers, L(1, chi)
    splitprimes  splitting tests and the effective split-prime construction
    equidist     exact discrepancy and root-of-prime sequences
    calibration  frozen constants for the calibrated-ratio checks
    acceptance   the runnable acceptance suite
"""

from .modular import e_q, eps_q, inv_mod, kronecker, sqrt_mod
from .weights import WeightVector

__all__ = [
    "WeightVector",
    "e_q",
    "eps_q",
    "inv_mod",
    "kronecker",
    "sqrt_mod",
]

__version__ = "0.1.0"
