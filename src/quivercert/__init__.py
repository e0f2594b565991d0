"""Exact-arithmetic certificates for the 3-Kronecker quiver moduli space
of dimension vector (2,3).

The package computes Harder-Narasimhan types and their destabilizing
one-parameter subgroups, Teleman-quantization vanishing certificates
for bundles built from the universal bundles, the rational Chow ring
with Riemann-Roch Euler characteristics, stability and syzygies of 2x3
matrices of linear forms, and pairwise certification of exceptional
collections.  Everything runs in exact rational arithmetic.

Import the submodules, e.g. ``from quivercert import chow, strata``.
"""

__version__ = "0.1.0"
