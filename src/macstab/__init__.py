"""Exact equivariant cohomology of moment-angle complexes and polyhedral
products, with symmetric-group representation decompositions, a brute-force
cellular cross-check, and stability scanning over families."""

__version__ = "0.1.0"
