"""ergosum: desk-scale experiments on two-sided occupation statistics.

Subpackages: rankone (cutting-and-stacking towers), renewal (lifetime
distributions and renewal scalings), birkhoff (checkpointed occupation
series and normalized-ratio statistics), lattice (planar group orbit
counting), regvar (regular-variation diagnostics), cli (experiment runner).
"""

__version__ = "0.1.0"

__all__ = ["__version__"]
