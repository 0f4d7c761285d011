"""Cycle and component statistics of random mappings.

Analytic machinery (delay differential equations, Laplace transforms, moment
constants, limiting densities) validated against Monte Carlo simulation and
exact small-n enumeration.

Importing the package loads none of its modules; import the one you need,
as in ``from randmap import dde``.
"""

__version__ = "0.1.0"

kernel_backend = "numpy"  # the kernels of randmap._kernels, named in benchmark provenance
