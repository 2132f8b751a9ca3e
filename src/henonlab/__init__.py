"""henonlab: a numerical laboratory for Henon-like renormalization.

Modules
-------
errors    the HenonLabError hierarchy that bad input and failed solves raise
rootfind  safeguarded scalar and 2x2 Newton solves, bisection
maps1d    quadratic-family core: ladder, special parameters, 1-D pieces,
          composed-quadratic swallow geometry
henon     Henon-like maps with perturbation hooks, attractor enumeration
crossmap  affine-like representation (A, B) of a piece via the chain solver
strips    stable-leaf lattice, tame boxes, cone verification, 2-D products
renorm    tangency data, single and two-word renormalization, windows,
          twins, cone-expansion certification
atlas     deterministic parameter-plane rasters and PPM/CSV emission
embed     the raster kernels that renormalize: renorm-strip and the
          embed-compare agreement test
cli       command-line frontend

The chain code in ``crossmap`` and ``renorm`` takes maps built with xi = 0
only.  The scalar references that the tests compare these modules against
live in ``tests/oracles.py``, not in the package.

Records are ``typing.NamedTuple`` classes, or ``__slots__`` classes on
``henon.Frozen`` where a NamedTuple cannot do, never dataclasses:
``@dataclass`` runs generated code at import, about 0.7 ms a class, and
every CLI command and pool child pays it.
"""

from __future__ import annotations

__version__ = "0.1.0"
