"""Quantitative smoothness toolkit for implicitly defined solution maps.

Modules:

- ``combinatorics``: exact enumeration kernels (compositions, multi-index
  compositions, set partitions, little Schroeder numbers).
- ``envelopes``: derivative-bound envelopes of the form
  (n!)**s * scale * rate**n and their propagation rules.
- ``implicit_diff``: arbitrary-order derivatives of residual-defined
  solution maps, with finite-difference verification.
- ``pde1d``: P1 finite elements for a semilinear problem on (0, 1).
- ``parametric``: sine-mode domain deformations and the
  parameters-to-solution derivative pipeline with bound verification.
- ``cli``: batch front end (``gevrey-kit`` console script).
"""

__version__ = "0.1.0"

from .combinatorics import (  # noqa: F401
    MultiIndex,
    compositions,
    multi_index_compositions,
    set_partitions,
    schroeder_hipparchus,
)
from .envelopes import (  # noqa: F401
    GevreyEnvelope,
    ParametricEnvelope,
    StabilityConstant,
    compose_envelopes,
    compose_parametric,
    convergence_radius,
    envelope_check,
    implicit_envelope,
    per_order_bound,
)
from .implicit_diff import (  # noqa: F401
    DerivativeTable,
    ResidualOracle,
    derivative_table,
    finite_difference_check,
    finite_difference_table,
    first_derivative,
    higher_derivative,
    solve_residual,
)
