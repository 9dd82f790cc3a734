"""Published reference values for the frame geometry of F4.

These are the exact integer tables the engine certifies against: the
frame connection coefficients, the nonzero frame curvature components,
and the Ricci matrix.  The computational path never uses them; they are
comparison targets only.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "CONNECTION_TABLE",
    "CURVATURE_TABLE",
    "RICCI_FRAME",
    "SCALAR_CURVATURE",
    "full_curvature_tensor",
]

# gamma[i, j, k] = g(nabla_{e_{i+1}} e_{j+1}, e_{k+1}); all rows with i = 3 vanish
CONNECTION_TABLE = np.zeros((4, 4, 4))
for _i, _j, _k, _v in [
    (1, 1, 4, 1.0),
    (1, 2, 3, 1.0),
    (1, 3, 2, -1.0),
    (1, 4, 1, -1.0),
    (2, 1, 3, 1.0),
    (2, 2, 4, -1.0),
    (2, 3, 1, -1.0),
    (2, 4, 2, 1.0),
    (3, 1, 2, -1.0),
    (3, 2, 1, 1.0),
    (3, 3, 4, 2.0),
    (3, 4, 3, -2.0),
]:
    CONNECTION_TABLE[_i - 1, _j - 1, _k - 1] = _v
CONNECTION_TABLE.setflags(write=False)

# the twelve independent nonzero values of g(R(e_i,e_j)e_k,e_l), 1-based keys
CURVATURE_TABLE: dict[tuple[int, int, int, int], float] = {
    (1, 2, 1, 2): -2.0,
    (1, 3, 1, 3): 1.0,
    (1, 4, 1, 4): 1.0,
    (2, 3, 2, 3): 1.0,
    (2, 4, 2, 4): 1.0,
    (3, 4, 3, 4): 4.0,
    (3, 4, 1, 2): -2.0,
    (1, 3, 2, 4): -1.0,
    (2, 3, 1, 4): 1.0,
    (2, 4, 1, 3): -1.0,
    (1, 4, 2, 3): 1.0,
    (1, 2, 3, 4): -2.0,
}

RICCI_FRAME = np.diag([0.0, 0.0, -6.0, -6.0])
RICCI_FRAME.setflags(write=False)

SCALAR_CURVATURE = -12.0


def full_curvature_tensor() -> np.ndarray:
    """Expand the table to the full (4,4,4,4) array via the index symmetries.

    Components not generated from a listed entry by antisymmetry in the
    first or last pair or by pair exchange are zero, so the result is the
    complete expected tensor (0-based indices).
    """
    R = np.zeros((4, 4, 4, 4))
    for (i, j, k, l), v in CURVATURE_TABLE.items():
        for (a, b, c, d), sign in (((i, j, k, l), 1), ((j, i, k, l), -1), ((i, j, l, k), -1), ((j, i, l, k), 1)):
            R[a - 1, b - 1, c - 1, d - 1] = R[c - 1, d - 1, a - 1, b - 1] = sign * v
    return R
