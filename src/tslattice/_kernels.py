"""Gate kernels on dense amplitude vectors, in pure numpy.

Site 0 is the most significant bit of the basis index. A gate never moves
the amplitude vector's axes: a one-site gate acts on the middle axis of the
reshape view ``(2^site, 2, 2^(n-1-site))``, and a gate on the pair
``lo < hi`` on axes 1 and 3 of ``(2^lo, 2, 2^(hi-lo-1), 2, 2^(n-1-hi))``;
an adjacent pair is the middle axis of ``(2^lo, 4, 2^(n-1-hi))``. The layout
follows Häner & Steiger, "0.5 Petabyte Simulation of a 45-Qubit Quantum
Circuit" (SC17, arXiv:1704.01127).

numpy has no strided small-gate kernel. A gate on the middle axis of the
view ``(lead, d, rest)`` takes one of two matrix products: with
``lead > 16`` and ``d * rest <= 32``, the trailing block is folded into the
gate, ``kron(g, I_rest)``, for one product on the 2-D view
``(lead, d * rest)``; otherwise one ``np.matmul`` broadcast over the
leading axis. A non-adjacent pair's two gate axes are gathered to the front
in one strided copy, multiplied, and scattered back.

The gates take their leading extent from the array: a ``(B, 2^n)`` stack of
B states, C-contiguous, is one view with B times as many leading blocks, so
one call applies the gate to every row, and the result has the input's shape.

Every kernel is pure: the input is only read, and the result is a fresh
array.
"""

from functools import lru_cache

import numpy as np

# Broadcast matmul pays about 0.3 us per leading block; folding multiplies
# the work by d * rest. Past these limits the broadcast matmul is the route.
_FOLD_MAX_WIDTH = 32
_FOLD_MIN_LEAD = 16


@lru_cache(maxsize=None)
def _identity(k: int) -> np.ndarray:
    """The read-only k x k complex identity, shared by every caller."""
    eye = np.eye(k, dtype=complex)
    eye.flags.writeable = False
    return eye


def _folded(g, rest):
    """K with ``v.reshape(lead, d * rest) @ K`` equal to g on the middle axis."""
    if rest == 1:
        return g.T
    width = g.shape[0] * rest
    return (g.T[:, None, :, None] * _identity(rest)[None, :, None, :]).reshape(width, width)


def _gathered(v, g, axes):
    """g on ``axes`` of the view v, through one copy into gate-major order."""
    order = axes + tuple(k for k in range(v.ndim) if k not in axes)
    out = np.empty(v.shape, dtype=np.result_type(v, g))
    product = g @ v.transpose(order).reshape(g.shape[0], -1)
    out.transpose(order)[...] = product.reshape([v.shape[k] for k in order])
    return out


def _apply_middle(v, g):
    """g on the middle axis of the view ``(lead, d, rest)``; returns an array of v's size."""
    lead, d, rest = v.shape
    if d * rest <= _FOLD_MAX_WIDTH and lead > _FOLD_MIN_LEAD:
        return v.reshape(lead, d * rest) @ _folded(g, rest)
    return np.matmul(g, v)


def apply_1q(amps, m, site, n):
    """Apply a 2x2 matrix to one tensor factor of a 2^n amplitude vector or stack."""
    return _apply_middle(amps.reshape(-1, 2, 1 << (n - 1 - site)), m).reshape(amps.shape)


def apply_2q(amps, m, site_a, site_b, n):
    """Apply a 4x4 matrix (row index (bit_a << 1) | bit_b) to sites (a, b) of a vector or stack."""
    if site_a < site_b:
        lo, hi = site_a, site_b
    else:
        lo, hi = site_b, site_a
        # Reorder rows and columns to (bit_lo << 1) | bit_hi.
        m = m.reshape(2, 2, 2, 2).transpose(1, 0, 3, 2).reshape(4, 4)
    rest = 1 << (n - 1 - hi)
    if hi == lo + 1:
        return _apply_middle(amps.reshape(-1, 4, rest), m).reshape(amps.shape)
    v = amps.reshape(-1, 2, 1 << (hi - lo - 1), 2, rest)
    return _gathered(v, m, (1, 3)).reshape(amps.shape)


def expect_1q(amps, m, site, n):
    """Raw inner product <psi| m_site |psi>, returned as a complex number."""
    return complex(np.vdot(amps, apply_1q(amps, m, site, n)))
