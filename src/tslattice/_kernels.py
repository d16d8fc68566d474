"""Gate kernels on dense amplitude vectors, in pure numpy: every gate goes through ``apply_gate``.

Site 0 is the most significant bit of the basis index. A gate never moves
the amplitude vector's axes: a gate on one site or an ascending run of
adjacent sites ``lo..hi`` (a pair, or a fused window) acts on the middle
axis of the view ``(2^lo, 2^(hi-lo+1), 2^(n-1-hi))``, and one on any other
pair ``lo < hi`` on axes 1 and 3 of ``(2^lo, 2, 2^(hi-lo-1), 2, 2^(n-1-hi))``.
The layout follows Häner & Steiger, "0.5 Petabyte Simulation of a 45-Qubit
Quantum Circuit" (SC17, arXiv:1704.01127).

numpy has no strided small-gate kernel. A gate on the middle axis of the
view ``(lead, d, rest)`` takes one of two matrix products: with
``lead > 16`` and ``d * rest <= 32``, the trailing block is folded into the
gate, ``kron(g, I_rest)``, for one product on the 2-D view
``(lead, d * rest)``; otherwise one ``np.matmul`` broadcast over the
leading axis. A non-adjacent pair's two gate axes are gathered to the front
in one strided copy, multiplied, and scattered back.

A gate takes its leading extent from the array: a C-contiguous ``(B, 2^n)``
stack of B states, or ``(2^n, 2^k)`` columns given as ``n + k`` sites, is
one view with more leading blocks, and the result has the input's shape.

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


def apply_gate(amps, u, sites, n):
    """u on ``sites``: one site, a pair (row index ``(bit_a << 1) | bit_b``), or an ascending run of adjacent sites."""
    if len(sites) == 2 and sites[0] > sites[1]:
        # Reorder rows and columns to (bit_lo << 1) | bit_hi.
        sites = sites[::-1]
        u = u.reshape(2, 2, 2, 2).transpose(1, 0, 3, 2).reshape(4, 4)
    lo, hi = sites[0], sites[-1]
    rest = 1 << (n - 1 - hi)
    if hi - lo == len(sites) - 1:
        return _apply_middle(amps.reshape(-1, len(u), rest), u).reshape(amps.shape)
    v = amps.reshape(-1, 2, 1 << (hi - lo - 1), 2, rest)
    return _gathered(v, u, (1, 3)).reshape(amps.shape)
