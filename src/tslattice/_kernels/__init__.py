"""Gate kernels on dense amplitude vectors: the numpy view kernels of ``_pykernels``."""

from ._pykernels import apply_1q, apply_2q, expect_1q

__all__ = ["apply_1q", "apply_2q", "expect_1q"]
