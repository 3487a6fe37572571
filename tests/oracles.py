"""Independent reference implementations that tests compare the package against."""

import numpy as np

from prnukit.matching import _pair


def cross_correlate_direct(a, b) -> np.ndarray:
    """Spatial-domain reference implementation, O(n^2) per shift.

    Kept as an independent check of the frequency-domain path; only suitable
    for small planes (<= 64 px or so).
    """
    pa, pb = _pair(a, b)
    da = pa - pa.mean()
    db = pb - pb.mean()
    h, w = da.shape
    out = np.empty((h, w))
    for sy in range(h):
        for sx in range(w):
            out[sy, sx] = np.sum(da * np.roll(db, (-sy, -sx), axis=(0, 1)))
    return out
