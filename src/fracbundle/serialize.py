"""Array-to-list conversions for JSON payloads with exact double round-trips.

json writes floats with Python's shortest round-trip repr, so dumping and
re-loading a payload reproduces every double bit-exactly.  Complex matrices
are stored as row-major interleaved [re, im, re, im, ...] lists.
"""

from __future__ import annotations

import numpy as np


def complex_to_list(arr):
    """Row-major interleaved real/imag flattening of a complex array."""
    flat = np.asarray(arr, dtype=np.complex128).reshape(-1)
    out = np.empty(2 * flat.size, dtype=np.float64)
    out[0::2] = flat.real
    out[1::2] = flat.imag
    return out.tolist()


def complex_from_list(data, shape):
    arr = np.asarray(data, dtype=np.float64)
    flat = arr[0::2] + 1j * arr[1::2]
    return flat.reshape(shape)


def real_to_list(arr):
    return np.asarray(arr, dtype=np.float64).reshape(-1).tolist()

