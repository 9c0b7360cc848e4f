"""JSON serialization with exact double round-trips.

Floats are written with Python's shortest round-trip repr, so dumping and
re-loading reproduces every double bit-exactly.  Complex matrices are
stored as row-major interleaved [re, im, re, im, ...] lists.
"""

from __future__ import annotations

import json

import numpy as np


def dumps(payload):
    return json.dumps(payload, indent=1, sort_keys=True)


def loads(text):
    return json.loads(text)


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

