"""Interpolatory quadrature on uniformly sampled time series.

Sampled integrands are integrated interval by interval through the
degree-5 interpolant on a six-node stencil around the interval, so smooth
series are integrated to O(dt^6) and composite operations built from these
rules stay high order.  Products with exactly known piecewise-linear or
piecewise-quadratic factors integrate the known factor exactly against the
interpolant, which keeps the accuracy when the known factor has kinks at
the nodes.  The package pairs only through quadratic_times_sampled_array;
interval_integrals, prefix_integrals, time_average_nodes, time_average_linear
and pl_times_sampled_array stay as the tests' references for the sampled time
average, and perfbench/spans.py wraps them by name.
"""

from __future__ import annotations

import numpy as np

_SIZE = 6


def _moment_tables():
    """weights[p][shift][k] = int_0^1 u^p L_k(u) du on stencil offsets.

    shift is the index of the interval's left node inside the stencil
    (2 in the interior, smaller near the left array edge, larger near the
    right edge).
    """
    tables = np.zeros((3, _SIZE, _SIZE))
    for shift in range(_SIZE):
        rel = np.arange(_SIZE, dtype=np.float64) - shift
        for k in range(_SIZE):
            # Lagrange basis polynomial on the stencil nodes
            num = np.poly1d([1.0])
            den = 1.0
            for mm in range(_SIZE):
                if mm == k:
                    continue
                num *= np.poly1d([1.0, -rel[mm]])
                den *= rel[k] - rel[mm]
            basis = num / den
            for p in range(3):
                poly = basis * np.poly1d([1.0] + [0.0] * p)
                anti = np.polyint(poly)
                tables[p, shift, k] = anti(1.0) - anti(0.0)
    return tables

_TABLES = _moment_tables()


def _stencil_starts(n_intervals, n_nodes):
    starts = np.clip(np.arange(n_intervals) - 2, 0, n_nodes - _SIZE)
    return starts, np.arange(n_intervals) - starts


def interval_integrals(samples, dt):
    """Per-interval integrals of a sampled series along axis 0."""
    samples = np.asarray(samples)
    n_nodes = samples.shape[0]
    n_int = n_nodes - 1
    starts, shifts = _stencil_starts(n_int, n_nodes)
    out = np.zeros((n_int,) + samples.shape[1:], dtype=samples.dtype)
    for shift in np.unique(shifts):
        rows = np.nonzero(shifts == shift)[0]
        st = starts[rows]
        acc = np.zeros((len(rows),) + samples.shape[1:], dtype=samples.dtype)
        for k in range(_SIZE):
            acc += _TABLES[0, shift, k] * samples[st + k]
        out[rows] = acc
    return dt * out


def prefix_integrals(samples, dt):
    """Pre[m] = integral from 0 to t_m, m = 0..N."""
    inc = interval_integrals(samples, dt)
    out = np.zeros((inc.shape[0] + 1,) + inc.shape[1:], dtype=inc.dtype)
    np.cumsum(inc, axis=0, out=out[1:])
    return out


def time_average_nodes(samples, dt):
    """J phi at the nodes: (J phi)(t_j) = (Pre[N - j] - Pre[j]) / 2."""
    pre = prefix_integrals(samples, dt)
    return 0.5 * (pre[::-1] - pre)


def time_average_linear(samples, dt):
    """J phi at the nodes for an exactly piecewise-linear phi (trapezoid prefix)."""
    samples = np.asarray(samples)
    inc = 0.5 * dt * (samples[1:] + samples[:-1])
    pre = np.zeros_like(samples)
    np.cumsum(inc, axis=0, out=pre[1:])
    return 0.5 * (pre[::-1] - pre)


def pl_times_sampled_array(psi, n_half, dt):
    """Test array e with sum_j conj(f[j]) e[j] ~= int_0^{T} conj(f) psi dt.

    f is read as piecewise linear (its nodal values multiply e directly),
    psi is a sampled smooth series; the integral runs over the first
    n_half intervals.
    """
    psi = np.asarray(psi)
    n_nodes = psi.shape[0]
    starts, shifts = _stencil_starts(n_half, n_nodes)
    left = np.zeros((n_half,) + psi.shape[1:], dtype=psi.dtype)
    right = np.zeros_like(left)
    for shift in np.unique(shifts):
        rows = np.nonzero(shifts == shift)[0]
        st = starts[rows]
        acc0 = np.zeros((len(rows),) + psi.shape[1:], dtype=psi.dtype)
        acc1 = np.zeros_like(acc0)
        for k in range(_SIZE):
            vals = psi[st + k]
            acc0 += _TABLES[0, shift, k] * vals
            acc1 += _TABLES[1, shift, k] * vals
        left[rows] = acc0 - acc1
        right[rows] = acc1
    out = np.zeros((n_nodes,) + psi.shape[1:], dtype=psi.dtype)
    out[:n_half] += left
    out[1:n_half + 1] += right
    return dt * out


def quadratic_times_sampled_array(c0, c1, c2, n_nodes, dt):
    """Test array e with sum_j conj(R[j]) e[j] ~= int_0^{T} conj(R) q dt.

    q is the exactly known piecewise quadratic with local coefficients
    q(t_i + u dt) = c0[i] + c1[i] u + c2[i] u^2 on each of the first
    len(c0) intervals; R is a sampled smooth series.
    """
    c0 = np.asarray(c0)
    n_half = c0.shape[0]
    starts, shifts = _stencil_starts(n_half, n_nodes)
    out = np.zeros((n_nodes,) + c0.shape[1:], dtype=np.result_type(c0, c1, c2))
    for shift in np.unique(shifts):
        rows = np.nonzero(shifts == shift)[0]
        st = starts[rows]
        for k in range(_SIZE):
            contrib = (
                _TABLES[0, shift, k] * c0[rows]
                + _TABLES[1, shift, k] * c1[rows]
                + _TABLES[2, shift, k] * c2[rows]
            )
            # st + k is strictly increasing within a shift group: no index repeats
            out[st + k] += contrib
    return dt * out
