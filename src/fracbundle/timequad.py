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

from .errors import QuadratureError

_SIZE = 6


def _moment_tables():
    """weights[p][shift][k] = int_0^1 u^p L_k(u) du on stencil offsets.

    shift is the index of the interval's left node inside the stencil
    (2 in the interior, smaller near the left array edge, larger near the
    right edge).
    """
    tables = np.zeros((3, _SIZE, _SIZE))
    for shift in range(_SIZE):
        for k in range(_SIZE):
            # Lagrange basis in plain floats, rounded as a numpy poly1d build rounds
            num, den = [1.0], 1.0
            for m in range(_SIZE):
                if m != k:
                    num = [a - (m - shift) * b for a, b in zip(num + [0.0], [0.0] + num)]
                    den *= k - m
            for p in range(3):
                anti = 0.0  # antiderivative of u^p L_k at u = 1, in Horner order
                for i, c in enumerate(num):
                    anti += c / den / (_SIZE + p - i)
                tables[p, shift, k] = anti
    return tables

_TABLES = _moment_tables()


def _stencil_groups(n_intervals, n_nodes):
    """(shift, rows, starts) per group of the first n_intervals intervals that
    share a stencil shift, in ascending shift order: the group's interval
    rows and their stencils' first nodes, each consecutive."""
    if n_nodes < _SIZE:
        raise QuadratureError(f"{n_nodes} time nodes are fewer than the {_SIZE}-node quadrature stencil")
    starts = np.clip(np.arange(n_intervals) - 2, 0, n_nodes - _SIZE)
    shifts = np.arange(n_intervals) - starts
    for shift in np.flatnonzero(np.bincount(shifts)):
        rows = np.flatnonzero(shifts == shift)
        yield shift, rows, starts[rows]


def interval_integrals(samples, dt):
    """Per-interval integrals of a sampled series along axis 0."""
    samples = np.asarray(samples)
    n_nodes = samples.shape[0]
    n_int = n_nodes - 1
    out = np.zeros((n_int,) + samples.shape[1:], dtype=samples.dtype)
    for shift, rows, st in _stencil_groups(n_int, n_nodes):
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
    out = np.zeros((n_nodes,) + psi.shape[1:], dtype=psi.dtype)
    for shift, rows, st in _stencil_groups(n_half, n_nodes):
        acc0 = np.zeros((len(rows),) + psi.shape[1:], dtype=psi.dtype)
        acc1 = np.zeros_like(acc0)
        for k in range(_SIZE):
            vals = psi[st + k]
            acc0 += _TABLES[0, shift, k] * vals
            acc1 += _TABLES[1, shift, k] * vals
        # a node takes at most one share from each side, so the add order moves no bit
        out[rows] += acc0 - acc1
        out[rows + 1] += acc1
    return dt * out


def quadratic_times_sampled_array(c0, c1, c2, n_nodes, dt):
    """Test array e with sum_j conj(R[j]) e[j] ~= int_0^{T} conj(R) q dt.

    q is the exactly known piecewise quadratic with local coefficients
    q(t_i + u dt) = c0[i] + c1[i] u + c2[i] u^2 on each of the first
    len(c0) intervals; R is a sampled smooth series.
    """
    c0 = np.asarray(c0)
    n_half = c0.shape[0]
    out = np.zeros((n_nodes,) + c0.shape[1:], dtype=np.result_type(c0, c1, c2))
    for shift, rows, st in _stencil_groups(n_half, n_nodes):
        a0, a1, a2 = c0[rows], c1[rows], c2[rows]
        for k in range(_SIZE):
            # the group's stencil starts are consecutive: offset k adds to one slice
            out[st[0] + k:st[0] + k + len(rows)] += (
                _TABLES[0, shift, k] * a0 + _TABLES[1, shift, k] * a1 + _TABLES[2, shift, k] * a2
            )
    return dt * out
