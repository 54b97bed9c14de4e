"""A fixed reference computation that measures how fast the machine is right now.

On a shared host the same operation can take twice as long from one minute to
the next. The benchmark therefore times this kernel right before and right
after every operation, and reports the operation's wall time divided by the
kernel's mean time as well as the raw time. The kernel does not import
gaussworld, so a change to the program never changes it.

It has two halves, because the program has both kinds of work and a host
under load slows them by different amounts:

- a Python loop over Gaussians that gathers a small voxel block, evaluates a
  Gaussian on it and scatter-adds the result, like the splat kernel;
- whole-array arithmetic on 80k points, 12 times over, like ``voxel_centers``
  and the dense per-voxel loss terms.
"""

from __future__ import annotations

import time

import numpy as np

# The kernel's time on the host baseline.json was measured on, when that host
# is not slowed down. Calibrated set-up time is scaled back to seconds with it.
REFERENCE_S = 0.065
_DIM = 32
_N = 100
_POINTS = 80_000  # 1.9 MB per array: past the per-core cache, small next to the program's peak RSS


def _inputs():
    rng = np.random.default_rng(12345)
    idx = np.arange(_DIM)
    I, J, K = np.meshgrid(idx, idx, idx, indexing="ij")
    ijk = np.stack([I.ravel(), J.ravel(), K.ravel()], axis=1)
    flat = ijk[:, 0] + _DIM * (ijk[:, 1] + _DIM * ijk[:, 2])
    centers = np.empty((_DIM**3, 3))
    centers[flat] = (ijk + 0.5) / _DIM * 4.0
    means = rng.uniform(0.5, 3.5, (_N, 3))
    inv_s2 = 1.0 / rng.uniform(0.15, 0.45, (_N, 3)) ** 2
    probs = rng.dirichlet(np.ones(3), _N)
    points = rng.normal(size=(_POINTS, 3))
    return centers, means, inv_s2, probs, points


_CENTERS, _MEANS, _INV_S2, _PROBS, _POINTS_XYZ = _inputs()
_ROT = np.linalg.qr(np.arange(9.0).reshape(3, 3) + np.eye(3))[0]


def kernel():
    """One pass of the reference computation; returns a checksum so no work is skipped."""
    vs = 4.0 / _DIM
    F = np.zeros((_DIM**3, 3))
    for g in range(_N):
        r = 3.0 / np.sqrt(_INV_S2[g].min())
        lo = np.maximum(np.ceil((_MEANS[g] - r) / vs - 0.5).astype(int), 0)
        hi = np.minimum(np.floor((_MEANS[g] + r) / vs - 0.5).astype(int), _DIM - 1)
        I, J, K = np.meshgrid(*(np.arange(a, b + 1) for a, b in zip(lo, hi)), indexing="ij")
        flat = (I + _DIM * (J + _DIM * K)).ravel()
        d = _CENTERS[flat] - _MEANS[g]
        q = (d * d) @ _INV_S2[g]
        inside = q <= 9.0
        F[flat[inside]] += np.exp(-0.5 * q[inside])[:, None] * _PROBS[g]
    total = float(F.sum())
    for shift in np.linspace(0.1, 1.2, 12):
        u = (_POINTS_XYZ - shift) @ _ROT
        total += float(np.exp(-0.5 * (u * u).sum(axis=1)).sum())
    return total


def timed():
    """Wall time of one kernel pass, in seconds."""
    t0 = time.perf_counter()
    kernel()
    return time.perf_counter() - t0
