"""Time partitions, the affine map from the reference interval, and time_values."""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

__all__ = ["TimeMesh", "uniform_mesh", "time_values", "is_integer"]


@dataclass(frozen=True)
class TimeMesh:
    """Partition t_0 < t_1 < ... < t_N; interval n is I_n = (t_{n-1}, t_n)."""

    nodes: np.ndarray

    def __post_init__(self):
        nodes = np.asarray(self.nodes, dtype=float)
        if nodes.ndim != 1 or nodes.size < 2:
            raise ValueError("mesh needs at least two nodes")
        bad = nodes[~np.isfinite(nodes)]
        if bad.size:
            raise ValueError(f"mesh nodes must be finite, got {float(bad[0])}")
        if not np.all(np.diff(nodes) > 0):
            raise ValueError("mesh nodes must be strictly increasing")
        nodes.setflags(write=False)
        object.__setattr__(self, "nodes", nodes)

    @property
    def N(self) -> int:
        return self.nodes.size - 1

    @property
    def T(self) -> float:
        return float(self.nodes[-1])

    @property
    def steps(self) -> np.ndarray:
        return np.diff(self.nodes)

    def _check_index(self, n):
        """ValueError unless n is an integer, or an integer array, in 1..N."""
        i = np.asarray(n)
        if i.dtype.kind not in "iu":  # signed or unsigned integers
            raise ValueError(f"interval index must be an integer, got {n!r}")
        if np.any((i < 1) | (i > self.N)):
            raise ValueError(f"interval index {n} outside 1..{self.N}")

    def to_physical(self, n, tau):
        """Map reference coordinates in [-1, 1] onto interval n, or onto each
        interval of an index array n: one row per interval, n.shape + tau.shape."""
        self._check_index(n)
        n, tau = np.asarray(n), np.asarray(tau)
        shape = n.shape + (1,) * tau.ndim
        a, b = self.nodes[n - 1].reshape(shape), self.nodes[n].reshape(shape)
        return 0.5 * ((1.0 - tau) * a + (1.0 + tau) * b)


def is_integer(value) -> bool:
    """Whether value is an integer count: an int or a numpy integer, but not a bool."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def uniform_mesh(T: float, N: int) -> TimeMesh:
    """Uniform partition of (0, T] into N steps of size T / N; N is an integer."""
    if not (np.isfinite(T) and T > 0):
        raise ValueError(f"final time must be positive and finite, got T={float(T)}")
    if not is_integer(N):
        raise ValueError(f"interval count must be an integer, got N={N!r}")
    if N < 1:
        raise ValueError("interval count must be at least 1")
    return TimeMesh(np.arange(N + 1) * (T / N))


def time_values(v, ts) -> np.ndarray:
    """v(ts) for a function of time v, the rule every dgtime function of time
    keeps: one call with the float array ts returns ts.shape (a scalar state)
    or ts.shape + (M,).  Any other shape raises ValueError naming it."""
    ts = np.asarray(ts, dtype=float)
    vals = np.asarray(v(ts), dtype=float)
    if vals.shape != ts.shape and vals.shape[:-1] != ts.shape:
        raise ValueError(f"function of time returned shape {vals.shape} for times {ts.shape}")
    return vals
