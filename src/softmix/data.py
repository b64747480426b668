"""Shared containers: labeled samples, datasets and parameter sets."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class LabeledSample:
    """One observation: covariate vector ``x`` and scalar label ``y``."""

    x: np.ndarray
    y: float

    def __post_init__(self):
        x = np.asarray(self.x, dtype=np.float64)
        if x.ndim != 1:
            raise ValueError("covariate must be a 1-d vector")
        if not np.all(np.isfinite(x)) or not np.isfinite(float(self.y)):
            raise ValueError("sample contains non-finite entries")
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", float(self.y))

    @property
    def d(self) -> int:
        return self.x.shape[0]


class DataSet:
    """Dense, index-addressable collection of labeled samples.

    Parameters
    ----------
    X : ndarray, shape (n, d)
        Covariate rows.
    y : ndarray, shape (n,)
        Scalar labels.
    """

    def __init__(self, X, y):
        X = np.asarray(X, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64)
        if X.ndim != 2:
            raise ValueError("X must be 2-d (n, d)")
        if y.ndim != 1 or y.shape[0] != X.shape[0]:
            raise ValueError("y must be 1-d with one label per row of X")
        if not np.all(np.isfinite(X)) or not np.all(np.isfinite(y)):
            raise ValueError("dataset contains non-finite entries")
        self.X = X
        self.y = y

    @property
    def n(self) -> int:
        return self.X.shape[0]

    @property
    def d(self) -> int:
        return self.X.shape[1]

    def __len__(self) -> int:
        return self.n

    def sample(self, i: int) -> LabeledSample:
        return LabeledSample(self.X[i], self.y[i])

    def subset(self, indices) -> "DataSet":
        indices = np.asarray(indices, dtype=np.intp)
        return DataSet(self.X[indices], self.y[indices])

    def max_sq_norm(self) -> float:
        """Largest squared covariate norm, max_i ||x_i||^2."""
        return float(np.max(np.sum(self.X * self.X, axis=1)))


class ParamSet:
    """Ordered list of k parameter vectors in R^d, stored as a (k, d) array."""

    def __init__(self, thetas):
        thetas = np.asarray(thetas, dtype=np.float64)
        if thetas.ndim == 1:
            thetas = thetas[None, :]
        if thetas.ndim != 2 or thetas.shape[0] < 1:
            raise ValueError("thetas must be a (k, d) array with k >= 1")
        if not np.all(np.isfinite(thetas)):
            raise ValueError("parameters contain non-finite entries")
        self.thetas = thetas

    @property
    def k(self) -> int:
        return self.thetas.shape[0]

    @property
    def d(self) -> int:
        return self.thetas.shape[1]

    def theta(self, j: int) -> np.ndarray:
        return self.thetas[j]

    def permuted(self, perm) -> "ParamSet":
        perm = np.asarray(perm, dtype=np.intp)
        return ParamSet(self.thetas[perm])

    def copy(self) -> "ParamSet":
        return ParamSet(self.thetas.copy())

    def __eq__(self, other):
        return isinstance(other, ParamSet) and np.array_equal(self.thetas, other.thetas)

    def __repr__(self):
        return f"ParamSet(k={self.k}, d={self.d})"
