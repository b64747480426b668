"""Shared containers: datasets and parameter sets."""
from __future__ import annotations

import numpy as np


class DataSet:
    """Dense collection of labeled samples, held as arrays.

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

    def __eq__(self, other):
        return isinstance(other, ParamSet) and np.array_equal(self.thetas, other.thetas)

    def __repr__(self):
        return f"ParamSet(k={self.k}, d={self.d})"
