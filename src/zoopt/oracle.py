"""Black-box stochastic objective with query accounting.

Optimizers see a problem only through :meth:`StochasticObjective.evaluate`,
which charges exactly one query, and :meth:`StochasticObjective.evaluate_batch`,
which charges one query per row.  Metric-side evaluations (``peek``,
``peek_batch``, ``full_loss``) bypass the counter so that reported query
complexity counts optimization work only.
"""

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .errors import NumericError
from .numkit import as_vector


class StochasticObjective:
    """f(x; xi) behind a value-only oracle.

    ``n_samples=None`` declares a deterministic objective (singleton sample
    index 0); otherwise the sample space is the finite index set
    ``{0, ..., n_samples-1}``.

    ``fn(x, xi)`` returns f at one point.  The optional ``fn_batch(X, xi)``
    returns f at every row of an (n, dim) array, where ``xi`` is either one
    int for all rows or an int array with one index per row.  Row k must
    equal ``fn(X[k], xi_k)`` bit for bit: the batch is only a faster way to
    make the same queries.  A single evaluation is a one-row batch; without
    ``fn_batch`` a batch calls ``fn`` row by row.
    """

    def __init__(self, dim, fn, n_samples=None, name="", fn_batch=None):
        if dim < 1:
            raise ValueError(f"dimension must be >= 1, got {dim}")
        if n_samples is not None and n_samples < 1:
            raise ValueError(f"sample count must be >= 1, got {n_samples}")
        self.dim = int(dim)
        self.n_samples = n_samples
        self.name = name
        self._fn = fn
        self._fn_batch = fn_batch
        self._queries = 0

    @property
    def queries(self):
        return self._queries

    def _check_sample(self, xi):
        hi = 1 if self.n_samples is None else self.n_samples
        if not 0 <= xi < hi:
            raise ValueError(f"sample index {xi} out of range [0, {hi})")

    def _batch(self, X, xi, counted):
        X = np.asarray(X, dtype=np.float64)
        if X.ndim != 2 or X.shape[1] != self.dim:
            raise ValueError(f"expected an (n, {self.dim}) array of points, "
                             f"got shape {X.shape}")
        n = X.shape[0]
        if isinstance(xi, int) or np.ndim(xi) == 0:
            self._check_sample(xi)
            xi = int(xi)
        else:
            xi = np.asarray(xi, dtype=np.int64)
            if xi.shape != (n,):
                raise ValueError(f"need one sample index per row, got shape {xi.shape}")
            if n:
                self._check_sample(xi.min())
                self._check_sample(xi.max())
        if self._fn_batch is None:
            vals = np.empty(n)
            ok = n
            for k, x in enumerate(X):
                vals[k] = self._fn(x, xi if isinstance(xi, int) else int(xi[k]))
                if not math.isfinite(vals[k]):
                    ok = k
                    break
        else:
            vals = np.asarray(self._fn_batch(X, xi), dtype=np.float64)
            if vals.shape != (n,):
                raise ValueError(f"fn_batch returned shape {vals.shape} for {n} points")
            finite = np.isfinite(vals)
            # count_nonzero costs half of all() on the short arrays most
            # calls pass, one-row evaluations and peeks included
            ok = n if np.count_nonzero(finite) == n else int(np.argmin(finite))
        if counted:
            self._queries += ok
        if ok < n:
            raise NumericError("objective returned a non-finite value", x=X[ok])
        return vals

    def evaluate(self, x, xi=0):
        """f(x; xi); charges one query."""
        return float(self._batch(as_vector(x, self.dim)[None], xi, counted=True)[0])

    def evaluate_batch(self, X, xi=0):
        """f at every row of the (n, dim) array X; charges n queries.

        ``xi`` is one sample index for all rows or one per row.  The result
        equals n ``evaluate`` calls in row order, query count included: if a
        value is non-finite, the rows before it are charged and NumericError
        reports that row, as the one-at-a-time calls would have.
        """
        return self._batch(X, xi, counted=True)

    def peek(self, x, xi=0):
        """f(x; xi) without touching the query counter (metric side only)."""
        return float(self._batch(as_vector(x, self.dim)[None], xi, counted=False)[0])

    def peek_batch(self, X, xi=0):
        """``evaluate_batch`` without touching the query counter."""
        return self._batch(X, xi, counted=False)

    def full_loss(self, x):
        """Exact average of f(x; xi) over the whole sample space; uncounted."""
        if self.n_samples is None:
            return self.peek(x, 0)
        x = as_vector(x, self.dim)
        rows = np.broadcast_to(x, (self.n_samples, self.dim))
        return float(np.mean(self.peek_batch(rows, np.arange(self.n_samples))))

    def sample_minibatch(self, b, rng):
        """``b`` sample indices drawn uniformly with replacement.

        Deterministic objectives return [0]*b without consuming randomness.
        """
        if b < 1:
            raise ValueError(f"minibatch size must be >= 1, got {b}")
        if self.n_samples is None:
            return [0] * b
        return [int(i) for i in rng.integers(b, 0, self.n_samples)]


@dataclass
class ProblemMetadata:
    """Known analytic facts about a problem, used by tests and metric code.

    All fields optional; ``gradient`` is the gradient of the full loss and is
    never consulted by the optimizers themselves outside diagnostic modes.
    """

    lip_const: Optional[float] = None          # L_c, Lipschitz constant of f
    grad_lip: Optional[float] = None           # L_g, Lipschitz constant of grad f
    f_star: Optional[float] = None
    gradient: Optional[Callable] = None        # x -> grad of full loss
    sample_gradient: Optional[Callable] = None  # (x, xi) -> grad of f(.; xi)
    extra: dict = field(default_factory=dict)
