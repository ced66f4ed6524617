"""Dense-vector kernels and the seeded, counter-based random stream.

Every stochastic piece of the toolkit draws from :class:`RngStream`, whose raw
64-bit sequence is a pure function of (seed, counter).  That makes traces
reproducible run-to-run and lets callers generate draws in vectorized blocks
without perturbing the sequence: ``sample_unit_sphere(d, rng, n)`` returns the
same (n, d) rows, bit for bit, as n single draws, and leaves the stream where
they would.  Callers that build many rows (directions, or the points that
evaluate them) walk ``block_spans``, so that no step holds more than about
``BLOCK_WORDS`` words of temporaries.

Only the raw words are platform-independent.  Gaussians go through numpy's
CPU-dispatched ``log`` and sphere and ball norms through the BLAS dot kernel,
so the draws, and every trace built on them, repeat bit for bit only on the
same CPU features and BLAS kernel.
"""

import math

import numpy as np

from .errors import NumericError

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX_A = np.uint64(0xBF58476D1CE4E5B9)
_MIX_B = np.uint64(0x94D049BB133111EB)
_TWO53 = float(1 << 53)

BLOCK_WORDS = 1 << 13  # words per block_spans step: raw draws or point coordinates


def _mix64(z):
    """SplitMix64 finalizer, elementwise on uint64 arrays (wrapping arithmetic)."""
    z = (z ^ (z >> np.uint64(30))) * _MIX_A
    z = (z ^ (z >> np.uint64(27))) * _MIX_B
    return z ^ (z >> np.uint64(31))


class RngStream:
    """Counter-based pseudorandom stream.

    The k-th raw word is ``mix64(seed + k * GOLDEN)`` where ``mix64`` is the
    SplitMix64 finalizer and GOLDEN the 64-bit golden-ratio increment.  Equal
    seeds therefore give bitwise-identical raw words on every platform, and
    block draws consume exactly the same counters as repeated single draws.

    One stream per run; not safe to share between concurrent runs.
    """

    def __init__(self, seed):
        self.seed = int(seed) & 0xFFFFFFFFFFFFFFFF
        self._key = np.uint64(self.seed)
        self._counter = 0

    def raw(self, n):
        """Next ``n`` raw 64-bit words as a uint64 array."""
        lo = self._counter + 1
        idx = np.arange(lo, lo + n, dtype=np.uint64)
        self._counter += n
        return _mix64(self._key + idx * _GOLDEN)

    def rewind(self, n):
        """Hand back the last ``n`` raw words: the next draws reuse them."""
        if not 0 <= n <= self._counter:
            raise ValueError(f"cannot rewind {n} of {self._counter} words")
        self._counter -= n

    def uniform(self, n=None):
        """Doubles uniform on [0, 1), one per raw word (top 53 bits).

        ``n=None`` gives one float; ``n=0`` an empty array and no words used.
        """
        u = _unit_interval(self.raw(1 if n is None else n))
        return u if n is not None else float(u[0])

    def normal(self, n):
        """``n`` standard Gaussians via Box-Muller, cosine branch only.

        Each Gaussian consumes exactly two raw words, so block and sequential
        generation agree bitwise.
        """
        return _box_muller(self.raw(2 * n))

    def integers(self, n, low, high):
        """``n`` integers uniform on [low, high)."""
        if high <= low:
            raise ValueError("empty integer range")
        return (self.uniform(n) * (high - low)).astype(np.int64) + low

    def choice_without_replacement(self, n_total, k):
        """First ``k`` entries of a Fisher-Yates shuffle of range(n_total)."""
        if not 1 <= k <= n_total:
            raise ValueError("need 1 <= k <= n_total")
        idx = np.arange(n_total)
        u = self.uniform(k)
        for i in range(k):
            j = i + int(u[i] * (n_total - i))
            idx[i], idx[j] = idx[j], idx[i]
        return idx[:k].copy()


def _unit_interval(w):
    """Doubles on [0, 1) from the top 53 bits of each raw word."""
    return (w >> np.uint64(11)).astype(np.float64) / _TWO53


def _box_muller(w):
    """One Gaussian per pair of consecutive raw words along the last axis."""
    top = (w >> np.uint64(11)).astype(np.float64)  # exact: 53-bit integers
    u1 = (top[..., 0::2] + 1.0) / _TWO53  # (0, 1]
    u2 = top[..., 1::2] / _TWO53
    return np.sqrt(-2.0 * np.log(u1)) * np.cos((2.0 * np.pi) * u2)


def block_spans(n, words_per_row):
    """``(lo, hi)`` row ranges that cover ``range(n)`` in order, each at most
    ``BLOCK_WORDS`` words (raw draws or point coordinates) and at least one
    row."""
    step = max(1, BLOCK_WORDS // words_per_row)
    for lo in range(0, n, step):
        yield lo, min(n, lo + step)


def as_vector(x, d=None):
    """Coerce to a 1-D float64 array, optionally checking the dimension."""
    v = np.asarray(x, dtype=np.float64)
    if v.ndim != 1:
        raise ValueError(f"expected a 1-D vector, got shape {v.shape}")
    if d is not None and v.shape[0] != d:
        raise ValueError(f"dimension mismatch: expected {d}, got {v.shape[0]}")
    return v


def check_finite(v, context=""):
    """Raise NumericError if any entry of ``v`` is NaN or infinite."""
    if not np.isfinite(v).all():
        raise NumericError(f"non-finite value in {context or 'vector'}", x=np.asarray(v))
    return v


def weighted_row_sum(coeff, u):
    """sum_i coeff_i * u_i, added in row order starting from +0.0, as a
    ``g += coeff_i * u_i`` loop adds it.  ``np.add.accumulate`` fixes that
    order by definition; a reduction such as ``np.sum`` promises no order and
    starts from the first term, which can flip the sign of a zero."""
    terms = np.zeros((u.shape[0] + 1, u.shape[1]))
    np.multiply(coeff[:, None], u, out=terms[1:])
    return np.add.accumulate(terms, axis=0)[-1]


def _check_dim(d):
    if d < 1:
        raise ValueError(f"dimension must be >= 1, got {d}")


def sample_unit_sphere(d, rng, n=None):
    """Uniform draws from the unit sphere in R^d (normalized Gaussian vectors).

    ``n=None`` gives one (d,) vector.  With ``n`` the result is an (n, d)
    array whose rows equal n successive single draws bit for bit: the rows use
    the same counters, and each row norm is that row's own dot product
    (``np.vecdot`` calls the same BLAS dot as ``np.dot``; ``einsum`` sums in
    another order and is 1 ulp off).  The whole block is drawn at once;
    callers that need many rows draw them in ``block_spans``.
    """
    _check_dim(d)
    if n is None:
        g = rng.normal(d)
        nrm = math.sqrt(float(np.dot(g, g)))
        while nrm == 0.0:  # the counter stream could in principle emit all zeros
            g = rng.normal(d)
            nrm = math.sqrt(float(np.dot(g, g)))
        return g / nrm
    g = rng.normal(n * d).reshape(n, d)
    nrm = np.sqrt(np.vecdot(g, g))
    if nrm.all():
        return g / nrm[:, None]
    # an all-zero row is redrawn by a single draw from the next counters, so
    # hand back the words drawn after it and carry on from there
    k = int(np.argmin(nrm))
    rng.rewind(2 * d * (n - k - 1))
    return np.concatenate([g[:k] / nrm[:k, None], sample_unit_sphere(d, rng, n - k)])


def sample_unit_ball(d, rng, n=None):
    """Uniform draws from the closed unit ball: a sphere direction scaled by
    r^(1/d), r uniform on [0, 1).

    ``n=None`` gives one (d,) vector, the block of one row; with ``n`` an
    (n, d) array whose rows equal n successive single draws bit for bit (each
    draw uses 2d words for the direction, then one for r).
    """
    _check_dim(d)
    if n is None:
        return sample_unit_ball(d, rng, 1)[0]
    w = rng.raw(n * (2 * d + 1)).reshape(n, 2 * d + 1)
    g = _box_muller(w[:, :-1])
    nrm = np.sqrt(np.vecdot(g, g))
    k = n if nrm.all() else int(np.argmin(nrm))
    # Python's float power, because the recorded digests were made with it:
    # numpy's array power differs from it in the last bit
    radius = np.array([r ** (1.0 / d) for r in _unit_interval(w[:k, -1]).tolist()])
    head = (g[:k] / nrm[:k, None]) * radius[:, None]
    if k == n:
        return head
    # row k's direction is redrawn right after its all-zero words, then its
    # radius and the remaining rows follow
    rng.rewind((2 * d + 1) * (n - k) - 2 * d)
    return np.concatenate([head, sample_unit_ball(d, rng, 1),
                           sample_unit_ball(d, rng, n - k - 1)])
