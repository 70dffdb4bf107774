"""Diagonalized two-covariance PLDA scoring of probabilistic embeddings.

Each segment carries a mean vector and a diagonal precision quantifying how
much each dimension should be trusted.  After joint diagonalization the
speaker identity variable is standard normal and the within-speaker precision
is a diagonal w.  Cluster likelihoods reduce to per-dimension pooled
statistics (a_bar, b_bar) that merge by addition, which makes both the
exhaustive posterior over all partitions of a small tuple and greedy
agglomerative clustering cheap.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import DecompositionError, DomainError, ShapeError
from .partitions import PartitionTables


@dataclass(frozen=True)
class ProbEmbedding:
    """A probabilistic embedding: mean and diagonal precision."""

    xhat: np.ndarray
    prec: np.ndarray

    def __post_init__(self):
        xhat = np.asarray(self.xhat, dtype=np.float64)
        prec = np.asarray(self.prec, dtype=np.float64)
        object.__setattr__(self, "xhat", xhat)
        object.__setattr__(self, "prec", prec)
        if xhat.shape != prec.shape or xhat.ndim != 1:
            raise ShapeError(f"xhat/prec must be equal-length vectors, got "
                             f"{xhat.shape} and {prec.shape}")
        if not np.all(np.isfinite(xhat)):
            raise DomainError("xhat must be finite")
        if not (np.all(np.isfinite(prec)) and np.all(prec >= 0)):
            raise DomainError("prec must be finite and nonnegative")

    @property
    def dim(self) -> int:
        return self.xhat.shape[0]


@dataclass(frozen=True, eq=False)
class EmbeddingBatch:
    """The probabilistic embeddings of n segments as (n x D) arrays of means
    and diagonal precisions, validated once for the whole batch.  Equality
    is identity."""

    xhat: np.ndarray
    prec: np.ndarray

    def __post_init__(self):
        try:
            xhat = np.asarray(self.xhat, dtype=np.float64)
            prec = np.asarray(self.prec, dtype=np.float64)
        except ValueError as exc:   # ragged nested sequences
            raise ShapeError(f"xhat/prec must be (n x D) arrays: {exc}") from None
        object.__setattr__(self, "xhat", xhat)
        object.__setattr__(self, "prec", prec)
        if xhat.shape != prec.shape or xhat.ndim != 2:
            raise ShapeError(f"xhat/prec must be (n x D) arrays of one shape, got "
                             f"{xhat.shape} and {prec.shape}")
        if not np.all(np.isfinite(xhat)):
            raise DomainError("xhat must be finite")
        if not (np.all(np.isfinite(prec)) and np.all(prec >= 0)):
            raise DomainError("prec must be finite and nonnegative")

    def __len__(self) -> int:
        return self.xhat.shape[0]

    @property
    def dim(self) -> int:
        return self.xhat.shape[1]

    @classmethod
    def stack(cls, embeddings) -> "EmbeddingBatch":
        """The batch of a nonempty sequence of ProbEmbeddings of one dim."""
        embeddings = list(embeddings)
        if not embeddings or len({e.dim for e in embeddings}) != 1:
            raise ShapeError("need one or more embeddings of one dim")
        return cls(np.stack([e.xhat for e in embeddings]),
                   np.stack([e.prec for e in embeddings]))


@dataclass(frozen=True)
class DiagPlda:
    """Within-speaker diagonal precision of the diagonalized model."""

    w: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.w, dtype=np.float64)
        object.__setattr__(self, "w", w)
        if w.ndim != 1:
            raise ShapeError("w must be a vector")
        if not (np.all(np.isfinite(w)) and np.all(w > 0)):
            raise DomainError("w must be finite and strictly positive")

    @property
    def dim(self) -> int:
        return self.w.shape[0]


@dataclass(frozen=True)
class ClusterStats:
    """Pooled per-dimension sufficient statistics of a cluster.

    Merging two clusters is the elementwise sum; the zero stats represent an
    empty cluster.
    """

    a_bar: np.ndarray
    b_bar: np.ndarray
    count: int = 0

    def __post_init__(self):
        object.__setattr__(self, "a_bar", np.asarray(self.a_bar, dtype=np.float64))
        object.__setattr__(self, "b_bar", np.asarray(self.b_bar, dtype=np.float64))
        if self.a_bar.shape != self.b_bar.shape:
            raise ShapeError("a_bar and b_bar must have the same shape")
        if np.any(self.b_bar < 0):
            raise DomainError("b_bar must be nonnegative")

    def __add__(self, other: "ClusterStats") -> "ClusterStats":
        if self.a_bar.shape != other.a_bar.shape:
            raise ShapeError("cannot merge stats of different dimension")
        return ClusterStats(self.a_bar + other.a_bar,
                            self.b_bar + other.b_bar,
                            self.count + other.count)

    @classmethod
    def zero(cls, dim: int) -> "ClusterStats":
        return cls(np.zeros(dim), np.zeros(dim), 0)


@dataclass(frozen=True)
class FullPlda:
    """Untransformed two-covariance model: between- and within-speaker
    covariances in the raw embedding space."""

    between_cov: np.ndarray
    within_cov: np.ndarray

    def __post_init__(self):
        b = np.asarray(self.between_cov, dtype=np.float64)
        w = np.asarray(self.within_cov, dtype=np.float64)
        object.__setattr__(self, "between_cov", b)
        object.__setattr__(self, "within_cov", w)
        if b.ndim != 2 or b.shape[0] != b.shape[1] or b.shape != w.shape:
            raise ShapeError("covariances must be square matrices of equal size")
        if not (np.allclose(b, b.T, atol=1e-12) and np.allclose(w, w.T, atol=1e-12)):
            raise DomainError("covariances must be symmetric (tolerance 1e-12)")
        try:
            np.linalg.cholesky(w)
        except np.linalg.LinAlgError as exc:
            raise DomainError("within_cov must be positive definite") from exc

    @property
    def dim(self) -> int:
        return self.between_cov.shape[0]


def joint_diagonalize(model: FullPlda) -> tuple[np.ndarray, DiagPlda]:
    """Transform T with T B T' = I and T W_cov T' diagonal.

    Returns (T, DiagPlda) where the diagonal within-speaker precisions are
    1 / diag(T W_cov T').  Rows are ordered by decreasing within-speaker
    precision (most speaker-discriminative first) and signed so the
    largest-magnitude entry of each row is positive.
    """
    b, wc = model.between_cov, model.within_cov
    try:
        np.linalg.cholesky(b)
    except np.linalg.LinAlgError as exc:
        raise DecompositionError("between_cov must be full rank (positive definite)") from exc
    # generalized eigenproblem: columns v with v' B v = I and v' W_cov v diagonal
    eigvals, vecs = scipy.linalg.eigh(wc, b)
    t = vecs.T
    w = 1.0 / eigvals
    order = np.argsort(-w, kind="stable")
    t = t[order]
    w = w[order]
    signs = np.sign(t[np.arange(t.shape[0]), np.argmax(np.abs(t), axis=1)])
    t = t * signs[:, None]
    return t, DiagPlda(w)


def segment_weight(plda: DiagPlda, prec: np.ndarray) -> np.ndarray:
    """Per-dimension evidence weight w*b/(w+b): 0 for b=0, saturating at w.
    A NaN precision gives a NaN weight."""
    return plda.w * prec / (plda.w + prec)


def segment_stats(embeddings, plda: DiagPlda, scale: float) -> list[ClusterStats]:
    """Per-segment statistics (e*xhat, e), e the evidence weight times scale."""
    stats = []
    for emb in embeddings:
        if emb.dim != plda.dim:
            raise ShapeError(f"embedding dim {emb.dim} != model dim {plda.dim}")
        e = segment_weight(plda, emb.prec) * scale
        stats.append(ClusterStats(e * emb.xhat, e, 1))
    return stats


def accumulate(embeddings, plda: DiagPlda) -> ClusterStats:
    """Pool a list of probabilistic embeddings into cluster statistics."""
    return sum(segment_stats(embeddings, plda, 1.0), ClusterStats.zero(plda.dim))


def _pooled_loglik(a_bar: np.ndarray, b_bar: np.ndarray, work=None, out=None):
    """0.5 * sum(a_bar^2 / (1 + b_bar) - log1p(b_bar)) over the last axis.

    `work` is an optional pair of scratch arrays of a_bar's shape and `out` an
    optional result array; without them both are fresh.  The operations run
    in the same order either way, so the bits do not depend on the buffers.
    """
    t, u = work if work is not None else (None, None)
    t = np.square(a_bar, out=t)
    u = np.add(1.0, b_bar, out=u)
    t /= u
    t -= np.log1p(b_bar, out=u)
    return np.multiply(np.sum(t, axis=-1, out=out), 0.5, out=out)


def cluster_loglik(stats: ClusterStats) -> float:
    """Log-likelihood of a cluster given its pooled stats, with the
    partition-independent constant fixed to zero."""
    return float(_pooled_loglik(stats.a_bar, stats.b_bar))


def subset_logliks(e: np.ndarray, xh: np.ndarray, tables: PartitionTables,
                   out=None):
    """Cluster log-likelihoods g (..., 2^n - 1) of every nonempty subset of
    each tuple of a (..., n, D) batch of evidence weights `e` and means `xh`,
    with the pooled stats a_bar, b_bar (..., 2^n - 1, D) behind them.

    `out`, optional, is (g, a_bar, b_bar, work): arrays of the results'
    shapes, and a pair of scratch arrays of a_bar's shape.  The results are
    then written into them (no (..., 2^n - 1, D) array is allocated) with
    the bits of a call without buffers.  A batch kernel that reuses one set
    of buffers for blocks of tuples passes each block's leading rows.
    """
    if e.shape[-2] != tables.n:
        raise ShapeError(f"tuple size {e.shape[-2]} != tables.n {tables.n}")
    g, a_bar, b_bar, work = out if out is not None else (None,) * 4
    s_t = tables.seg_subset.T
    a_bar = np.matmul(s_t, e * xh, out=a_bar)
    b_bar = np.matmul(s_t, e, out=b_bar)
    return _pooled_loglik(a_bar, b_bar, work, g), a_bar, b_bar


def partition_log_posterior(g: np.ndarray, tables: PartitionTables,
                            out=None) -> np.ndarray:
    """Log posterior over all B_n partitions from subset log-likelihoods `g`
    (2^n - 1,) or (B, 2^n - 1): per-partition sums of g plus the log prior,
    normalized by a log-softmax of size B_n.

    `out`, optional, is (logits, q, top): float, float and bool arrays of
    the result's shape, which then holds the result in `logits` and uses
    `q` and `top` as scratch, allocating nothing of that size.  For a batch
    the float buffers must be F-ordered, e.g. `np.empty((B_n, B)).T`, or a
    block of leading rows of one: that is the layout of the logits
    `(part_subset @ g.T).T + log_prior` gives, and the row sums of the
    log-sum-exp run down the rows in a different order (and round
    differently) in a C-ordered array.
    """
    logits, q, top = out if out is not None else (None,) * 3
    logits = np.add((tables.part_subset @ g.T).T, tables.log_prior, out=logits)
    # Log-sum-exp rounded as scipy's logsumexp rounds it, so the posterior
    # keeps its bits: the maxima leave the sum and come back through log1p.
    # The shifted logits are clipped at -700 because numpy's exp leaves its
    # fast path for arguments whose result is subnormal or underflows, and
    # many partitions sit that far below the best one.  The clip does not
    # move the sum: exp(-700) ~ 1e-304 is a normal number, and the at most
    # B_n clipped entries add under 1e-300 to a sum that log1p then adds to
    # the max.  np.maximum propagates NaN, so a non-finite logit still gives
    # a non-finite posterior (a NaN row has no maximum, hence the floor of 1).
    # In-place ufuncs keep the bits and spare fresh (B, B_n) pages.
    mx = logits.max(axis=-1, keepdims=True)
    top = np.equal(logits, mx, out=top)
    q = np.subtract(logits, mx, out=q)
    np.exp(np.maximum(q, -700.0, out=q), out=q)
    q[top] = 0.0
    n_top = np.maximum(top.sum(axis=-1, keepdims=True), 1)
    logits -= np.log1p(q.sum(axis=-1, keepdims=True) / n_top) + np.log(n_top) + mx
    return logits


def clustering_log_posterior(embeddings, plda: DiagPlda,
                             tables: PartitionTables) -> np.ndarray:
    """Log posterior over all B_n partitions of the tuple."""
    xh = np.stack([e.xhat for e in embeddings])
    prec = np.stack([e.prec for e in embeddings])
    if xh.shape[1] != plda.dim:
        raise ShapeError(f"embedding dim {xh.shape[1]} != model dim {plda.dim}")
    g, _, _ = subset_logliks(segment_weight(plda, prec), xh, tables)
    return partition_log_posterior(g, tables)


def pairwise_llr(e1: ProbEmbedding, e2: ProbEmbedding, plda: DiagPlda) -> float:
    """Same-speaker vs different-speaker log-likelihood ratio for a pair."""
    if e1.dim != e2.dim:
        raise ShapeError("embeddings must have matching dimension")
    s1 = accumulate([e1], plda)
    s2 = accumulate([e2], plda)
    # grouping the singleton terms keeps the result exactly symmetric in
    # floating point
    return cluster_loglik(s1 + s2) - (cluster_loglik(s1) + cluster_loglik(s2))
