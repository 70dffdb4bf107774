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

EXP_FLOOR = -700.0   # exp's clip in the partition posterior and the training softmax


@dataclass(frozen=True)
class ProbEmbedding:
    """A probabilistic embedding: mean and diagonal precision, the one row of
    an `EmbeddingBatch`, whose checks it passes."""

    xhat: np.ndarray
    prec: np.ndarray

    def __post_init__(self):
        batch = EmbeddingBatch([self.xhat], [self.prec])
        object.__setattr__(self, "xhat", batch.xhat[0])
        object.__setattr__(self, "prec", batch.prec[0])

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
    # a batch of tuples has one short row per subset, and np.sum calls its
    # inner loop once per row; `_sum_last` adds the same terms in the same
    # order in a few whole-array calls.  np.sum adds them in that order only
    # when the last axis is innermost in memory, hence C order; the few rows
    # of a single tuple or a clustering's stats gain nothing from it.
    if t.ndim > 2 and t.flags.c_contiguous:
        return np.multiply(_sum_last(t, out), 0.5, out=out)
    return np.multiply(np.sum(t, axis=-1, out=out), 0.5, out=out)


def _sum_last(t: np.ndarray, out=None) -> np.ndarray:
    """np.sum(t, axis=-1, out=out) of a C-contiguous float64 `t`, bit for bit,
    in whole-array adds.  numpy reduces each row from 0.0 by pairwise
    summation: under 8 terms one after another; 8 to 128 terms in 8 strided
    partial sums, combined as ((r0+r1)+(r2+r3))+((r4+r5)+(r6+r7)), then the
    remainder one after another; more than 128 as the sum of two halves
    split at a multiple of 8."""
    # the 0.0 numpy starts from only turns an all -0.0 row into +0.0
    return np.add(0.0, _pairwise_sum(t), out=out)


def _pairwise_sum(t: np.ndarray) -> np.ndarray:
    n = t.shape[-1]
    if n < 2:
        return np.sum(t, axis=-1)   # no term or one: nothing to order
    if n > 128:
        half = n // 2 - n // 2 % 8
        return _pairwise_sum(t[..., :half]) + _pairwise_sum(t[..., half:])
    if n < 8:
        s = t[..., 0] + t[..., 1]
        tail = range(2, n)
    else:
        r = t[..., 0:8] if n < 16 else t[..., 0:8] + t[..., 8:16]
        for k in range(16, n - 7, 8):
            r += t[..., k:k + 8]
        r = r[..., 0::2] + r[..., 1::2]
        r = r[..., 0::2] + r[..., 1::2]
        s = r[..., 0] + r[..., 1]
        tail = range(n - n % 8, n)
    for k in tail:
        s += t[..., k]
    return s


def segment_stats(emb: EmbeddingBatch, plda: DiagPlda, scale: float, plugin=None):
    """Per-segment statistics as (n x D) arrays a_bar = e * xhat and b_bar =
    e, e the evidence weight of the precisions times scale, and the cluster
    log-likelihood g of each row.  A cluster's statistics are the sums of its
    members' rows.  With `plugin`, a factor, every segment's precision is
    plugin * w.  Statistics that could overflow are a DomainError: a cluster's
    |a_bar| and b_bar are at most their column sums, so a finite bound on those
    bounds every merge gain and pair LLR and every term they are made of."""
    if not len(emb):
        raise DomainError("need at least one segment")
    if emb.dim != plda.dim:
        raise ShapeError(f"embedding dim {emb.dim} != model dim {plda.dim}")

    def bounded(e, a_bar):
        h = np.abs(a_bar).sum(axis=0)
        return np.isfinite(1.5 * float(h @ h + np.log1p(e.sum(axis=0)).sum()))

    with np.errstate(over="ignore", invalid="ignore"):
        prec = emb.prec if plugin is None else np.broadcast_to(plugin * plda.w, emb.prec.shape)
        e1 = segment_weight(plda, prec)
        e = e1 * scale
        a_bar = e * emb.xhat
        if not bounded(e, a_bar):
            # the scale is to blame only if the unscaled statistics are bounded
            raise DomainError(f"likelihood_scale {scale:g} overflows the cluster statistics"
                              if scale != 1 and bounded(e1, e1 * emb.xhat) else
                              "the cluster statistics overflow: a model precision or an "
                              "embedding is too large")
    return a_bar, e, _pooled_loglik(a_bar, e)


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


def partition_log_posterior(g: np.ndarray, tables: PartitionTables) -> np.ndarray:
    """Log posterior over all B_n partitions from subset log-likelihoods `g`
    (2^n - 1,) or (B, 2^n - 1): per-partition sums of g plus the log prior,
    normalized by a log-softmax of size B_n."""
    logits, lse = _partition_logits(g, tables)
    logits -= lse
    return logits


def _partition_logits(g: np.ndarray, tables: PartitionTables, out=None):
    """The unnormalized log posterior (logits) of `partition_log_posterior`
    and its log-sum-exp per row (lse, keeping the reduced axis), whose
    difference is the log posterior.

    `out`, optional, is (logits, q, top): float, float and bool arrays of
    the logits' shape, which then holds the logits in `logits` and uses `q`
    and `top` as scratch, allocating nothing of that size.  For a batch the
    float buffers must be F-ordered, e.g. `np.empty((B_n, B)).T`, or a block
    of leading rows of one: that is the layout of the logits
    `(part_subset @ g.T).T + log_prior` gives, and the row sums of the
    log-sum-exp run down the rows in a different order (and round
    differently) in a C-ordered array.
    """
    logits, q, top = out if out is not None else (None,) * 3
    logits = np.add((tables.part_subset @ g.T).T, tables.log_prior, out=logits)
    # Log-sum-exp rounded as scipy's logsumexp rounds it, so the posterior
    # keeps its bits: the maxima leave the sum and come back through log1p.
    # The maxima are found on the shifted logits, against a scalar rather
    # than a broadcast row maximum: for finite x and m, x - m == 0 exactly
    # when x == m.  The shifted logits are clipped at EXP_FLOOR because
    # numpy's exp leaves its fast path for arguments whose result is
    # subnormal or underflows, and many partitions sit that far below the
    # best one.  The clip does not move the sum: exp(-700) ~ 1e-304 is a
    # normal number, and the at most B_n clipped entries add under 1e-300 to
    # a sum that log1p then adds to the max.  A non-finite input gives a
    # non-finite output: a -inf logit a -inf entry, and a NaN or +inf logit
    # (or a row of -inf) a row of NaN.  np.maximum propagates NaN, a row
    # with a NaN has a NaN maximum and no entry equal to it (hence the floor
    # of 1 on the count), and a +inf maximum shifts every entry to -inf or
    # NaN.  Each row has one maximum unless two partitions tie, so when there
    # is one per row and every maximum is finite the count per row is 1
    # without counting.  In-place ufuncs keep the bits and spare fresh
    # (B, B_n) pages.
    mx = logits.max(axis=-1, keepdims=True)
    q = np.subtract(logits, mx, out=q)
    top = np.equal(q, 0.0, out=top)
    np.exp(np.maximum(q, EXP_FLOOR, out=q), out=q)
    np.copyto(q, 0.0, where=top)
    if np.count_nonzero(top) == mx.size and np.isfinite(mx).all():
        n_top = 1
    else:
        n_top = np.maximum(top.sum(axis=-1, keepdims=True), 1)
    return logits, np.log1p(q.sum(axis=-1, keepdims=True) / n_top) + np.log(n_top) + mx


def clustering_log_posterior(embeddings, plda: DiagPlda,
                             tables: PartitionTables) -> np.ndarray:
    """Log posterior over all B_n partitions of the tuple."""
    # the embeddings are validated already; stacking them is all this needs
    try:
        xh = np.stack([e.xhat for e in embeddings])
        prec = np.stack([e.prec for e in embeddings])
    except ValueError as exc:   # no embeddings, or embeddings of unequal dims
        raise ShapeError(f"need one or more embeddings of one dim: {exc}") from None
    if xh.shape[1] != plda.dim:
        raise ShapeError(f"embedding dim {xh.shape[1]} != model dim {plda.dim}")
    g, _, _ = subset_logliks(segment_weight(plda, prec), xh, tables)
    return partition_log_posterior(g, tables)


def _pair_llr(a_bar: np.ndarray, b_bar: np.ndarray, g: np.ndarray, i, j):
    """LLR of the `segment_stats` rows i and j (indices or index arrays); the
    grouped singleton terms keep it exactly symmetric in floating point."""
    return _pooled_loglik(a_bar[i] + a_bar[j], b_bar[i] + b_bar[j]) - (g[i] + g[j])


def pairwise_llr(e1: ProbEmbedding, e2: ProbEmbedding, plda: DiagPlda) -> float:
    """Same-speaker vs different-speaker log-likelihood ratio for a pair."""
    a_bar, b_bar, g = segment_stats(EmbeddingBatch.stack([e1, e2]), plda, 1.0)
    return float(_pair_llr(a_bar, b_bar, g, 0, 1))
