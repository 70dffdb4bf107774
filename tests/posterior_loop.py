"""Reference subset likelihoods and partition posterior for the tests:
`probdiar.plda`'s `_pooled_loglik`, `subset_logliks` and
`partition_log_posterior` as they were before the sums over D ran in
whole-array adds and the log-sum-exp found its maxima on the shifted logits,
kept verbatim.  They sum each row with np.sum and compare every logit with a
broadcast row maximum, so they are slower but easy to check by eye."""

import numpy as np

from probdiar.errors import ShapeError
from probdiar.partitions import PartitionTables
from probdiar.plda import EXP_FLOOR


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
    # The shifted logits are clipped at EXP_FLOOR because numpy's exp leaves
    # its fast path for arguments whose result is subnormal or underflows, and
    # many partitions sit that far below the best one.  The clip does not
    # move the sum: exp(-700) ~ 1e-304 is a normal number, and the at most
    # B_n clipped entries add under 1e-300 to a sum that log1p then adds to
    # the max.  np.maximum propagates NaN, so a non-finite logit still gives
    # a non-finite posterior (a NaN row has no maximum, hence the floor of 1).
    # In-place ufuncs keep the bits and spare fresh (B, B_n) pages.
    mx = logits.max(axis=-1, keepdims=True)
    top = np.equal(logits, mx, out=top)
    q = np.subtract(logits, mx, out=q)
    np.exp(np.maximum(q, EXP_FLOOR, out=q), out=q)
    q[top] = 0.0
    n_top = np.maximum(top.sum(axis=-1, keepdims=True), 1)
    logits -= np.log1p(q.sum(axis=-1, keepdims=True) / n_top) + np.log(n_top) + mx
    return logits
