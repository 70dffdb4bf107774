"""Set-partition machinery: restricted growth strings, Bell numbers, the
Pitman-Yor / CRP partition prior, and the precomputed tables used to score
every clustering hypothesis of an n-tuple at once.

A partition of segments 1..n is encoded as a restricted growth string (RGS):
a label sequence with labels[0] = 1 and each subsequent label at most one
larger than the running maximum.  There are exactly B_n (Bell number) such
strings, one per partition.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
from scipy.special import digamma, logsumexp

from .errors import DomainError, ShapeError, SizeError

MAX_BELL_N = 16
MAX_TABLE_N = 12
ALPHA_MAX = 1e6


def bell_number(n: int) -> int:
    """Number of partitions of n items, via the Bell triangle recurrence."""
    if not 1 <= n <= MAX_BELL_N:
        raise SizeError(f"bell_number requires 1 <= n <= {MAX_BELL_N}, got {n}")
    row = [1]
    for _ in range(n - 1):
        nxt = [row[-1]]
        for v in row:
            nxt.append(nxt[-1] + v)
        row = nxt
    return row[-1]


def _rgs_array(n: int) -> np.ndarray:
    """The restricted growth strings of length n as a (B_n x n) int64 array in
    lexicographic order: each row is repeated once per label it may take
    next, 1 .. its running maximum + 1."""
    if not 1 <= n <= MAX_TABLE_N:
        raise SizeError(f"partition tables require 1 <= n <= {MAX_TABLE_N}, got {n}")
    rgs = np.ones((1, 1), dtype=np.int64)
    for _ in range(1, n):
        reps = rgs.max(axis=1) + 1
        parent = np.repeat(np.arange(len(rgs)), reps)
        label = np.arange(len(parent)) - (np.cumsum(reps) - reps)[parent] + 1
        rgs = np.column_stack((rgs[parent], label))
    return rgs


def enumerate_rgs(n: int) -> list[tuple[int, ...]]:
    """All restricted growth strings of length n, in lexicographic order."""
    return list(map(tuple, _rgs_array(n).tolist()))


def canonicalize(labels) -> tuple[int, ...]:
    """Relabel an arbitrary label sequence by first appearance, yielding the
    RGS representative of its partition.  Idempotent."""
    labels = list(labels)
    if not labels:
        raise DomainError("cannot canonicalize an empty label sequence")
    mapping = {}
    out = []
    for lab in labels:
        if lab not in mapping:
            mapping[lab] = len(mapping) + 1
        out.append(mapping[lab])
    return tuple(out)


@dataclass(frozen=True)
class CrpParams:
    """Pitman-Yor partition prior parameters."""

    concentration: float
    discount: float = 0.0

    def __post_init__(self):
        if not np.isfinite(self.concentration) or self.concentration < 0:
            raise DomainError(f"concentration must be finite and >= 0, got {self.concentration}")
        if not 0 <= self.discount < 1:
            raise DomainError(f"discount must be in [0, 1), got {self.discount}")
        if self.concentration + self.discount <= 0:
            raise DomainError("concentration + discount must be positive")


def _log_prior(rgs: np.ndarray, params: CrpParams) -> np.ndarray:
    """Seating-process log probability of each row of a (B x n) array of
    restricted growth strings: per seat t, `math.log(x) - math.log(alpha + t)`
    with one `math.log` per distinct x, added in seat order from 0.0."""
    alpha, d = params.concentration, params.discount
    rows = np.arange(len(rgs))
    counts = np.zeros((len(rgs), rgs.shape[1] + 1), dtype=np.int64)  # sizes by label
    counts[:, 1] = 1
    top = np.maximum.accumulate(rgs, axis=1)   # clusters open after each seat
    logp = np.zeros(len(rgs))
    for t in range(1, rgs.shape[1]):
        label, k = rgs[:, t], top[:, t - 1]
        # t + K for a seat that opens cluster K + 1, t - size for one that joins
        key = t + np.where(label > k, k, -counts[rows, label])
        log_x = np.zeros(2 * t + 1)
        for v in np.flatnonzero(np.bincount(key)).tolist():
            log_x[v] = math.log(alpha + (v - t) * d if v > t else (t - v) - d)
        logp += log_x[key] - math.log(alpha + t)
        counts[rows, label] += 1
    return logp


def crp_log_prob(labels, params: CrpParams) -> float:
    """Log probability of the partition encoded by `labels` under the
    exchangeable Pitman-Yor seating process.

    Customer t+1 (t already seated, K clusters open) opens a new cluster with
    probability (alpha + K*d)/(alpha + t) and joins cluster k of size n_k with
    probability (n_k - d)/(alpha + t).
    """
    labels = list(labels)
    return float(_log_prior(np.array([canonicalize(labels)]), params)[0]) if labels else 0.0


@dataclass(frozen=True)
class PartitionTables:
    """Everything needed to score all B_n clusterings of an n-tuple.

    `rgs` is the B_n-by-n int64 array of restricted growth strings in
    lexicographic order, and `rgs_index` is a string's rank in it.
    `seg_subset` is n-by-(2^n - 1): column c marks the segments in nonempty
    subset c+1 (bitmask order); it is a dense C-ordered 0/1 float64 array.
    `part_subset` is B_n-by-(2^n - 1): row r marks the subsets that are the
    clusters of partition rgs[r]; it is a 0/1 CSR matrix.
    """

    n: int
    rgs: np.ndarray
    log_prior: np.ndarray
    seg_subset: np.ndarray = field(repr=False)
    part_subset: sp.csr_matrix = field(repr=False)

    @property
    def n_subsets(self) -> int:
        return (1 << self.n) - 1

    @property
    def n_partitions(self) -> int:
        return len(self.rgs)

    def rgs_index(self, labels):
        """Row of a restricted growth string in `rgs`, or rows of a (B x n) array
        of them: the rank sum over t of (labels[t] - 1) * W[n - 1 - t, max before t],
        where W[r, m] counts the ways to add r labels under a running max of m."""
        labels = np.asarray(labels)
        if labels.ndim not in (1, 2) or labels.shape[-1] != self.n:
            raise ShapeError(f"labellings of shape {labels.shape} for {self.n}-tuples")
        if not np.issubdtype(labels.dtype, np.integer):
            raise DomainError(f"labels must be integers, got {labels.dtype}")
        top = np.maximum.accumulate(np.insert(labels, 0, 0, axis=-1)[..., :-1], axis=-1)
        if not np.all((labels >= 1) & (labels <= top + 1)):
            raise DomainError("labellings must be restricted growth strings")
        w = np.ones((self.n, self.n + 1), dtype=np.int64)
        for r in range(1, self.n):
            w[r, :-1] = np.arange(self.n) * w[r - 1, :-1] + w[r - 1, 1:]
        return np.sum((labels - 1) * w[np.arange(self.n)[::-1], top], axis=-1)


def build_tables(n: int, prior: CrpParams) -> PartitionTables:
    """Build the partition tables for n-tuples under the given prior."""
    rgs = _rgs_array(n)
    log_prior = _log_prior(rgs, prior)
    # renormalize so the log prior mass is exactly zero in floating point:
    # then uninformative likelihoods leave the posterior equal to the prior
    # bit for bit
    for _ in range(5):
        z = logsumexp(log_prior)
        if z == 0.0:
            break
        log_prior = log_prior - z
    z = logsumexp(log_prior)
    if not abs(z) < 1e-10:
        raise DomainError(f"partition prior for n={n} does not normalize: log mass {z!r}")
    n_cols = (1 << n) - 1
    subsets = np.arange(1, n_cols + 1)
    seg_subset = ((subsets >> np.arange(n)[:, None]) & 1).astype(np.float64)

    # row r's clusters as segment bit masks, one column per label, ascending
    rows = np.arange(len(rgs))
    masks = np.zeros(rgs.shape, dtype=np.int64)
    for t in range(n):
        masks[rows, rgs[:, t] - 1] |= 1 << t
    masks.sort(axis=1)
    indptr = np.concatenate(([0], np.cumsum(rgs.max(axis=1))))
    part_subset = sp.csr_matrix((np.ones(indptr[-1]), masks[masks > 0] - 1, indptr),
                                shape=(len(rgs), n_cols))

    return PartitionTables(n=n, rgs=rgs, log_prior=log_prior, seg_subset=seg_subset,
                           part_subset=part_subset)


def expected_cluster_count(n: int, concentration: float, discount: float) -> float:
    """Exact E[number of clusters] after seating n customers.

    The open-new-cluster probability is affine in the current cluster count,
    so the expectation obeys a closed one-step recurrence.
    """
    return _expected_count(np.arange(1.0, n).tolist(), concentration, discount)


def _expected_count(steps: list[float], concentration: float, discount: float) -> float:
    """The recurrence over seats `steps` = 1.0 .. n - 1.0: exact floats skip an
    int conversion per step, and `fit_crp` builds them once per call."""
    e = 1.0
    for t in steps:
        e += (concentration + discount * e) / (concentration + t)
    return e


def _count_test(steps: list[float], concentration: float, discount: float, test) -> bool:
    """`test(_expected_count(steps, concentration, discount))` for a `test`
    monotone in the count, taken from the Pitman-Yor closed form (lgamma
    differences for d > 0, digamma for d = 0) when the test agrees at both ends
    of its error bound: 32 ulps of the magnitudes it cancels plus 32n ulps of
    the count, for the recurrence's rounding (~5 ulps per seat to first order).
    The bound is an estimate and the factor 32 a margin set by measurement:
    over n = 1..5000, the largest gap between the two forms was 0.146 of the
    same bound at 8 ulps, and lgamma has no stated ulp guarantee."""
    alpha, d, n = concentration, discount, len(steps) + 1
    try:
        if d > 0:
            lg = [math.lgamma(x) for x in (alpha + d + n, alpha, alpha + d, alpha + n)]
            scale = alpha / d * math.exp(lg[0] + lg[1] - lg[2] - lg[3])
            e, mag = scale - alpha / d, scale * (sum(map(abs, lg)) + 2 * (alpha + n) + 4)
        else:
            psi = digamma([alpha + n, alpha]).tolist()
            e, mag = alpha * (psi[0] - psi[1]), alpha * (abs(psi[0]) + abs(psi[1]) + 1)
        err = 32 * np.finfo(float).eps * (mag + (n + 1) * abs(e))
    except OverflowError:
        err = math.inf
    if math.isfinite(err) and test(e - err) == test(e + err):
        return test(e)
    return test(_expected_count(steps, concentration, discount))


def cluster_count_variance(n: int, concentration: float, discount: float) -> float:
    """Exact Var[number of clusters] after seating n customers.

    Customer t+1 opens a cluster with probability (alpha + d*K)/(alpha + t),
    affine in the current count K, so Cov(K, new) = d*Var[K]/(alpha + t) and

        Var[K_{t+1}] = Var[K_t] * (1 + 2d/(alpha + t)) + p_t * (1 - p_t),

    with p_t = (alpha + d*E[K_t])/(alpha + t).  Unlike E[K^2] - E[K]^2, this
    form does not cancel near the all-singletons limit.
    """
    e, var = 1.0, 0.0
    for t in range(1, n):
        p = (concentration + discount * e) / (concentration + t)
        var = var * (1.0 + 2.0 * discount / (concentration + t)) + p * (1.0 - p)
        e += p
    return var


# fit_crp search configuration: discount grid and the relative tolerance on
# the expected cluster count.
FIT_DISCOUNT_GRID = tuple(round(0.05 * i, 2) for i in range(20))  # 0, 0.05, ..., 0.95
FIT_REL_TOL = 0.005


def fit_crp(n_total: int, expected_speakers: float) -> CrpParams:
    """Find Pitman-Yor parameters whose expected cluster count over n_total
    draws matches `expected_speakers`, choosing among matching (alpha, d)
    pairs the one with the largest exact variance of the count
    (`cluster_count_variance`); exact ties go to the lowest discount.

    For each discount on a fixed grid, alpha is solved by bisection on the
    exact expectation recurrence; infeasible grid points (expectation at
    alpha=0 already above target) are skipped.  A target at the all-singleton
    limit clips alpha at ALPHA_MAX with a warning.

    `_count_test` decides each comparison from the closed form where that lies
    farther from the threshold than both forms' rounding, and from the
    recurrence otherwise: the recurrence's answer wherever the measured margin
    of `_count_test` holds, so the bisection halves the same brackets and alpha
    keeps its bits (checked against the recurrence-only loop for n <= 5000).
    """
    if n_total < 1:
        raise DomainError(f"n_total must be >= 1, got {n_total}")
    if not 1 <= expected_speakers <= n_total:
        raise DomainError(
            f"expected_speakers must be in [1, {n_total}], got {expected_speakers}")

    steps = np.arange(1.0, n_total).tolist()
    t, tol = expected_speakers, FIT_REL_TOL * expected_speakers
    candidates = []
    for d in FIT_DISCOUNT_GRID:
        lo = 1e-12 if d == 0 else 0.0
        if _count_test(steps, max(lo, 1e-12), d, lambda e: e > t * (1 + FIT_REL_TOL)):
            continue
        if _count_test(steps, ALPHA_MAX, d, lambda e: e < t):
            # target only reachable as alpha -> inf: clip
            warnings.warn(
                f"fit_crp: target {expected_speakers} needs alpha > {ALPHA_MAX:g}; "
                f"clipping (all-singletons limit)")
            candidates.append((ALPHA_MAX, d))
            continue
        a_lo, a_hi = lo, ALPHA_MAX
        for _ in range(200):
            mid = 0.5 * (a_lo + a_hi)
            if _count_test(steps, max(mid, 1e-300), d, lambda e: e < t):
                a_lo = mid
            else:
                a_hi = mid
            if a_hi - a_lo <= 1e-14 * max(1.0, a_hi):
                break
        alpha = 0.5 * (a_lo + a_hi)
        # |e - t| <= tol as two tests monotone in e (t - e is -(e - t) exactly)
        if all(_count_test(steps, max(alpha, 1e-300), d, test)
               for test in (lambda e: e - t <= tol, lambda e: t - e <= tol)):
            candidates.append((alpha, d))

    if not candidates:
        raise DomainError(
            f"no (alpha, discount) on the search grid matches "
            f"E[clusters]={expected_speakers} for n={n_total}")

    alpha, d = max(candidates, key=lambda c: cluster_count_variance(n_total, *c))
    return CrpParams(concentration=max(alpha, 1e-12), discount=d)
