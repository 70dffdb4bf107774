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
from scipy.special import logsumexp

from .errors import DomainError, SizeError

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


def enumerate_rgs(n: int) -> list[tuple[int, ...]]:
    """All restricted growth strings of length n, in lexicographic order."""
    if not 1 <= n <= MAX_TABLE_N:
        raise SizeError(f"enumerate_rgs requires 1 <= n <= {MAX_TABLE_N}, got {n}")
    out = []
    labels = [1] * n

    def rec(t, mx):
        if t == n:
            out.append(tuple(labels))
            return
        for lab in range(1, mx + 2):
            labels[t] = lab
            rec(t + 1, max(mx, lab))

    rec(1, 1)
    return out


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


def crp_log_prob(labels, params: CrpParams) -> float:
    """Log probability of the partition encoded by `labels` under the
    exchangeable Pitman-Yor seating process.

    Customer t+1 (t already seated, K clusters open) opens a new cluster with
    probability (alpha + K*d)/(alpha + t) and joins cluster k of size n_k with
    probability (n_k - d)/(alpha + t).
    """
    if not isinstance(params, CrpParams):
        params = CrpParams(*params)
    alpha, d = params.concentration, params.discount
    counts: dict = {}
    logp = 0.0
    for t, lab in enumerate(labels):
        if t > 0:
            if lab in counts:
                logp += math.log(counts[lab] - d) - math.log(alpha + t)
            else:
                logp += math.log(alpha + len(counts) * d) - math.log(alpha + t)
        counts[lab] = counts.get(lab, 0) + 1
    return logp


@dataclass(frozen=True)
class PartitionTables:
    """Everything needed to score all B_n clusterings of an n-tuple.

    `seg_subset` is n-by-(2^n - 1): column c marks the segments in nonempty
    subset c+1 (bitmask order); it is a dense C-ordered 0/1 float64 array.
    `part_subset` is B_n-by-(2^n - 1): row r marks the subsets that are the
    clusters of partition rgs[r]; it is a 0/1 CSR matrix.
    """

    n: int
    rgs: tuple[tuple[int, ...], ...]
    log_prior: np.ndarray
    prior: CrpParams
    seg_subset: np.ndarray = field(repr=False)
    part_subset: sp.csr_matrix = field(repr=False)
    index: dict = field(repr=False)

    @property
    def n_subsets(self) -> int:
        return (1 << self.n) - 1

    @property
    def n_partitions(self) -> int:
        return len(self.rgs)

    def rgs_index(self, labels) -> int:
        """Row index of a (canonical) label string in the RGS list."""
        return self.index[tuple(labels)]


def build_tables(n: int, prior: CrpParams) -> PartitionTables:
    """Build the partition tables for n-tuples under the given prior."""
    if not 1 <= n <= MAX_TABLE_N:
        raise SizeError(f"build_tables requires 1 <= n <= {MAX_TABLE_N}, got {n}")
    rgs = enumerate_rgs(n)
    log_prior = np.array([crp_log_prob(labels, prior) for labels in rgs])
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

    part_rows = []
    for labels in rgs:
        masks = {}
        for t, lab in enumerate(labels):
            masks[lab] = masks.get(lab, 0) | (1 << t)
        part_rows.append(np.array(sorted(m - 1 for m in masks.values()), dtype=np.int64))
    indptr = np.cumsum([0] + [len(r) for r in part_rows])
    part_subset = sp.csr_matrix((np.ones(indptr[-1]), np.concatenate(part_rows), indptr),
                                shape=(len(rgs), n_cols))

    return PartitionTables(
        n=n,
        rgs=tuple(rgs),
        log_prior=log_prior,
        prior=prior,
        seg_subset=seg_subset,
        part_subset=part_subset,
        index={labels: r for r, labels in enumerate(rgs)},
    )


def expected_cluster_count(n: int, concentration: float, discount: float) -> float:
    """Exact E[number of clusters] after seating n customers.

    The open-new-cluster probability is affine in the current cluster count,
    so the expectation obeys a closed one-step recurrence.
    """
    e = 1.0
    for t in range(1, n):
        e += (concentration + discount * e) / (concentration + t)
    return e


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
    """
    if n_total < 1:
        raise DomainError(f"n_total must be >= 1, got {n_total}")
    if not 1 <= expected_speakers <= n_total:
        raise DomainError(
            f"expected_speakers must be in [1, {n_total}], got {expected_speakers}")

    candidates = []
    for d in FIT_DISCOUNT_GRID:
        lo = 1e-12 if d == 0 else 0.0
        e_lo = expected_cluster_count(n_total, max(lo, 1e-12), d)
        if e_lo > expected_speakers * (1 + FIT_REL_TOL):
            continue
        e_hi = expected_cluster_count(n_total, ALPHA_MAX, d)
        if e_hi < expected_speakers:
            # target only reachable as alpha -> inf: clip
            warnings.warn(
                f"fit_crp: target {expected_speakers} needs alpha > {ALPHA_MAX:g}; "
                f"clipping (all-singletons limit)")
            candidates.append((ALPHA_MAX, d))
            continue
        a_lo, a_hi = lo, ALPHA_MAX
        for _ in range(200):
            mid = 0.5 * (a_lo + a_hi)
            if expected_cluster_count(n_total, max(mid, 1e-300), d) < expected_speakers:
                a_lo = mid
            else:
                a_hi = mid
            if a_hi - a_lo <= 1e-14 * max(1.0, a_hi):
                break
        alpha = 0.5 * (a_lo + a_hi)
        e = expected_cluster_count(n_total, max(alpha, 1e-300), d)
        if abs(e - expected_speakers) <= FIT_REL_TOL * expected_speakers:
            candidates.append((alpha, d))

    if not candidates:
        raise DomainError(
            f"no (alpha, discount) on the search grid matches "
            f"E[clusters]={expected_speakers} for n={n_total}")

    best, best_var = None, -1.0
    for alpha, d in candidates:
        v = cluster_count_variance(n_total, alpha, d)
        if v > best_var:
            best, best_var = (alpha, d), v
    return CrpParams(concentration=max(best[0], 1e-12), discount=best[1])
