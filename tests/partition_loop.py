"""Reference partition machinery for the tests: the recursive RGS
enumerator, the seat-by-seat prior loop and its renormalization, the
per-partition subset-mask loop and the integer-step count recurrence that
`probdiar.partitions` replaced with array code, kept verbatim.  They build
every row one Python step at a time, so they are slow but easy to check by
eye."""

import math

import numpy as np
import scipy.sparse as sp
from scipy.special import logsumexp


def enumerate_rgs(n):
    """All restricted growth strings of length n, in lexicographic order."""
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


def crp_log_prob(labels, params):
    """Log probability of `labels` under the Pitman-Yor seating process."""
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


def log_prior(rgs, prior):
    """The tables' log prior: the seating loop per row, renormalized."""
    log_prior = np.array([crp_log_prob(labels, prior) for labels in rgs])
    for _ in range(5):
        z = logsumexp(log_prior)
        if z == 0.0:
            break
        log_prior = log_prior - z
    return log_prior


def part_subset(rgs, n):
    """Partition-by-subset 0/1 CSR matrix: row r marks the clusters of rgs[r]
    as columns (bit mask of their segments) - 1."""
    n_cols = (1 << n) - 1
    part_rows = []
    for labels in rgs:
        masks = {}
        for t, lab in enumerate(labels):
            masks[lab] = masks.get(lab, 0) | (1 << t)
        part_rows.append(np.array(sorted(m - 1 for m in masks.values()), dtype=np.int64))
    indptr = np.cumsum([0] + [len(r) for r in part_rows])
    return sp.csr_matrix((np.ones(indptr[-1]), np.concatenate(part_rows), indptr),
                         shape=(len(rgs), n_cols))


def expected_cluster_count(n, concentration, discount):
    """E[number of clusters] after seating n customers, over integer steps."""
    e = 1.0
    for t in range(1, n):
        e += (concentration + discount * e) / (concentration + t)
    return e
