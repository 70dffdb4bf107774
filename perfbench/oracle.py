"""Independent reference computations for the benchmark's output checks.

Neither function calls probdiar's scoring or DER code: the posterior oracle
scores every partition cluster by cluster from the raw embedding statistics,
and the DER oracle scores timelines whose reference and hypothesis share the
same contiguous, non-overlapping segments.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.optimize import linear_sum_assignment
from scipy.special import logsumexp


def crp_log_prior(rgs, concentration, discount):
    """Normalized Pitman-Yor log prior of each partition, seat by seat."""
    out = []
    for labels in rgs:
        counts = {}
        logp = 0.0
        for t, lab in enumerate(labels):
            if t:
                k = counts.get(lab)
                num = k - discount if k else concentration + len(counts) * discount
                logp += math.log(num) - math.log(concentration + t)
            counts[lab] = counts.get(lab, 0) + 1
        out.append(logp)
    out = np.array(out)
    return out - logsumexp(out)


def log_posterior(xhat, prec, w, rgs, log_prior):
    """Brute-force log posterior over the partitions `rgs` of one tuple.

    xhat, prec: (n, D) embedding means and precisions; w: (D,) within-speaker
    precision.  Each cluster's log-likelihood is computed once per member set.
    """
    with np.errstate(invalid="ignore", divide="ignore"):
        e = np.where(prec > 0, w * prec / (w + prec), 0.0)
    cache = {}
    scores = np.empty(len(rgs))
    for r, labels in enumerate(rgs):
        masks = {}
        for t, lab in enumerate(labels):
            masks[lab] = masks.get(lab, 0) | (1 << t)
        total = 0.0
        for mask in masks.values():
            if mask not in cache:
                idx = [t for t in range(len(labels)) if mask >> t & 1]
                a = (e[idx] * xhat[idx]).sum(axis=0)
                b = e[idx].sum(axis=0)
                cache[mask] = 0.5 * float(np.sum(a * a / (1.0 + b) - np.log1p(b)))
            total += cache[mask]
        scores[r] = total
    logits = scores + log_prior
    return logits - logsumexp(logits)


def contiguous_der(durations, ref_labels, hyp_labels):
    """DER of a hypothesis that labels the same segments as the reference,
    with no collar: only speaker confusion under the optimal one-to-one
    mapping can occur."""
    refs = sorted(set(ref_labels))
    hyps = sorted(set(hyp_labels))
    overlap = np.zeros((len(refs), len(hyps)))
    for dur, r, h in zip(durations, ref_labels, hyp_labels):
        overlap[refs.index(r), hyps.index(h)] += dur
    rows, cols = linear_sum_assignment(-overlap)
    return 1.0 - overlap[rows, cols].sum() / overlap.sum()
