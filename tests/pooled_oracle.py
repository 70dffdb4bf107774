"""Independent cluster log-likelihoods for the tests' oracles.

Nothing here calls probdiar's scoring code.  A cluster is scored from the raw
means `xhat`, precisions `prec` and the within-speaker precision `w` of its
members, one dimension at a time: with evidence weights e = w*prec/(w+prec)
(times the likelihood scale), the pooled statistics are a = sum(e*xhat) and
b = sum(e), and the log-likelihood is 0.5 * sum(a^2/(1+b) - log(1+b)).
"""

import numpy as np


def member_stats(members, w, scale=1.0):
    """Pooled statistics (a, b) of the members (objects with xhat and prec);
    zero vectors for no members."""
    a = np.zeros(len(w))
    b = np.zeros(len(w))
    for m in members:
        e = scale * w * m.prec / (w + m.prec)
        a = a + e * m.xhat
        b = b + e
    return a, b


def stats_loglik(a, b):
    """Log-likelihood of a cluster with pooled statistics (a, b)."""
    return 0.5 * float(np.sum(a * a / (1.0 + b) - np.log1p(b)))


def members_loglik(members, w, scale=1.0):
    """Log-likelihood of the cluster of `members`."""
    return stats_loglik(*member_stats(members, w, scale))


def partition_loglik(labels, embeddings, w, scale=1.0):
    """Total log-likelihood of a labelling of `embeddings`."""
    return sum(members_loglik([embeddings[t] for t in range(len(labels))
                               if labels[t] == k], w, scale)
               for k in set(labels))
