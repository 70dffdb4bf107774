"""Reference unsupervised calibration for the tests: the EM on an (n, 2)
array with axis-1 reductions that `probdiar.clustering` replaced with two
score columns, kept verbatim.  Each iteration reduces over a 2-wide axis
four times, so it is slow but easy to check by eye."""

import numpy as np

from probdiar.errors import CalibrationError


def unsupervised_calibration(scores) -> float:
    """Decision threshold from a two-component shared-variance 1-D Gaussian
    mixture fitted to the scores by EM.

    Deterministic initialization: means at the 10th/90th percentiles, equal
    weights, shared variance from the pooled scores.  Returns the score with
    equal component posteriors, between the two means.
    """
    scores = np.asarray(scores, dtype=np.float64)
    if scores.size < 2:
        raise CalibrationError("need at least two scores")
    if np.ptp(scores) == 0:
        raise CalibrationError("degenerate score set (all scores equal)")

    mu = np.percentile(scores, [10.0, 90.0])
    if mu[0] == mu[1]:
        mu = np.array([scores.min(), scores.max()])
    var = max(np.var(scores), 1e-12)
    pi = np.array([0.5, 0.5])
    prev = -np.inf
    for _ in range(100):
        # responsibilities under shared variance
        logr = -0.5 * (scores[:, None] - mu) ** 2 / var + np.log(pi)
        mx = logr.max(axis=1, keepdims=True)
        r = np.exp(logr - mx)
        ll = float(np.sum(np.log(r.sum(axis=1))) + np.sum(mx)
                   - 0.5 * scores.size * np.log(2 * np.pi * var))
        r /= r.sum(axis=1, keepdims=True)
        nk = r.sum(axis=0)
        pi = nk / scores.size
        mu = (r * scores[:, None]).sum(axis=0) / np.maximum(nk, 1e-300)
        var = max(float(np.sum(r * (scores[:, None] - mu) ** 2) / scores.size), 1e-12)
        if abs(ll - prev) < 1e-9:
            break
        prev = ll
    if mu[0] == mu[1]:
        raise CalibrationError("EM collapsed to a single component")
    # equal-posterior crossing of two equal-variance Gaussians
    return float(0.5 * (mu[0] + mu[1]) + var * np.log(pi[0] / pi[1]) / (mu[1] - mu[0]))
