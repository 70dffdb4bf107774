"""Reference `fit_crp` for the tests: the bisection that decides every step
with the seat-by-seat count recurrence, which `probdiar.partitions` replaced
with comparisons certified by the closed-form expectation, kept verbatim.  It
runs the recurrence ~945 times for 720 draws, so it is slow but easy to check
by eye."""

import warnings

import numpy as np

from probdiar.errors import DomainError
from probdiar.partitions import (ALPHA_MAX, FIT_DISCOUNT_GRID, FIT_REL_TOL, CrpParams,
                                 _expected_count, cluster_count_variance)


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

    steps = np.arange(1.0, n_total).tolist()
    candidates = []
    for d in FIT_DISCOUNT_GRID:
        lo = 1e-12 if d == 0 else 0.0
        e_lo = _expected_count(steps, max(lo, 1e-12), d)
        if e_lo > expected_speakers * (1 + FIT_REL_TOL):
            continue
        e_hi = _expected_count(steps, ALPHA_MAX, d)
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
            if _expected_count(steps, max(mid, 1e-300), d) < expected_speakers:
                a_lo = mid
            else:
                a_hi = mid
            if a_hi - a_lo <= 1e-14 * max(1.0, a_hi):
                break
        alpha = 0.5 * (a_lo + a_hi)
        e = _expected_count(steps, max(alpha, 1e-300), d)
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
