"""Full-recording diarization by agglomerative hierarchical clustering.

Two variants: the by-the-book greedy maximum-likelihood AHC, where each merge
is scored exactly from pooled cluster statistics, and the baseline weighted
average-linkage (WPGMA) AHC over plug-in pairwise log-likelihood ratios with a
per-recording unsupervised calibration threshold.

The greedy merge order does not depend on the stopping threshold sigma, only
the stopping point does: each variant is one engine yielding merge records
lazily into a `MergeTrace`, and `cuts` replays it once for any number of
sigmas, keeping the labels at the prefix each sigma accepts.

Both variants take a recording's embeddings as one `EmbeddingBatch` and
score pairs as array operations on the (n x D) statistics rows of
`plda.segment_stats`, which merge by row addition.  `merge_delta` scores the
pairs of two index arrays at once: all pairs (in blocks) when a trace
starts, one merged cluster against the rest after each merge.  The baseline's
plug-in scores are the same broadcast grouped as `pairwise_llr`, and equal it
bit for bit.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import CalibrationError, DomainError, ShapeError
from .partitions import canonicalize
from .plda import DiagPlda, EmbeddingBatch, _pooled_loglik, segment_stats

# precision multiple used to emulate plug-in (infinite-precision) embeddings
PLUGIN_PREC_FACTOR = 1e12

# pairs scored per broadcast when a recording's pair scores are first filled;
# bounds the (pairs x D) temporaries
_PAIR_BLOCK = 1 << 14


@dataclass(frozen=True)
class AhcConfig:
    mode: str = "by_the_book"       # "baseline" or "by_the_book"
    sigma: float = 0.0              # stopping threshold / calibration offset
    likelihood_scale: float = 1.0   # down-weights per-segment statistics

    def __post_init__(self):
        if self.mode not in ("baseline", "by_the_book"):
            raise DomainError(f"unknown AHC mode {self.mode!r}")
        if not 0 < self.likelihood_scale < np.inf:
            raise DomainError("likelihood_scale must be positive and finite")
        _check_sigma(self.sigma)


def _check_sigma(sigma):
    """A stopping threshold compares with every score; NaN compares with
    none (book AHC would merge nothing, the baseline everything)."""
    if math.isnan(sigma):
        raise DomainError("sigma must not be NaN")


def merge_delta(a_bar: np.ndarray, b_bar: np.ndarray, g: np.ndarray, i, j):
    """Log-likelihood gain of merging clusters i and j, given the clusters'
    statistics rows a_bar, b_bar (n x D) and log-likelihoods g (n,); i and j
    are indices or equal-length index arrays."""
    return _pooled_loglik(a_bar[i] + a_bar[j], b_bar[i] + b_bar[j]) - g[i] - g[j]


class MergeTrace:
    """Greedy merge records (a, b, score) of one recording, pulled lazily
    from its engine and kept, so that later cuts replay stored records.
    `calibration` is the baseline's sigma-free threshold (merge while not
    score < calibration + sigma); None selects the by-the-book rule (merge
    while score > sigma)."""

    def __init__(self, n: int, merges, calibration: float | None = None):
        self.n, self.calibration = n, calibration
        self.records, self._merges = [], iter(merges)

    def __iter__(self):
        for k in itertools.count():
            if k == len(self.records):
                record = next(self._merges, None)
                if record is None:
                    return
                self.records.append(record)
            yield self.records[k]

    def stops(self, score: float, sigma: float) -> bool:
        """Whether sigma stops before a merge record of this score."""
        if self.calibration is None:
            return not score > sigma
        return score < self.calibration + sigma


def cuts(trace: MergeTrace, sigmas) -> list[tuple[int, ...]]:
    """The labels `cut(trace, s)` for each s in sigmas, from one replay: a
    record that stops a sigma stops every larger one, so the sigmas stop in
    decreasing order and the replay ends where the smallest one stops."""
    sigmas = [float(s) for s in sigmas]
    for sigma in sigmas:
        _check_sigma(sigma)
    pending = sorted(range(len(sigmas)), key=sigmas.__getitem__)
    out = [None] * len(sigmas)

    def stopped(record):
        return pending and (record is None or trace.stops(record[2], sigmas[pending[-1]]))

    raw = np.arange(trace.n)
    records = iter(trace)
    while pending:
        record = next(records, None)
        if stopped(record):
            labels = canonicalize(raw.tolist())
            while stopped(record):
                out[pending.pop()] = labels
        if record is not None:
            raw[raw == record[1]] = record[0]
    return out


def cut(trace: MergeTrace, sigma: float) -> tuple[int, ...]:
    """Labels after the merges of `trace` that sigma accepts: the records
    before the first one that sigma stops."""
    return cuts(trace, [sigma])[0]


def _greedy_merges(score: np.ndarray, rescore):
    """Yield merge records (a, b, score), best pair first, until one cluster
    is left.  `score` is the symmetric matrix of pair scores, -inf on the
    diagonal and for retired clusters; np.argmax takes the first maximum in
    row-major order, so ties break on the lowest pair (a, b), a < b.  When b
    merges into a, `rescore(a, b, others)` scores a against the other active
    clusters before b's row is retired."""
    n = score.shape[0]
    alive = np.ones(n, dtype=bool)
    for _ in range(n - 1):
        a, b = divmod(int(np.argmax(score)), n)
        yield a, b, float(score[a, b])
        alive[b] = False
        others = np.flatnonzero(alive)
        others = others[others != a]
        new = rescore(a, b, others)
        score[b, :] = score[:, b] = -np.inf
        score[a, others] = score[others, a] = new


def _pair_matrix(n: int, pair) -> np.ndarray:
    """Symmetric (n x n) matrix of the scores pair(i, j) of index arrays
    i < j, -inf on the diagonal.  The upper triangle is scored and mirrored:
    scoring the lower one in its own order would round differently and break
    the tie-break.  Pairs are scored in blocks, which bounds the (pairs x D)
    temporaries; `_pooled_loglik` reduces each row on its own, so the blocks
    change no bit."""
    score = np.full((n, n), -np.inf)
    i, j = np.triu_indices(n, k=1)
    for lo in range(0, i.size, _PAIR_BLOCK):
        bi, bj = i[lo:lo + _PAIR_BLOCK], j[lo:lo + _PAIR_BLOCK]
        score[bi, bj] = score[bj, bi] = pair(bi, bj)
    return score


def _book_trace(emb: EmbeddingBatch, plda: DiagPlda, scale: float) -> MergeTrace:
    a_bar, b_bar, g = segment_stats(emb, plda, scale)

    def rescore(a, b, others):
        # gains of untouched pairs stay exact because stats merge additively
        a_bar[a] += a_bar[b]
        b_bar[a] += b_bar[b]
        g[a] = _pooled_loglik(a_bar[a], b_bar[a])
        return merge_delta(a_bar, b_bar, g, a, others)

    gains = _pair_matrix(len(g), lambda i, j: merge_delta(a_bar, b_bar, g, i, j))
    return MergeTrace(len(g), _greedy_merges(gains, rescore))


def ahc_by_the_book(emb: EmbeddingBatch, plda: DiagPlda,
                    cfg: AhcConfig) -> tuple[int, ...]:
    """Greedy maximum-likelihood AHC.

    Starts from singletons; each iteration merges the pair with the largest
    likelihood gain, provided it exceeds cfg.sigma.  Ties break on the lowest
    pair of cluster ids (ids are the smallest member segment index).
    """
    return cut(_book_trace(emb, plda, cfg.likelihood_scale), cfg.sigma)


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


def _baseline_trace(emb: EmbeddingBatch, plda: DiagPlda) -> MergeTrace:
    a_bar, b_bar, g = segment_stats(emb, plda, 1.0, prec=PLUGIN_PREC_FACTOR * plda.w)
    # grouped as pairwise_llr groups it
    sim = _pair_matrix(len(g), lambda i, j: _pooled_loglik(a_bar[i] + a_bar[j],
                                                          b_bar[i] + b_bar[j]) - (g[i] + g[j]))
    try:
        calibration = unsupervised_calibration(sim[np.triu_indices(len(g), k=1)])
    except CalibrationError:
        # too few or degenerate scores to fit the mixture: fall back to the
        # natural zero decision boundary of a log-likelihood ratio
        calibration = 0.0

    def rescore(a, b, others):
        return 0.5 * (sim[a, others] + sim[b, others])

    return MergeTrace(len(g), _greedy_merges(sim, rescore), calibration)


def ahc_baseline(emb: EmbeddingBatch, plda: DiagPlda,
                 cfg: AhcConfig) -> tuple[int, ...]:
    """Weighted average-linkage (WPGMA) AHC over plug-in pairwise LLR scores.

    The similarity row of a merged cluster is the arithmetic mean of its two
    parents' rows, whatever their sizes.  Merging stops when the best
    similarity falls below the unsupervised-calibration threshold plus the
    cfg.sigma offset.
    """
    return cut(_baseline_trace(emb, plda), cfg.sigma)


def merge_trace(emb: EmbeddingBatch, plda: DiagPlda, cfg: AhcConfig) -> MergeTrace:
    """The sigma-free merge trace of cfg.mode: `cut(trace, s)` equals `ahc`
    with sigma s, for any s (a single segment gives an empty trace)."""
    if cfg.mode == "baseline":
        return _baseline_trace(emb, plda)
    return _book_trace(emb, plda, cfg.likelihood_scale)


def ahc(emb: EmbeddingBatch, plda: DiagPlda, cfg: AhcConfig) -> tuple[int, ...]:
    """Dispatch on cfg.mode."""
    if cfg.mode == "baseline":
        return ahc_baseline(emb, plda, cfg)
    return ahc_by_the_book(emb, plda, cfg)
