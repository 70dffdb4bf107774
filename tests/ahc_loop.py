"""Reference AHC engines for the tests: the per-pair Python loops that the
vectorized gain and similarity matrices in `probdiar.clustering` replaced.
They feed the engine's own greedy selection and differ from it only in how
pair scores are filled: one pair at a time, through `merge_delta` with
scalar indices and through `pairwise_llr` on per-segment embeddings, so they
are slow but easy to check by eye."""

import numpy as np

from probdiar.clustering import (PLUGIN_PREC_FACTOR, MergeTrace, _greedy_merges,
                                 merge_delta, unsupervised_calibration)
from probdiar.errors import CalibrationError, DomainError
from probdiar.plda import (DiagPlda, EmbeddingBatch, ProbEmbedding, _pooled_loglik,
                           pairwise_llr, segment_stats)


def _plugin_embedding(emb: ProbEmbedding, plda: DiagPlda) -> ProbEmbedding:
    return ProbEmbedding(emb.xhat, PLUGIN_PREC_FACTOR * plda.w)


def loop_book_trace(embeddings, plda: DiagPlda, scale: float) -> MergeTrace:
    n = len(embeddings)
    if n == 0:
        raise DomainError("need at least one segment")
    a_bar, b_bar, g = segment_stats(EmbeddingBatch.stack(embeddings), plda, scale)
    gain = np.full((n, n), -np.inf)
    for a in range(n):
        for b in range(a + 1, n):
            gain[a, b] = gain[b, a] = merge_delta(a_bar, b_bar, g, a, b)

    def rescore(a, b, others):
        # gains of untouched pairs stay exact because stats merge additively
        a_bar[a] = a_bar[a] + a_bar[b]
        b_bar[a] = b_bar[a] + b_bar[b]
        g[a] = _pooled_loglik(a_bar[a], b_bar[a])
        return [merge_delta(a_bar, b_bar, g, a, c) for c in others]

    return MergeTrace(n, _greedy_merges(gain, rescore))


def loop_baseline_trace(embeddings, plda: DiagPlda) -> MergeTrace:
    n = len(embeddings)
    plugged = [_plugin_embedding(e, plda) for e in embeddings]
    sim = np.full((n, n), -np.inf)
    for a in range(n):
        for b in range(a + 1, n):
            sim[a, b] = sim[b, a] = pairwise_llr(plugged[a], plugged[b], plda)
    try:
        calibration = unsupervised_calibration(sim[np.triu_indices(n, k=1)])
    except CalibrationError:
        # too few or degenerate scores to fit the mixture: fall back to the
        # natural zero decision boundary of a log-likelihood ratio
        calibration = 0.0

    def rescore(a, b, others):
        return 0.5 * (sim[a, others] + sim[b, others])

    return MergeTrace(n, _greedy_merges(sim, rescore), calibration)
