"""Reference AHC engines for the tests: the per-pair Python loops that the
vectorized gain and similarity matrices in `probdiar.clustering` replaced,
kept verbatim.  They feed the engine's own greedy selection and differ from
it only in how pair scores are filled: each pair through the public
`merge_delta` and `pairwise_llr`, so it is slow but easy to check by eye."""

import numpy as np

from probdiar.clustering import (PLUGIN_PREC_FACTOR, MergeTrace, _greedy_merges,
                                 merge_delta, unsupervised_calibration)
from probdiar.errors import CalibrationError, DomainError
from probdiar.plda import DiagPlda, ProbEmbedding, pairwise_llr, segment_stats


def _plugin_embedding(emb: ProbEmbedding, plda: DiagPlda) -> ProbEmbedding:
    return ProbEmbedding(emb.xhat, PLUGIN_PREC_FACTOR * plda.w)


def loop_book_trace(embeddings, plda: DiagPlda, scale: float) -> MergeTrace:
    n = len(embeddings)
    if n == 0:
        raise DomainError("need at least one segment")
    stats = segment_stats(embeddings, plda, scale)
    gain = np.full((n, n), -np.inf)
    for a in range(n):
        for b in range(a + 1, n):
            gain[a, b] = gain[b, a] = merge_delta(stats[a], stats[b])

    def rescore(a, b, others):
        # gains of untouched pairs stay exact because stats merge additively
        stats[a] = stats[a] + stats[b]
        return [merge_delta(stats[a], stats[c]) for c in others]

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
