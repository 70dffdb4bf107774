"""Shared fixtures: small partition tables and corpora are expensive enough
to build once per session."""

import numpy as np
import pytest

import probdiar as pd
from probdiar.partitions import CrpParams, build_tables


@pytest.fixture(scope="session")
def tables_by_n():
    """Partition tables for n = 2..6 under a fixed Pitman-Yor prior."""
    return {n: build_tables(n, CrpParams(1.0, 0.1)) for n in range(2, 7)}


@pytest.fixture(scope="session")
def small_corpus():
    """A small synthetic corpus shared by training and clustering tests."""
    return pd.generate_corpus(pd.SyntheticConfig(
        n_recordings=6, segments_per_recording=12, seed=11))


@pytest.fixture()
def skewed_gradients(monkeypatch):
    """Analytic gradients 1% too large, as a wrong backward pass gives them;
    the loss is unchanged."""
    from probdiar import training

    exact = training._forward_backward

    def skewed(*args):
        loss, grads = exact(*args)
        return loss, None if grads is None else {k: 1.01 * g for k, g in grads.items()}

    monkeypatch.setattr(training, "_forward_backward", skewed)


@pytest.fixture()
def rng():
    return np.random.default_rng(12345)


def brute_force_log_posterior(embeddings, plda, tables):
    """Independent oracle: score every partition by looping over its clusters
    with the raw per-dimension formula of `pooled_oracle`, then normalize
    with the prior."""
    from scipy.special import logsumexp

    from .pooled_oracle import members_loglik

    n = len(embeddings)
    # subset likelihood cache keyed by the frozen member set
    cache = {}
    scores = []
    for labels in tables.rgs:
        total = 0.0
        for k in set(labels):
            members = frozenset(t for t in range(n) if labels[t] == k)
            if members not in cache:
                cache[members] = members_loglik(
                    [embeddings[t] for t in sorted(members)], plda.w)
            total += cache[members]
        scores.append(total)
    logits = np.array(scores) + tables.log_prior
    return logits - logsumexp(logits)
