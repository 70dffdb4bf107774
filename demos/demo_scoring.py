"""Scoring probabilistic embeddings against every possible clustering.

A probabilistic embedding carries a mean vector plus a diagonal precision
that says how much each dimension should be trusted.  Under the diagonalized
two-covariance PLDA, the likelihood of any cluster depends only on pooled
per-dimension statistics, so the posterior over all B_n clusterings of an
n-tuple can be computed exactly.
"""

import numpy as np

from probdiar import (CrpParams, DiagPlda, ProbEmbedding, build_tables,
                      clustering_log_posterior, pairwise_llr)

rng = np.random.default_rng(0)

plda = DiagPlda(w=np.array([4.0, 2.0, 1.0]))   # within-speaker precisions
tables = build_tables(4, CrpParams(1.0, 0.2))

# --- four segments: two speakers, two segments each ----------------------

spk_a = 2.0 * rng.normal(size=3)
spk_b = -spk_a  # well separated
xhats = [spk_a + 0.2 * rng.normal(size=3) for _ in range(2)] \
    + [spk_b + 0.2 * rng.normal(size=3) for _ in range(2)]

confident = [ProbEmbedding(x, prec=np.full(3, 50.0)) for x in xhats]
post = np.exp(clustering_log_posterior(confident, plda, tables))
print("confident embeddings -- top clusterings:")
for i in np.argsort(-post)[:3]:
    print(f"   p{tuple(tables.rgs[i].tolist())} = {post[i]:.4f}")

# --- uncertainty changes the answer --------------------------------------

# Make the two segments of speaker B unreliable: their precisions drop and
# the posterior falls back toward the prior for them.
shaky = list(confident[:2]) + [ProbEmbedding(x, prec=np.full(3, 0.05))
                               for x in xhats[2:]]
post = np.exp(clustering_log_posterior(shaky, plda, tables))
print("\nsame means, unreliable second speaker -- top clusterings:")
for i in np.argsort(-post)[:3]:
    print(f"   p{tuple(tables.rgs[i].tolist())} = {post[i]:.4f}")

# Zero precision means a segment is ignored entirely: with every precision
# at zero the posterior equals the prior, exactly.
ignored = [ProbEmbedding(x, prec=np.zeros(3)) for x in xhats]
post_log = clustering_log_posterior(ignored, plda, tables)
print("\nall precisions zero -> posterior equals prior:",
      np.array_equal(post_log, tables.log_prior))

# --- pairwise verification scores ----------------------------------------

print("\npairwise same/different-speaker log-likelihood ratios:")
print(f"   same speaker:      {pairwise_llr(confident[0], confident[1], plda):+.3f}")
print(f"   different speaker: {pairwise_llr(confident[0], confident[2], plda):+.3f}")
print(f"   vs shaky segment:  {pairwise_llr(confident[0], shaky[2], plda):+.3f}")
