"""Discriminative training of the extractor on synthetic octets.

The synthetic corpus draws speakers from a two-covariance model and corrupts
each segment with noise of a known, per-segment level; quality features
encode that level noisily.  Training minimizes the cross-entropy between the
exact posterior over all 4140 clusterings of random 8-segment tuples and the
true clustering, which teaches the precision net to turn quality features
into useful per-dimension precisions.
"""

import numpy as np

from probdiar import SyntheticConfig, TrainConfig, extract_batch, generate_corpus
from probdiar.training import train

corpus = generate_corpus(SyntheticConfig(seed=0))
print(f"corpus: {len(corpus.recordings)} recordings "
      f"({len(corpus.train_recordings)} train / "
      f"{len(corpus.heldout_recordings)} held out)")

# A short run is enough to see the held-out cross-entropy fall; the package
# default (300 epochs) is what the acceptance experiments use.
cfg = TrainConfig(epochs=40, seed=0)
result = train(cfg, corpus)

print("\nepoch   train CE   held-out CE")
for epoch, train_ce, heldout_ce in result.history[::8] + result.history[-1:]:
    print(f"{epoch:>5}   {train_ce:8.3f}   {heldout_ce:8.3f}")

# --- what the net learned ------------------------------------------------

# Clean segments should get high precisions, noisy segments low ones.  The
# synthetic generator records each segment's true noise precision, so we can
# compare directly.
rec = corpus.heldout_recordings[0]
precs = extract_batch(rec.records, result.model).prec.mean(axis=1)
order = np.argsort(rec.oracle_prec)
print("\nsegments of one held-out recording, sorted noisiest first:")
print("   true noise precision | mean learned embedding precision")
for i in order[::4]:
    print(f"   {rec.oracle_prec[i]:>20.3f} | {precs[i]:.3f}")
corr = np.corrcoef(np.log(rec.oracle_prec), np.log(precs))[0, 1]
print(f"\nlog-log correlation (true vs learned): {corr:.2f}")
