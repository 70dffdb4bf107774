"""End-to-end diarization: cluster whole recordings and score the output.

Compares three systems on a held-out synthetic corpus:
  * the pairwise WPGMA baseline with unsupervised calibration,
  * untrained by-the-book clustering (plug-in-like initialization),
  * fully trained by-the-book clustering with learned precisions.
"""

from probdiar import AhcConfig, SyntheticConfig, TrainConfig, generate_corpus, \
    init_extractor
from probdiar.pipeline import evaluate, sweep, sweep_table
from probdiar.training import train

train_corpus = generate_corpus(SyntheticConfig(seed=0))
dev = generate_corpus(SyntheticConfig(seed=1000, n_recordings=12))
test = generate_corpus(SyntheticConfig(seed=2000, n_recordings=12))

print("training the full system (~10 s)...")
full = train(TrainConfig(seed=0), train_corpus)
untrained, untrained_plda = init_extractor(train_corpus.full_plda, seed=0,
                                           margin=100.0, quality_dim=2)

# --- DER comparison at the default operating point -----------------------

rows = [
    ("baseline (WPGMA)", untrained, untrained_plda, AhcConfig(mode="baseline")),
    ("untrained book", untrained, untrained_plda, AhcConfig()),
    ("trained book", full.model, full.plda, AhcConfig()),
]
print("\nsystem             test DER")
for name, model, plda, cfg in rows:
    report = evaluate(test.recordings, model, plda, cfg)
    print(f"{name:<18} {report.der:8.3f}")

# --- tuning the stopping threshold on dev --------------------------------

# The merge threshold sigma trades splits against merges.  A well-calibrated
# system should peak near sigma = 0; the untrained system needs a large
# negative offset to compensate for its overconfident likelihoods.
grid = [-20, -10, -5, -2, 0, 2, 5]
for name, model, plda in (("untrained book", untrained, untrained_plda),
                          ("trained book", full.model, full.plda)):
    rows, best = sweep("sigma", grid, dev.recordings, test.recordings,
                       model, plda, AhcConfig())
    print(f"\n{name}: best sigma on dev = {best:g}")
    print(sweep_table("sigma", rows))
