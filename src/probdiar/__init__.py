"""probdiar: speaker diarization with probabilistic embeddings, exact
by-the-book PLDA cluster scoring, and discriminative joint training."""

__version__ = "0.1.0"

from .clustering import AhcConfig, ahc, ahc_baseline, ahc_by_the_book, merge_delta, \
    unsupervised_calibration
from .evalkit import DerReport, Timeline, Turn, aggregate_der, der, read_rttm, write_rttm
from .extractor import (Corpus, ExtractorModel, Recording, SegmentRecord,
                        SyntheticConfig, estimate_full_plda, extract, extract_batch,
                        generate_corpus, init_extractor)
from .partitions import (CrpParams, PartitionTables, bell_number, build_tables,
                         canonicalize, crp_log_prob, enumerate_rgs, fit_crp)
from .plda import (DiagPlda, EmbeddingBatch, FullPlda, ProbEmbedding,
                   clustering_log_posterior, joint_diagonalize, pairwise_llr,
                   segment_weight)
from .training import (OctetTrial, TrainConfig, cross_entropy, finite_difference_check,
                       gradients, sample_octets, train)
