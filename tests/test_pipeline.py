"""Tuning sweeps and `evaluate`: every row and every `evaluate` report equal,
to the bit, the per-recording `der` of `diarize_corpus`'s timelines at that
value, although the sweep clusters each recording once per likelihood scale
and scores each distinct labelling once."""

from dataclasses import replace

import numpy as np
import pytest

from probdiar.clustering import AhcConfig, cut, merge_trace
from probdiar.errors import DataError, DomainError, ScoringError
from probdiar.evalkit import aggregate_der, der
from probdiar.extractor import SyntheticConfig, extract_batch, generate_corpus, init_extractor
from probdiar.pipeline import diarize_corpus, evaluate, reference_timeline, sweep

SIGMA_GRID = [-20, -5, -1, 0, 1, 5, 20]
SCALE_GRID = [0.1, 0.5, 1.0, 2.0]


@pytest.fixture(scope="module")
def split(small_corpus):
    recs = small_corpus.recordings
    model, plda = init_extractor(small_corpus.full_plda, seed=0, margin=100.0)
    return recs[:3], recs[3:], model, plda


def recorded_gain(rec, model, plda):
    """A merge gain that the by-the-book engine records for this recording."""
    trace = merge_trace(extract_batch(rec.records, model), plda, AhcConfig())
    cut(trace, -np.inf)
    return trace.records[len(trace.records) // 2][2]


def scored_timelines(recs, model, plda, cfg):
    """The aggregate `der` of each recording's `diarize_corpus` timeline."""
    hyps = diarize_corpus(recs, model, plda, cfg)
    return aggregate_der(der(reference_timeline(r), hyps[r.rec_id]) for r in recs)


@pytest.mark.parametrize("mode", ["by_the_book", "baseline"])
@pytest.mark.parametrize("param", ["sigma", "scale"])
def test_rows_equal_per_value_evaluate(split, mode, param):
    dev, evl, model, plda = split
    base = AhcConfig(mode=mode)
    if param == "sigma":
        field, grid = "sigma", list(SIGMA_GRID)
        if mode == "by_the_book":
            # a sigma equal to a recorded gain must stop before that merge
            grid.append(recorded_gain(dev[0], model, plda))
    else:
        field, grid = "likelihood_scale", SCALE_GRID
        if mode == "baseline":
            # the baseline takes no scale, so a sweep of it is rejected
            with pytest.raises(DomainError, match="by_the_book mode only"):
                sweep(param, grid, dev, evl, model, plda, base)
            return
    rows, best = sweep(param, grid, dev, evl, model, plda, base)
    assert [r[0] for r in rows] == [float(v) for v in grid]
    for v, dev_der, eval_der in rows:
        cfg = replace(base, **{field: v})
        for recs, row_der in ((dev, dev_der), (evl, eval_der)):
            want = scored_timelines(recs, model, plda, cfg)
            assert evaluate(recs, model, plda, cfg) == want
            assert row_der == want.der
    assert best == min(rows, key=lambda r: r[1])[0]


def test_empty_eval_list_gives_nan(split):
    dev, _, model, plda = split
    rows, _ = sweep("sigma", [-1, 1], dev, [], model, plda, AhcConfig())
    assert all(np.isnan(r[2]) for r in rows)
    assert rows[0][1] == scored_timelines(dev, model, plda, AhcConfig(sigma=-1.0)).der


def test_unknown_parameter_rejected(split):
    """A `ProbdiarError`, and still a `ValueError` as `DomainError` is."""
    dev, evl, model, plda = split
    with pytest.raises(DomainError, match="'collar' not in"):
        sweep("collar", [0.0], dev, evl, model, plda, AhcConfig())


def test_no_values_rejected_before_any_work(split, monkeypatch):
    dev, evl, model, plda = split

    def no_extraction(*args):
        raise AssertionError("sweep extracted a recording")
    monkeypatch.setattr("probdiar.pipeline.extract_batch", no_extraction)
    with pytest.raises(DomainError, match="one or more values"):
        sweep("sigma", [], dev, evl, model, plda, AhcConfig())


@pytest.fixture(scope="module")
def same_names():
    """Two corpora that both name their recordings rec0000 and rec0001,
    concatenated, with a plug-in model."""
    a, b = (generate_corpus(SyntheticConfig(seed=seed, n_recordings=2,
                                            segments_per_recording=10))
            for seed in (1, 2))
    model, plda = init_extractor(a.full_plda, seed=0, margin=100.0)
    return a.recordings + b.recordings, model, plda


def test_repeated_recording_id_rejected_before_any_work(same_names, monkeypatch):
    recs, model, plda = same_names

    def no_extraction(*args):
        raise AssertionError("diarize_corpus extracted a recording")
    monkeypatch.setattr("probdiar.pipeline.extract_batch", no_extraction)
    with pytest.raises(DataError, match="'rec0000' is given twice"):
        diarize_corpus(recs, model, plda, AhcConfig())


def test_evaluate_rejects_repeated_recording_id(same_names):
    """Each recording's report is kept, so none is dropped from the table
    while the overall DER counts it."""
    recs, model, plda = same_names
    with pytest.raises(ScoringError, match="'rec0000' is reported twice"):
        evaluate(recs, model, plda, AhcConfig())
