"""Structured text I/O: models, corpora, history tables."""

import numpy as np
import pytest

import probdiar as pd
from probdiar.errors import DataError, ParseError
from probdiar.extractor import ExtractorModel, PrecisionNet
from probdiar.io import (load_corpus, load_model, save_corpus, save_history,
                         save_model)
from probdiar.plda import DiagPlda


def random_model(rng, d=5, r=6, q=3, h=4):
    net = PrecisionNet(W1=rng.normal(size=(h, q)), b1=rng.normal(size=h),
                       W2=rng.normal(size=(d, h)), b2=rng.normal(size=d))
    return ExtractorModel(A=rng.normal(size=(d, r)), net=net), \
        DiagPlda(rng.uniform(0.5, 2.0, d))


class TestModelIo:
    def test_bit_exact_roundtrip(self, tmp_path, rng):
        model, plda = random_model(rng)
        path = tmp_path / "model.txt"
        save_model(path, model, plda)
        back_model, back_plda = load_model(path)
        np.testing.assert_array_equal(back_model.A, model.A)
        np.testing.assert_array_equal(back_model.net.W1, model.net.W1)
        np.testing.assert_array_equal(back_model.net.b1, model.net.b1)
        np.testing.assert_array_equal(back_model.net.W2, model.net.W2)
        np.testing.assert_array_equal(back_model.net.b2, model.net.b2)
        np.testing.assert_array_equal(back_plda.w, plda.w)

    def test_unsupported_version(self, tmp_path, rng):
        model, plda = random_model(rng)
        path = tmp_path / "model.txt"
        save_model(path, model, plda)
        text = path.read_text().splitlines()
        text[0] = "format_version 99"
        path.write_text("\n".join(text) + "\n")
        with pytest.raises(DataError, match="format version 99") as info:
            load_model(path)
        assert type(info.value) is DataError

    def test_bad_w_line_keeps_its_line_number(self, tmp_path, rng):
        model, plda = random_model(rng)
        path = tmp_path / "model.txt"
        save_model(path, model, plda)
        lines = path.read_text().splitlines()
        lines[5] = "v 1 2 3"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ParseError, match="expected w vector") as info:
            load_model(path)
        assert info.value.line == 6

    def test_truncated_file(self, tmp_path, rng):
        model, plda = random_model(rng)
        path = tmp_path / "model.txt"
        save_model(path, model, plda)
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:8]) + "\n")
        with pytest.raises(ParseError):
            load_model(path)

    @pytest.mark.parametrize("line, text", [
        (1, "dim 99"), (2, "raw_dim 5"), (3, "quality_dim 4"), (4, "hidden 3")])
    def test_header_must_match_arrays(self, tmp_path, rng, line, text):
        model, plda = random_model(rng)
        path = tmp_path / "model.txt"
        save_model(path, model, plda)
        lines = path.read_text().splitlines()
        lines[line] = text
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ParseError, match=text.split()[0]):
            load_model(path)

    def test_short_w_vector(self, tmp_path, rng):
        model, plda = random_model(rng)
        path = tmp_path / "model.txt"
        save_model(path, model, plda)
        lines = path.read_text().splitlines()
        lines[5] = lines[5].rsplit(" ", 1)[0]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ParseError, match="dim"):
            load_model(path)


class TestCorpusIo:
    def test_roundtrip(self, tmp_path, small_corpus):
        path = tmp_path / "corpus.tsv"
        save_corpus(path, small_corpus)
        back = load_corpus(path)
        assert len(back) == len(small_corpus.recordings)
        by_id = {r.rec_id: r for r in small_corpus.recordings}
        for rec in back:
            assert isinstance(rec, pd.Recording) and rec.split == "train"
            orig = by_id[rec.rec_id]
            assert tuple(rec.labels) == orig.labels
            assert rec.starts == pytest.approx(orig.starts)
            for got, want in zip(rec.records, orig.records):
                np.testing.assert_array_equal(got.raw, want.raw)
                np.testing.assert_array_equal(got.quality, want.quality)
                assert got.duration == want.duration

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.tsv"
        path.write_text("")
        with pytest.raises(DataError):
            load_corpus(path)

    def test_wrong_field_count(self, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text("rec\tseg\t0.0\t1.0\t1,2\n")
        with pytest.raises(ParseError) as exc_info:
            load_corpus(path)
        assert exc_info.value.line == 1

    def test_inconsistent_dims(self, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text("rec\ts0\t0.0\t1.0\t1,2\t0.5\t1\n"
                        "rec\ts1\t1.0\t1.0\t1,2,3\t0.5\t1\n")
        with pytest.raises(ParseError) as exc_info:
            load_corpus(path)
        assert exc_info.value.line == 2

    def test_segments_sorted_by_onset(self, tmp_path):
        path = tmp_path / "c.tsv"
        path.write_text("rec\ts1\t2.0\t1.0\t1.0\t0.5\t2\n"
                        "rec\ts0\t0.0\t1.0\t2.0\t0.5\t1\n")
        rec = load_corpus(path)[0]
        assert rec.starts == (0.0, 2.0)
        assert rec.labels == (1, 2)


class TestHistory:
    def test_table_format(self, tmp_path):
        path = tmp_path / "history.tsv"
        save_history(path, [(0, 1.5, 2.5), (1, 1.25, 2.0)])
        lines = path.read_text().splitlines()
        assert lines[0] == "epoch\ttrain_ce\theldout_ce"
        assert lines[1].split("\t") == ["0", "1.5", "2.5"]
        assert len(lines) == 3
