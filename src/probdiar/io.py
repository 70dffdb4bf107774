"""Structured text I/O: model files, corpus files and loss history tables.

Model files are plain text with a format-version header; all floats are
written with 17 significant digits so that write/read round-trips are
bit-exact.
"""

from __future__ import annotations

from dataclasses import fields

import numpy as np

from .errors import DataError, ParseError
from .extractor import ExtractorModel, Recording, SegmentRecord
from .plda import DiagPlda

MODEL_FORMAT_VERSION = 1


def text_lines(path):
    """Yield the lines of UTF-8 text file `path`; a DataError names it if not UTF-8."""
    with open(path, encoding="utf-8") as fh:
        try:
            yield from fh
        except UnicodeDecodeError as exc:
            raise DataError(f"{path} is not UTF-8 text: {exc}") from exc


def is_field(text) -> bool:
    """Whether `text` reads back as itself from a whitespace-split line, as
    an RTTM field: a nonempty string without whitespace."""
    return isinstance(text, str) and text.split() == [text]


def _fmt_vec(v):
    return " ".join(f"{x:.17g}" for x in np.asarray(v).reshape(-1))


def _write_matrix(fh, name, m):
    m = np.atleast_2d(np.asarray(m, dtype=np.float64))
    fh.write(f"{name} {m.shape[0]} {m.shape[1]}\n")
    for row in m:
        fh.write(_fmt_vec(row) + "\n")


def save_model(path, model: ExtractorModel, plda: DiagPlda):
    """Write the extractor and diagonal PLDA to a structured text file."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"format_version {MODEL_FORMAT_VERSION}\n")
        fh.write(f"dim {model.dim}\n")
        fh.write(f"raw_dim {model.raw_dim}\n")
        fh.write(f"quality_dim {model.W1.shape[1]}\n")
        fh.write(f"hidden {model.W1.shape[0]}\n")
        fh.write("w " + _fmt_vec(plda.w) + "\n")
        for f in fields(model):
            _write_matrix(fh, f.name, getattr(model, f.name))


def _read_matrix(lines, pos, name):
    header = lines[pos].split()
    if header[0] != name:
        raise ParseError(f"expected matrix {name!r}, found {header[0]!r}", line=pos + 1)
    rows, cols = int(header[1]), int(header[2])
    m = np.array([[float(x) for x in lines[pos + 1 + r].split()] for r in range(rows)])
    if m.shape != (rows, cols):
        raise ParseError(f"matrix {name} has wrong shape", line=pos + 1)
    return m, pos + 1 + rows


def load_model(path) -> tuple[ExtractorModel, DiagPlda]:
    """Read a model file written by save_model."""
    lines = [ln.rstrip("\n") for ln in text_lines(path)]
    try:
        head = dict(ln.split(maxsplit=1) for ln in lines[:5])
        if int(head["format_version"]) != MODEL_FORMAT_VERSION:
            raise DataError(f"unsupported model format version {head['format_version']}")
        if not lines[5].startswith("w "):
            raise ParseError("expected w vector", line=6)
        w = np.array([float(x) for x in lines[5].split()[1:]])
        m, pos = {}, 6
        for f in fields(ExtractorModel):
            m[f.name], pos = _read_matrix(lines, pos, f.name)
        header = {key: int(head[key])
                  for key in ("dim", "raw_dim", "quality_dim", "hidden")}
        # every size the header states, against each array that has it
        sizes = {"dim": (w.size, m["A"].shape[0], m["W2"].shape[0], m["b2"].size),
                 "raw_dim": (m["A"].shape[1],), "quality_dim": (m["W1"].shape[1],),
                 "hidden": (m["W1"].shape[0], m["W2"].shape[1], m["b1"].size)}
        for key, found in sizes.items():
            if any(n != header[key] for n in found):
                raise ParseError(f"model file {path}: header {key} {header[key]} does "
                                 f"not match the array sizes {found}")
        if not all(np.isfinite(x).all() for x in (w, *m.values())):
            raise ParseError(f"model file {path}: every value must be finite")
        # the biases b1, b2 are vectors, written as one-row matrices
        model = ExtractorModel(**{k: x.reshape(-1) if k[0] == "b" else x
                                  for k, x in m.items()})
        return model, DiagPlda(w)
    except DataError:   # the checks above, with their own types and lines
        raise
    except (ValueError, KeyError, IndexError) as exc:   # DomainError included
        raise ParseError(f"malformed model file {path}: {exc}") from exc


# Corpus files: one segment per line, tab-separated fields in this order:
#   recording-id  segment-id  start  duration  raw-vector  quality-vector  speaker
# Recording ids are nonempty and hold no whitespace.  Vectors are
# comma-separated decimal numbers; starts are finite and >= 0, durations
# positive, and start + duration is finite.
# save_corpus writes any iterable of Recording, such as a Corpus; load_corpus
# reads "train" Recordings.

def save_corpus(path, corpus):
    with open(path, "w", encoding="utf-8") as fh:
        for rec in corpus:
            for t, sr in enumerate(rec.records):
                raw = ",".join(f"{x:.17g}" for x in sr.raw)
                qual = ",".join(f"{x:.17g}" for x in sr.quality)
                fh.write(f"{rec.rec_id}\t{rec.rec_id}_seg{t:04d}\t{rec.starts[t]:.17g}\t"
                         f"{sr.duration:.17g}\t{raw}\t{qual}\t{rec.labels[t]}\n")


def load_corpus(path) -> list[Recording]:
    """Read a corpus file into "train" Recordings ordered by id, validating
    that raw and quality dimensions are consistent across all lines."""
    by_rec: dict[str, list] = {}
    raw_dim = qual_dim = None
    for lineno, line in enumerate(text_lines(path), start=1):
        line = line.rstrip("\n")
        if not line:
            continue
        parts = line.split("\t")
        if len(parts) != 7:
            raise ParseError(f"expected 7 tab-separated fields, got {len(parts)}",
                             line=lineno)
        rec_id, _seg_id, start_s, dur_s, raw_s, qual_s, spk_s = parts
        if not is_field(rec_id):
            raise ParseError(f"recording id must be nonempty without whitespace, "
                             f"got {rec_id!r}", line=lineno)
        try:
            start, dur = float(start_s), float(dur_s)
            raw = np.array([float(x) for x in raw_s.split(",")])
            qual = np.array([float(x) for x in qual_s.split(",")])
            spk = int(spk_s)
            record = SegmentRecord(raw=raw, quality=qual, duration=dur)
        except ValueError as exc:   # DomainError included
            raise ParseError(f"malformed numeric field: {exc}", line=lineno) from exc
        if not (start >= 0 and np.isfinite(start + dur)):
            raise ParseError(f"segment start must be finite and nonnegative, and its "
                             f"end finite, got {start_s!r} + {dur_s!r}", line=lineno)
        if raw_dim is None:
            raw_dim, qual_dim = raw.size, qual.size
        elif (raw.size, qual.size) != (raw_dim, qual_dim):
            raise ParseError(
                f"inconsistent vector dims ({raw.size},{qual.size}) vs "
                f"({raw_dim},{qual_dim})", line=lineno)
        by_rec.setdefault(rec_id, []).append((start, record, spk))
    if not by_rec:
        raise DataError(f"corpus file {path} is empty")
    out = []
    for rec_id in sorted(by_rec):
        rows = sorted(by_rec[rec_id], key=lambda r: r[0])
        out.append(Recording(
            rec_id=rec_id,
            records=[r[1] for r in rows],
            labels=[r[2] for r in rows],
            starts=[r[0] for r in rows],
            split="train",
        ))
    return out


def save_history(path, history):
    """Loss history as a tab-delimited table: epoch, train CE, held-out CE."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("epoch\ttrain_ce\theldout_ce\n")
        for epoch, train_ce, heldout_ce in history:
            fh.write(f"{epoch}\t{train_ce:.17g}\t{heldout_ce:.17g}\n")
