"""Structured text I/O: model files, corpus files and loss history tables.

Model files are plain text with a format-version header; all floats are
written with 17 significant digits so that write/read round-trips are
bit-exact.
"""

from __future__ import annotations

import numpy as np

from .errors import DataError, ParseError, ProbdiarError
from .extractor import ExtractorModel, PrecisionNet, Recording, SegmentRecord
from .plda import DiagPlda

MODEL_FORMAT_VERSION = 1


def _fmt_vec(v):
    return " ".join(f"{x:.17g}" for x in np.asarray(v).reshape(-1))


def _write_matrix(fh, name, m):
    m = np.atleast_2d(np.asarray(m, dtype=np.float64))
    fh.write(f"{name} {m.shape[0]} {m.shape[1]}\n")
    for row in m:
        fh.write(_fmt_vec(row) + "\n")


def save_model(path, model: ExtractorModel, plda: DiagPlda):
    """Write the extractor and diagonal PLDA to a structured text file."""
    with open(path, "w") as fh:
        fh.write(f"format_version {MODEL_FORMAT_VERSION}\n")
        fh.write(f"dim {model.dim}\n")
        fh.write(f"raw_dim {model.raw_dim}\n")
        fh.write(f"quality_dim {model.net.W1.shape[1]}\n")
        fh.write(f"hidden {model.net.W1.shape[0]}\n")
        fh.write("w " + _fmt_vec(plda.w) + "\n")
        _write_matrix(fh, "A", model.A)
        _write_matrix(fh, "W1", model.net.W1)
        _write_matrix(fh, "b1", model.net.b1)
        _write_matrix(fh, "W2", model.net.W2)
        _write_matrix(fh, "b2", model.net.b2)


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
    with open(path) as fh:
        lines = [ln.rstrip("\n") for ln in fh]
    try:
        fields = dict(ln.split(maxsplit=1) for ln in lines[:5])
        if int(fields["format_version"]) != MODEL_FORMAT_VERSION:
            raise DataError(f"unsupported model format version {fields['format_version']}")
        if not lines[5].startswith("w "):
            raise ParseError("expected w vector", line=6)
        w = np.array([float(x) for x in lines[5].split()[1:]])
        a, pos = _read_matrix(lines, 6, "A")
        w1, pos = _read_matrix(lines, pos, "W1")
        b1, pos = _read_matrix(lines, pos, "b1")
        w2, pos = _read_matrix(lines, pos, "W2")
        b2, pos = _read_matrix(lines, pos, "b2")
        header = {key: int(fields[key])
                  for key in ("dim", "raw_dim", "quality_dim", "hidden")}
    except ProbdiarError:   # the checks above, with their own types and lines
        raise
    except (ValueError, KeyError, IndexError) as exc:
        raise ParseError(f"malformed model file {path}: {exc}") from exc
    # every size the header states, against each array that has it
    sizes = {"dim": (w.size, a.shape[0], w2.shape[0], b2.size),
             "raw_dim": (a.shape[1],), "quality_dim": (w1.shape[1],),
             "hidden": (w1.shape[0], w2.shape[1], b1.size)}
    for key, found in sizes.items():
        if any(n != header[key] for n in found):
            raise ParseError(f"model file {path}: header {key} {header[key]} does not "
                             f"match the array sizes {found}")
    net = PrecisionNet(W1=w1, b1=b1.reshape(-1), W2=w2, b2=b2.reshape(-1))
    return ExtractorModel(A=a, net=net), DiagPlda(w)


# Corpus files: one segment per line, tab-separated fields in this order:
#   recording-id  segment-id  start  duration  raw-vector  quality-vector  speaker
# Vectors are comma-separated decimal numbers; starts are finite and >= 0.
# save_corpus writes any iterable of Recording, such as a Corpus; load_corpus
# reads "train" Recordings.

def save_corpus(path, corpus):
    with open(path, "w") as fh:
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
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line:
                continue
            parts = line.split("\t")
            if len(parts) != 7:
                raise ParseError(f"expected 7 tab-separated fields, got {len(parts)}",
                                 line=lineno)
            rec_id, _seg_id, start_s, dur_s, raw_s, qual_s, spk_s = parts
            try:
                start, dur = float(start_s), float(dur_s)
                raw = np.array([float(x) for x in raw_s.split(",")])
                qual = np.array([float(x) for x in qual_s.split(",")])
                spk = int(spk_s)
                record = SegmentRecord(raw=raw, quality=qual, duration=dur)
            except ValueError as exc:   # DomainError included
                raise ParseError(f"malformed numeric field: {exc}", line=lineno) from exc
            if not (np.isfinite(start) and start >= 0):
                raise ParseError(f"segment start must be finite and nonnegative, "
                                 f"got {start_s!r}", line=lineno)
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
    with open(path, "w") as fh:
        fh.write("epoch\ttrain_ce\theldout_ce\n")
        for epoch, train_ce, heldout_ce in history:
            fh.write(f"{epoch}\t{train_ce:.17g}\t{heldout_ce:.17g}\n")
