"""In-memory span tracing of probdiar's public functions, installed from
outside the package.

`Tracer.install` replaces each function named in `TRACED` by a wrapper in
every loaded `probdiar` module that holds a reference to it (so calls made
through `from .clustering import ahc` are traced too); `uninstall` puts the
originals back.  A span is (name, start, end, parent, run, value, error):
`parent` is the index of the enclosing span, `run` the id of the benchmark
operation it belongs to, `value` a per-call quantity some layer metrics need
(merges made, reference seconds scored, partitions built) and `error` whether
the call raised.
"""

from __future__ import annotations

import functools
import json
import sys
import time

# module.function of every traced call; the module name is the layer
TRACED = (
    "partitions.fit_crp", "partitions.build_tables",
    "plda.joint_diagonalize", "plda.clustering_log_posterior",
    "plda.subset_logliks", "plda.pairwise_llr",
    "extractor.generate_corpus", "extractor.init_extractor", "extractor.extract",
    "training.fit_corpus_crp", "training.sample_octets", "training.cross_entropy",
    "training.train",
    "clustering.ahc", "clustering.ahc_by_the_book", "clustering.ahc_baseline",
    "clustering.merge_delta", "clustering.unsupervised_calibration",
    "evalkit.der", "evalkit.aggregate_der",
    "pipeline.reference_timeline", "pipeline.diarize_recording",
    "pipeline.diarize_corpus", "pipeline.evaluate", "pipeline.sweep",
)
LAYERS = ("partitions", "plda", "extractor", "training", "clustering", "evalkit",
          "pipeline")


def _is_train_stream(recordings, *_args, **_kw):
    """1 for a sampler over training recordings, 0 for the held-out one."""
    recs = getattr(recordings, "recordings", recordings)
    return float(all(getattr(r, "split", "train") == "train" for r in recs))


# per-call value recorded on a span: f(result, *args, **kwargs)
VALUES = {
    "partitions.build_tables": lambda res, *a, **k: float(res.n_partitions),
    "clustering.ahc_by_the_book": lambda res, emb, *a, **k: float(len(emb) - max(res)),
    "evalkit.der": lambda res, *a, **k: float(res.total_ref),
    "plda.clustering_log_posterior": lambda res, emb, *a, **k: float(2 ** len(emb) - 1),
}
# generator spans take their value from the call that created the generator
GENERATOR_VALUES = {"training.sample_octets": _is_train_stream}

FIELDS = ("name", "start", "end", "parent", "run", "value", "error")


class Tracer:
    """Collects spans; one instance per traced benchmark run."""

    def __init__(self):
        self.spans = []        # rows in FIELDS order
        self.child_time = []   # summed duration of each span's direct children
        self.run = None
        self._stack = []
        self._patched = []     # (module, attribute, original)

    # -- recording ---------------------------------------------------------
    def open(self, name):
        parent = self._stack[-1] if self._stack else None
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, parent, self.run, 0.0, False])
        self.child_time.append(0.0)
        self._stack.append(idx)
        return idx

    def close(self, idx, value=0.0, error=False):
        end = time.perf_counter()
        span = self.spans[idx]
        span[2], span[5], span[6] = end, value, error
        self._stack.pop()
        if span[3] is not None:
            self.child_time[span[3]] += end - span[1]

    def _wrap(self, name, fn):
        value_of = VALUES.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self.open(name)
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                self.close(idx, error=True)
                raise
            self.close(idx, value_of(out, *args, **kwargs) if value_of else 0.0)
            return out
        return traced

    def _wrap_generator(self, name, fn):
        value_of = GENERATOR_VALUES[name]

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            value = value_of(*args, **kwargs)
            gen = fn(*args, **kwargs)
            while True:
                idx = self.open(name)
                try:
                    item = next(gen)
                except StopIteration:
                    self.close(idx)
                    return
                except BaseException:
                    self.close(idx, error=True)
                    raise
                self.close(idx, value)
                yield item
        return traced

    # -- installation ------------------------------------------------------
    def install(self):
        if self._patched:
            raise RuntimeError("tracer already installed")
        modules = [m for k, m in sys.modules.items()
                   if m is not None and (k == "probdiar" or k.startswith("probdiar."))]
        for qual in TRACED:
            layer, fname = qual.split(".")
            original = getattr(sys.modules[f"probdiar.{layer}"], fname)
            wrap = self._wrap_generator if qual in GENERATOR_VALUES else self._wrap
            wrapper = wrap(qual, original)
            for mod in modules:
                for attr, obj in list(vars(mod).items()):
                    if obj is original:
                        setattr(mod, attr, wrapper)
                        self._patched.append((mod, attr, original))

    def uninstall(self):
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched = []

    # -- output ------------------------------------------------------------
    def write(self, path, header):
        """Header line, then one JSON array per span in FIELDS order."""
        with open(path, "w") as fh:
            fh.write(json.dumps(dict(header, fields=FIELDS)) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")

    def summary(self):
        """Per span name: [calls, seconds, summed value, errors, self seconds],
        and per layer: self seconds.  Self time is a span's duration minus
        the time of its direct children."""
        by_name = {}
        self_s = dict.fromkeys(LAYERS, 0.0)
        for span, child in zip(self.spans, self.child_time):
            name, start, end, _, _, value, error = span
            if end is None:
                continue
            own = (end - start) - child
            rec = by_name.setdefault(name, [0, 0.0, 0.0, 0, 0.0])
            rec[0] += 1
            rec[1] += end - start
            rec[2] += value
            rec[3] += error
            rec[4] += own
            layer = name.split(".")[0]
            if layer in self_s:
                self_s[layer] += own
        return by_name, self_s
