"""A seeded fuzz gate on the files the CLI reads.

Each trial mutates one to three lines of a generated corpus, model or RTTM
file and runs one command on it in process.  A trial fails when an exception
escapes `cli.run`, when the exit code is outside 0-3, or when the command
raises a RuntimeWarning (an overflow or invalid value that no check caught).
A new class of bad input is one more entry of `VALUES` or `LINE_EDITS`.
"""

import random
import re
import warnings

import pytest

from probdiar.cli import run

SEED, TRIALS = 5, 150

# what a mutated field becomes
VALUES = ("nan", "inf", "-inf", "1e308", "-1e308", "-5e-324", "1_0", "\uff11", "")


def _set_field(line, rnd):
    """The line with one of its tab-, space- or comma-separated fields
    replaced by a value of `VALUES`."""
    parts = re.split(r"([\t ,])", line)
    fields = range(0, len(parts), 2)    # the separators sit at odd indices
    parts[rnd.choice(fields)] = rnd.choice(VALUES)
    return ["".join(parts)]


# what a mutated line becomes, given the line and the trial's random stream
LINE_EDITS = {
    "field": _set_field,
    "delete": lambda line, rnd: [],
    "repeat": lambda line, rnd: [line, line],
    "cut": lambda line, rnd: [line[:rnd.randrange(len(line) + 1)]],
}


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """A small corpus, its reference RTTM, a model trained on it and the
    model's hypothesis RTTM."""
    d = tmp_path_factory.mktemp("fuzz")
    paths = {"corpus": d / "corpus.tsv", "ref": d / "ref.rttm",
             "model": d / "model.txt", "hyp": d / "hyp.rttm"}
    assert run(["simulate", "--recordings", "4", "--segments", "10", "--seed", "1",
                "--out", str(paths["corpus"]), "--rttm", str(paths["ref"])]) == 0
    assert run(["train", "--corpus", str(paths["corpus"]), "--epochs", "1",
                "--batch-size", "4", "--seed", "1", "--out", str(paths["model"])]) == 0
    assert run(["diarize", "--corpus", str(paths["corpus"]),
                "--model", str(paths["model"]), "--out", str(paths["hyp"])]) == 0
    return paths


# (the files a trial of the command may mutate, the command with a {name}
# placeholder for each file and {out} for its output)
COMMANDS = [
    (("corpus", "model"), "diarize --corpus {corpus} --model {model} --out {out}"),
    (("corpus", "model"), "diarize --corpus {corpus} --model {model} --out {out} --scale 0.5"),
    (("corpus", "model"),
     "diarize --corpus {corpus} --model {model} --out {out} --mode baseline"),
    (("corpus", "model"),
     "sweep --corpus {corpus} --model {model} --param sigma --values=-5,0,5"),
    (("corpus", "model"),
     "sweep --corpus {corpus} --model {model} --param scale --values=0.5,1,2"),
    (("corpus", "model"),
     "sweep --corpus {corpus} --model {model} --param sigma --values=-5,0,5 --mode baseline"),
    (("ref", "hyp"), "score --ref {ref} --hyp {hyp}"),
    (("ref", "hyp"), "score --ref {ref} --hyp {hyp} --collar 0.25"),
    (("corpus",), "train --corpus {corpus} --out {out} --n 4 --epochs 1 --batch-size 4 --seed 1"),
]


def _trial(rnd, files, tmp_path):
    """Run one mutated command; returns a description of its failure, or None."""
    targets, command = rnd.choice(COMMANDS)
    target = rnd.choice(targets)
    lines = files[target].read_text(encoding="utf-8").splitlines()
    edits = []
    for _ in range(rnd.randint(1, 3)):
        at, edit = rnd.randrange(len(lines)), rnd.choice(sorted(LINE_EDITS))
        lines[at:at + 1] = LINE_EDITS[edit](lines[at], rnd)
        edits.append(f"{edit} line {at + 1}")
    mutated = tmp_path / files[target].name
    mutated.write_text("\n".join(lines) + "\n", encoding="utf-8")
    paths = {name: str(mutated if name == target else path) for name, path in files.items()}
    argv = command.format(out=str(tmp_path / "out"), **paths).split()
    what = f"{command!r} with {target} mutated ({', '.join(edits)})"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            code = run(argv)
        except Exception as exc:   # any escape from run is a finding
            return f"{what}: {type(exc).__name__} escaped: {exc}"
    numeric = [str(w.message) for w in caught if issubclass(w.category, RuntimeWarning)]
    if numeric:
        return f"{what}: exit {code} after RuntimeWarning {numeric[0]!r}"
    if code not in (0, 1, 2, 3):
        return f"{what}: exit code {code!r}"
    return None


def test_mutated_inputs_fail_cleanly(files, tmp_path):
    rnd = random.Random(SEED)
    failures = [f for f in (_trial(rnd, files, tmp_path) for _ in range(TRIALS)) if f]
    assert not failures, "\n".join(failures)
