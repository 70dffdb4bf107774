"""Self-tests of the benchmark: reduced-size runs report every metric of
BENCHMARK.json with its unit, perturbed outputs are reported as failures,
and the tracer leaves probdiar as it found it.

    python3 -m pytest -q perfbench/test_perfbench.py
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

run.import_probdiar()

import probdiar  # noqa: E402
import workloads  # noqa: E402
from spans import LAYERS, TRACED, Tracer  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def last_json(text):
    return json.loads(text.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_small_run_prints_every_metric(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--small"],
        cwd=HERE.parent, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = last_json(proc.stdout)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in spec} == \
        {k: v["unit"] for k, v in result["metrics"].items()}
    for m in spec:
        assert any(line.split()[:1] == [m["name"]] and line.split()[-1] == m["unit"]
                   for line in proc.stdout.splitlines()), m["name"]


def run_in_process(capsys, *argv):
    assert run.run(run.parse_args(list(argv))) == 0
    return last_json(capsys.readouterr().out)


def test_posterior_shifted_by_1e_6_fails(monkeypatch, capsys):
    original = probdiar.plda.clustering_log_posterior
    monkeypatch.setattr(probdiar.plda, "clustering_log_posterior",
                        lambda *a, **k: original(*a, **k) + 1e-6)
    result = run_in_process(capsys, "--workload", "posterior", "--seed", "0",
                            "--seconds", "0.5", "--small")
    assert not result["correct"] and result["failed"] > 0


def test_der_off_by_1e_9_fails(monkeypatch, capsys):
    original = probdiar.evalkit.der

    def skewed(*args, **kwargs):
        rep = original(*args, **kwargs)
        return dataclasses.replace(rep, confusion=rep.confusion + 1e-9 * rep.total_ref)

    monkeypatch.setattr(probdiar.evalkit, "der", skewed)
    result = run_in_process(capsys, "--workload", "long", "--seed", "0",
                            "--seconds", "0.5", "--small")
    assert not result["correct"] and result["failed"] > 0


def test_loss_trace_off_by_1e_11_fails_the_reference(monkeypatch):
    original = probdiar.training.train

    def skewed(*args, **kwargs):
        res = original(*args, **kwargs)
        res.history = [(e, tr * (1 + 1e-11), ho) for e, tr, ho in res.history]
        return res

    wl = workloads.Train(0)
    wl.setup()
    tally = run.Tally()
    _, first = run.measure(wl, 0.0, tally)
    assert run.check_reference(wl, first, tally) == "match" and tally.failed == 0
    monkeypatch.setattr(probdiar.training, "train", skewed)
    _, first = run.measure(wl, 0.0, tally)
    assert run.check_reference(wl, first, tally) == "mismatch" and tally.failed == 1


def test_mismatches_compares_strings_exactly_and_numbers_by_tolerance():
    want = [1.0, "ab12", [2.0, 3.0]]
    assert workloads.mismatches([1.0 + 1e-13, "ab12", [2.0, 3.0]], want, 1e-12, 0.0) == []
    assert workloads.mismatches([1.0 + 1e-11, "ab12", [2.0, 3.0]], want, 1e-12, 0.0)
    assert workloads.mismatches([1.0, "ab13", [2.0, 3.0]], want, 1e-12, 0.0)
    assert workloads.mismatches([1.0, "ab12", [2.0]], want, 1e-12, 0.0)


def test_tracer_restores_functions_and_accounts_self_time():
    originals = {q: getattr(getattr(probdiar, q.split(".")[0]), q.split(".")[1])
                 for q in TRACED}
    wl = workloads.Long(5, small=True)
    wl.setup()
    tracer = Tracer()
    tracer.install()
    try:
        assert probdiar.pipeline.ahc is probdiar.clustering.ahc is not originals["clustering.ahc"]
        tracer.run = "op0"
        root = tracer.open("bench.long")
        wl.ops[0]()
        tracer.close(root)
    finally:
        tracer.uninstall()
    for q, fn in originals.items():
        assert getattr(getattr(probdiar, q.split(".")[0]), q.split(".")[1]) is fn
    assert probdiar.pipeline.ahc is originals["clustering.ahc"]

    by_name, self_s = tracer.summary()
    assert by_name["clustering.ahc"][0] == 1 and by_name["evalkit.der"][0] == 1
    assert all(s[3] is None or s[3] < i for i, s in enumerate(tracer.spans))
    assert all(s[4] == "op0" for s in tracer.spans)
    # self times partition the root span's duration
    total = tracer.spans[root][2] - tracer.spans[root][1]
    inner = sum(self_s[layer] for layer in LAYERS) + by_name["bench.long"][4]
    assert inner == pytest.approx(total, rel=1e-9)


def test_exits_nonzero_without_sources():
    bare = HERE / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", bare)
    try:
        proc = subprocess.run(
            [sys.executable] + SPEC["command"][1:] + ["--workload", "train", "--seed", "0",
                                                      "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=60)
    finally:
        shutil.rmtree(bare)
    assert proc.returncode != 0 and proc.stdout == ""
