"""Self-tests of the benchmark harness.

Run from the root of a checkout:  python3 -m pytest -q perfbench
"""

import io
import json
import os
import contextlib
import threading

import numpy as np
import pytest

import run as bench
import tracing

W = bench.import_program()
F = W.F
BENCHMARK_JSON = os.path.join(bench.ROOT, "BENCHMARK.json")


@pytest.fixture
def runner_for(tmp_path):
    fixtures, paths = W.load_fixtures(bench.ROOT)
    with open(bench.DIGESTS) as fh:
        digests = json.load(fh)

    def make(workload, seed=bench.DEFAULT_SEED):
        return bench.Runner(
            W, workload, seed, fixtures, paths, str(tmp_path), digests.get(workload, {})
        )

    return make


def _flip_first_symbol(encode):
    def corrupted(*args, **kwargs):
        comp, est = encode(*args, **kwargs)
        data = np.array(comp.data)
        data[0] = (data[0] + 1) % comp.alphabet.size
        return F.FiniteWord(comp.alphabet, data), est

    return corrupted


@pytest.mark.parametrize("seed", [bench.DEFAULT_SEED, 7])
def test_clean_codec_op_passes(runner_for, seed):
    runner = runner_for("codec", seed)
    runner.run_op(0, 0)
    assert (runner.attempted, runner.failed) == (1, 0)


@pytest.mark.parametrize("seed", [bench.DEFAULT_SEED, 7])
def test_flipped_symbol_in_encoded_stream_is_a_failed_op(runner_for, monkeypatch, seed):
    # seed 7 has no pinned digest, so the round-trip check alone must catch it
    monkeypatch.setattr(F, "cond_encode", _flip_first_symbol(F.cond_encode))
    runner = runner_for("codec", seed)
    with contextlib.redirect_stderr(io.StringIO()):
        runner.run_op(0, 0)
    assert (runner.attempted, runner.failed) == (1, 1)


def test_changed_digest_is_a_failed_op(runner_for):
    runner = runner_for("transduce")
    runner.digests = dict(runner.digests, **{"join-dependence": ["0" * 64]})
    with contextlib.redirect_stderr(io.StringIO()):
        runner.run_op(0, 1)
    assert runner.failed == 1


def test_thread_left_running_is_a_failed_op(runner_for):
    # a background thread would slow the reference loop and so shrink every scaled time
    stop = threading.Event()
    thread = threading.Thread(target=stop.wait)
    thread.start()
    try:
        runner = runner_for("scalar-runs")
        with contextlib.redirect_stderr(io.StringIO()) as err:
            runner.run_op(0, 0)
    finally:
        stop.set()
        thread.join()
    assert (runner.attempted, runner.failed) == (1, 1)
    assert "2 threads" in err.getvalue()


def test_span_self_times_sum_to_traced_op_wall_time(runner_for):
    runner = runner_for("transduce")
    tracer = tracing.Tracer("time").install()
    try:
        runner.run_op(0, 1, tracer)  # CLI experiment join-dependence
    finally:
        tracer.uninstall()
    assert runner.failed == 0
    (root,) = [i for i, s in enumerate(tracer.spans) if s[0] == "op"]
    selfs = tracer.self_times()
    layers = {s[0] for s in tracer.spans}
    assert {"cli.main", "compression.match_run", "compression.transducer_output"} <= layers
    op_wall = tracer.spans[root][4] - tracer.spans[root][3]
    assert sum(st for s, st in zip(tracer.spans, selfs) if s[2] == 1) == op_wall
    assert all(st >= 0 for st in selfs)


def test_uninstall_restores_every_binding():
    import fsindep.compression as C

    before = (F.run, C.run, F.WordSource.pop, F.cli.main)
    tracer = tracing.Tracer("time").install()
    assert C.run is not before[1] and F.run is C.run
    tracer.uninstall()
    assert (F.run, C.run, F.WordSource.pop, F.cli.main) == before


def _declared(kind):
    with open(BENCHMARK_JSON) as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


def test_traced_run_reports_exactly_the_declared_per_layer_metrics():
    metrics = tracing.Tracer("time").layer_metrics(1)
    metrics.update(tracing.Tracer("memory").memory_metrics({})[0])
    metrics.update(
        {"trace.overhead_ms": {"unit": "ms/cycle"}, "trace.overhead_pct": {"unit": "%"}}
    )
    assert {k: m["unit"] for k, m in metrics.items()} == _declared("per_layer")


def test_end_to_end_run_prints_the_declared_metrics(capsys):
    assert bench.main(["--workload", "scalar-runs", "--seconds", "0.1", "--seed", "5"]) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == len(W.SCALAR_RUNS)
    got = {k: m["unit"] for k, m in result["metrics"].items()}
    assert got == _declared("end_to_end")
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_workload_names_agree():
    with open(BENCHMARK_JSON) as fh:
        declared = tuple(w["name"] for w in json.load(fh)["workloads"])
    assert declared == bench.WORKLOAD_NAMES == tuple(W.WORKLOADS)
