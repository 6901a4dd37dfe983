"""Smoke test of the benchmark at tiny sizes:  python3 -m pytest bench/test_bench.py -q"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import workloads

TCI = run.load_tci()
BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
LAYER_MS = ("cli.self_ms", "parser.tokenize_ms", "parser.parse_ms", "syntax.substitute_ms",
            "syntax.pretty_print_ms", "interp.self_ms", "store.ms", "failure.ms", "trace.render_ms")


def measure(tmp_path, name, traced, scale=0.1, **kw):
    return run.measure(name, 7, 0.0, traced, workdir=tmp_path, tci=TCI, scale=scale,
                       min_ops=12, spawns=1, **kw)


def test_benchmark_json_matches_metric_tables():
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_every_metric_printed_with_unit(tmp_path, capsys, name):
    tally, e2e, _ = measure(tmp_path, name, traced=False)
    _, _, layers = measure(tmp_path, name, traced=True)
    assert tally.failed == 0
    assert layers["bench.failed_share"] == 0
    run.print_metrics(name, e2e, run.END_TO_END)
    run.print_metrics(name, layers, run.PER_LAYER)
    printed = {line.split()[1]: line.split()[3] for line in capsys.readouterr().out.splitlines()}
    assert printed == {**run.END_TO_END, **run.PER_LAYER}
    line = json.loads(run.result_line(tally, {m: e2e[m] for m in run.END_TO_END}, run.END_TO_END))
    assert line["correct"] and line["attempted"] == tally.attempted and line["failed"] == 0
    assert all(set(v) == {"value", "unit"} for v in line["metrics"].values())


@pytest.mark.parametrize("name", ["calls", "rollback"])
def test_wrong_expected_value_counts_as_failed(tmp_path, capsys, monkeypatch, name):
    bad = 0 if name == "calls" else 4  # rollback ops 0-3 check failure paths, op 4 checks stdout
    generate = workloads.generate

    def generate_one_wrong(*args):
        ops = generate(*args)
        ops[bad].stdout += "wrong\n"
        return ops

    monkeypatch.setattr(workloads, "generate", generate_one_wrong)
    tally, _, layers = measure(tmp_path, name, traced=True)
    assert tally.failed > 0
    assert layers["bench.failed_share"] == tally.failed / tally.attempted > 0
    assert "is wrong: stdout" in capsys.readouterr().err
    assert not json.loads(run.result_line(tally, {}, {}))["correct"]


def test_wrong_failure_paths_count_as_failed():
    op = workloads.generate("rollback", 3, 4, 0.1)[0]
    assert op.exit_code == 1 and op.leaves
    drawing = "F\n└─ usr\n   └─ nope\n"
    assert workloads.check(op, 1, drawing, "").startswith("failure paths differ")


def test_tree_leaves_reads_rendered_tree():
    drawing = "F\n├─ sys\n│  └─ test\n└─ usr\n   ├─ a\n   │  ├─ q0\n   │  └─ q1\n   └─ b\n      └─ q2"
    assert workloads.tree_leaves(drawing) == {"/F/sys/test", "/F/usr/a/q0", "/F/usr/a/q1", "/F/usr/b/q2"}


def test_workloads_load_what_they_claim(tmp_path):
    layers = {name: measure(tmp_path, name, traced=True, scale=0.4)[2] for name in workloads.WORKLOADS}
    assert layers["parse"]["syntax.substitute_calls"] == 0
    assert layers["calls"]["syntax.substitute_calls"] > 0
    for name, metrics in layers.items():
        assert (metrics["trace.bytes"] > 0) == (name == "trace")
        assert (metrics["syntax.pretty_print_calls"] > 0) == (name == "trace")
        assert all(metrics[m] >= 0 for m in LAYER_MS)
        assert sum(metrics[m] for m in LAYER_MS) == pytest.approx(metrics["bench.traced_op_ms"], rel=1e-9)
    share = {name: (m["parser.tokenize_ms"] + m["parser.parse_ms"]) / m["bench.traced_op_ms"]
             for name, m in layers.items()}
    assert max(share, key=share.get) == "parse"
    assert layers["rollback"]["store.undone_per_bind"] > layers["calls"]["store.undone_per_bind"]
    assert layers["rollback"]["failure.merges"] > 0 == layers["parse"]["failure.merges"]


def test_same_seed_same_inputs():
    for name in workloads.WORKLOADS:
        assert workloads.generate(name, 5, 8) == workloads.generate(name, 5, 8)
        assert workloads.generate(name, 5, 8) != workloads.generate(name, 6, 8)


def test_probe_restores_attributes_and_tolerates_missing_ones():
    before = {attr: getattr(TCI["interp"], attr) for _, attr in run.probe.HOT}
    store_before = dict(vars(TCI["store"].Store))
    substitute = TCI["interp"].substitute
    del TCI["interp"].substitute  # as once call frames replace per-call substitution
    try:
        with run.probe.Probe(TCI) as p:
            assert TCI["interp"].merge is not before["merge"]
        assert p.calls["substitute"] == 0
    finally:
        TCI["interp"].substitute = substitute
    assert {attr: getattr(TCI["interp"], attr) for _, attr in run.probe.HOT} == before
    assert dict(vars(TCI["store"].Store)) == store_before


def test_exits_nonzero_without_sources(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(Path(run.__file__).parent, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run([sys.executable, *BENCHMARK["command"][1:], "--workload", "calls", "--seed", "1",
                           "--seconds", "1", "--trace", "0"], cwd=tmp_path, capture_output=True, text=True,
                          timeout=60)
    assert done.returncode != 0
    assert done.stdout == ""
