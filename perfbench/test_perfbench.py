"""Tests of the benchmark itself:  python3 -m pytest perfbench"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import gate  # noqa: E402
import probe  # noqa: E402
import run  # noqa: E402
from outreg import cli  # noqa: E402
from outreg.scenario import ScenarioConfig, with_overrides  # noqa: E402
from outreg.simulate import DivergenceError  # noqa: E402


def _declared():
    with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as fh:
        return json.load(fh)


def test_declared_metrics_match_benchmark_json():
    spec = _declared()
    for key, ours in (("end_to_end", run.END_TO_END), ("per_layer", run.PER_LAYER)):
        assert [(m["name"], m["unit"], m["better"]) for m in spec[key]] == list(ours)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)


def test_layer_metrics_emit_every_declared_name():
    span = {"total": 0.5, "self": 0.5, "calls": 1}
    summary = {name: span for name in (
        "kernel.run_closed_loop", "simulate.simlog", "simulate.metrics", "simulate.to_csv",
        "svgplot.trajectory", "svgplot.error", "svgplot.estimates", "svgplot.khat",
        "cli.write", "cli.cmd_sweep", *("acceptance.c%d" % i for i in range(1, 11)))}
    summary["counters"] = {"kernel.steps": 10, "kernel.records": 2,
                           "simulate.csv_bytes": 100, "svgplot.bytes": 50}
    got = {"workload": "run-steady", "wall": 2.0, "mirror": summary, "output": summary,
           "sweep_points": summary, "sweep_pool": summary, "acceptance": summary,
           "sweep_point_s": [0.1, 0.2], "sweep_diverged": 2,
           "micro": {"python_steps_per_s": 1.0, "chi_est_n2_us": 1.0,
                     "chi_est_n4_us": 1.0, "deriv_us": 1.0}}
    names = set(run.layer_metrics(got, {"growth_bytes": 1000, "records": 2}, 1.5))
    names |= {"import.numpy_s", "import.outreg_s", "scenario.load_s"}
    assert names == {name for name, _, _ in run.PER_LAYER}


def test_end_to_end_run_emits_declared_names():
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", "run-dense",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 3
    assert list(result["metrics"]) == [m["name"] for m in _declared()["end_to_end"]]
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_steps_counted_as_integrated_on_a_diverged_run():
    # the stock cold start escapes after 117 steps of the 1000 requested
    cfg = with_overrides(ScenarioConfig(), t_end=1.0)
    tracer = probe.Tracer()
    import outreg.simulate as simulate

    kernel = simulate.run_closed_loop
    tracer.wrap(simulate, "run_closed_loop", "kernel", probe._kernel_counter(tracer))
    try:
        with pytest.raises(DivergenceError) as exc:
            simulate.run(cfg)
    finally:
        simulate.run_closed_loop = kernel
    counted = tracer.take()["counters"]["kernel.steps"]
    assert counted == gate.steps_integrated(exc.value.time, cfg.h, cfg.n_steps) == 117
    assert gate.steps_integrated(None, cfg.h, cfg.n_steps) == cfg.n_steps == 1000


def test_sweep_steps_summed_from_summary(tmp_path):
    out = tmp_path / "sweep"
    rc = cli.main(["sweep", "--grid", "sigma=0.5;c2=1.5,0", "--jobs", "1",
                   "--tend", "0.2", "--out", str(out)])
    assert rc == 3  # the cold start escapes at t = 0.117 at c2 = 1.5
    lines = (out / "summary.csv").read_text().splitlines()
    steps, diverged = gate.validate_sweep(str(out), cli.parse_grid("sigma=0.5;c2=1.5,0"),
                                          1e-3, 200)
    at = [float(r.split(",")[3]) if r.split(",")[2] == "1" else None for r in lines[1:]]
    assert diverged == sum(a is not None for a in at) >= 1
    assert steps == sum(200 if a is None else round(a / 1e-3) for a in at)


def _corrupt_log(outdir):
    # a legal, round-tripping number in the u column: only metrics.json disagrees
    path = os.path.join(outdir, "log.csv")
    with open(path, "r", encoding="utf-8", newline="") as fh:
        lines = fh.read().split("\n")
    cells = lines[5].split(",")
    cells[5] = "1000"
    lines[5] = ",".join(cells)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("\n".join(lines))


@pytest.mark.parametrize("damage", ["none", "log", "missing-svg", "bad-svg"])
def test_gate_counts_corrupted_artifact_as_failure(tmp_path, monkeypatch, damage):
    good = tmp_path / "good"
    assert cli.main(["run", "--scenario", os.path.join(ROOT, run.STEADY_SCN),
                     "--tend", "0.2", "--out", str(good)]) == 0
    monkeypatch.setattr(run, "STEADY_TEND", "0.2")
    bench = run.Bench("run-steady", 0, str(tmp_path))
    real_spawn = bench.spawn

    def fake_spawn(args, interpreter_flags=()):
        if args[0] == run.PROBE:  # the artifact validation child runs for real
            return real_spawn(args, interpreter_flags)
        out = os.path.join(run.ROOT, args[args.index("--out") + 1])
        shutil.copytree(good, out)
        if damage == "log":
            _corrupt_log(out)
        elif damage == "missing-svg":
            os.remove(os.path.join(out, "plot_error.svg"))
        elif damage == "bad-svg":
            with open(os.path.join(out, "plot_error.svg"), "a", encoding="utf-8") as fh:
                fh.write("<unclosed>")
        return run.Invocation(0, 1.0, 1024, "", "")

    monkeypatch.setattr(bench, "spawn", fake_spawn)
    _, passed = bench.invoke()
    assert bench.attempted == 1
    if damage == "none":
        assert passed and bench.failures == [] and bench.ref["steps"] == 200
    else:
        assert not passed and len(bench.failures) == 1, bench.failures


def test_gate_counts_changed_bytes_between_repetitions_as_failure(tmp_path, monkeypatch):
    good = tmp_path / "good"
    assert cli.main(["run", "--scenario", os.path.join(ROOT, run.STEADY_SCN),
                     "--tend", "0.2", "--out", str(good)]) == 0
    monkeypatch.setattr(run, "STEADY_TEND", "0.2")
    bench = run.Bench("run-steady", 0, str(tmp_path))
    real_spawn = bench.spawn
    calls = []

    def fake_spawn(args, interpreter_flags=()):
        if args[0] == run.PROBE:
            return real_spawn(args, interpreter_flags)
        out = os.path.join(run.ROOT, args[args.index("--out") + 1])
        shutil.copytree(good, out)
        calls.append(out)
        if len(calls) == 2:
            _corrupt_log(out)
        return run.Invocation(0, 1.0, 1024, "", "")

    monkeypatch.setattr(bench, "spawn", fake_spawn)
    bench.invoke()
    bench.invoke()
    assert bench.attempted == 2 and len(bench.failures) == 1
    assert "differ from the first repetition" in bench.failures[0]


def test_check_output_gate():
    ok = "".join("[%2d/10] PASS  crit-%d %18s (%5.2f s)  fine\n" % (i, i, "", 0.1 * i)
                 for i in range(1, 11)) + "10/10 criteria passed\n"
    assert len(gate.parse_check(ok, 0)) == 10
    assert gate.check_output_hash(ok) == gate.check_output_hash(ok.replace("0.10 s", "9.99 s"))
    for bad, rc in ((ok, 1), (ok.replace("[ 3/10]", "[ 4/10]"), 0),
                    ("\n".join(ok.splitlines()[1:]), 0)):
        with pytest.raises(gate.GateError):
            gate.parse_check(bad, rc)
    with pytest.raises(gate.GateError):
        gate.check_exit(0, (0,), "Traceback (most recent call last):\n  boom\nValueError: x\n")
    with pytest.raises(gate.GateError):
        gate.check_exit(2, (0, 3), "")


def test_tail_percentile_needs_ten_samples_beyond():
    assert run.tail_percentile(list(range(20))) is None
    p, v = run.tail_percentile(list(range(100)))
    assert p == 90.0 and v == 89
