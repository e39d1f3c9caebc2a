import json
import os
import subprocess
import sys

import pytest
from conftest import STEADY_SCN

from outreg.cli import main, parse_grid, GridError
from outreg.scenario import ScenarioConfig, serialize, with_overrides

RUN_FILES = ("log.csv", "metrics.json", "plot_trajectory.svg",
             "plot_error.svg", "plot_estimates.svg")


def _steady_scn(tmp_path, steady_cfg, **over):
    cfg = with_overrides(steady_cfg, **over) if over else steady_cfg
    p = tmp_path / "steady.scn"
    p.write_text(serialize(cfg))
    return str(p)


def test_run_writes_artifacts(tmp_path, steady_cfg):
    scn = _steady_scn(tmp_path, steady_cfg)
    out = str(tmp_path / "out")
    assert main(["run", "--scenario", scn, "--out", out, "--tend", "5"]) == 0
    assert sorted(os.listdir(out)) == sorted(RUN_FILES)
    rep = json.loads((tmp_path / "out" / "metrics.json").read_text())
    assert rep["diverged"] is False
    assert rep["t_final"] == 5.0
    assert rep["trailing_sup_e"] < 1e-6


def test_run_adaptive_adds_gain_plot(tmp_path, steady_cfg):
    scn = _steady_scn(tmp_path, steady_cfg)
    out = str(tmp_path / "out")
    code = main(["run", "--scenario", scn, "--out", out, "--tend", "2",
                 "--mode", "adaptive"])
    assert code == 0
    assert sorted(os.listdir(out)) == sorted(RUN_FILES + ("plot_khat.svg",))


def test_run_divergence_keeps_partial_artifacts(tmp_path, capsys):
    out = str(tmp_path / "out")
    assert main(["run", "--out", out]) == 3
    assert sorted(os.listdir(out)) == sorted(RUN_FILES)
    rep = json.loads((tmp_path / "out" / "metrics.json").read_text())
    assert rep["diverged"] is True
    assert rep["diverged_at"] == pytest.approx(0.117, abs=1e-12)
    assert "diverged at t = 0.117" in capsys.readouterr().err


def test_run_bad_config_exits_2(tmp_path, capsys):
    scn = tmp_path / "bad.scn"
    scn.write_text("model.m1 = -1, 0, 0, 0\n")
    assert main(["run", "--scenario", str(scn), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert "M1 not Hurwitz" in err
    assert not (tmp_path / "o").exists()


def test_run_infinite_tend_exits_2(tmp_path, capsys):
    out = tmp_path / "o"
    assert main(["run", "--scenario", STEADY_SCN, "--tend", "inf", "--out", str(out)]) == 2
    assert capsys.readouterr().err == "config error:\nsim.t_end: must be finite, got inf\n"
    assert not out.exists()


def test_run_zero_steps_exits_2(tmp_path, capsys):
    out = tmp_path / "o"
    assert main(["run", "--step", "10", "--tend", "1", "--out", str(out)]) == 2
    assert capsys.readouterr().err == ("config error:\nsim.t_end: 1.0 rounds to 0 "
                                       "steps of sim.h = 10.0\n")
    assert not out.exists()


def test_run_too_many_steps_exits_2(tmp_path, capsys):
    # few records (stride 1000), but 1e8 steps
    scn = tmp_path / "long.scn"
    scn.write_text("sim.stride = 1000\n")
    out = tmp_path / "o"
    assert main(["run", "--scenario", str(scn), "--tend", "1e5", "--out", str(out)]) == 2
    assert capsys.readouterr().err == ("config error:\nsim: sim.t_end = 100000.0 at "
                                       "sim.h = 0.001 is 100000000 steps, more than "
                                       "10000000\n")
    assert not out.exists()


@pytest.mark.parametrize("argv", (["run"], ["sweep", "--grid", "sigma=1"]))
def test_seed_is_check_only(argv, tmp_path, capsys):
    with pytest.raises(SystemExit) as info:
        main(argv + ["--seed", "1", "--out", str(tmp_path / "o")])
    assert info.value.code == 2
    assert "unrecognized arguments: --seed 1" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_run_missing_scenario_exits_4(tmp_path):
    assert main(["run", "--scenario", str(tmp_path / "nope.scn"),
                 "--out", str(tmp_path / "o")]) == 4


def test_run_unwritable_out_exits_4(tmp_path, steady_cfg):
    scn = _steady_scn(tmp_path, steady_cfg)
    assert main(["run", "--scenario", scn, "--tend", "1",
                 "--out", os.devnull + "/sub"]) == 4


def test_parse_grid():
    axes = parse_grid("sigma=0.1,0.5;c2=-2,0,2")
    assert axes == [("sigma", [0.1, 0.5]), ("c2", [-2.0, 0.0, 2.0])]
    axes = parse_grid("x0=1:-1,0:0")
    assert axes == [("x0", [(1.0, -1.0), (0.0, 0.0)])]
    for bad in ("", ";;", "bogus=1", "sigma=", "sigma=a", "x0=1",
                "sigma=0.5;sigma=1", "sigma"):
        with pytest.raises(GridError):
            parse_grid(bad)


def test_parse_grid_axes_are_the_numeric_scenario_fields():
    assert parse_grid("k0=1,10;epsilon=0.1;m2=1:5:13:22:26:22:13:5") == [
        ("k0", [1.0, 10.0]), ("epsilon", [0.1]),
        ("m2", [(1.0, 5.0, 13.0, 22.0, 26.0, 22.0, 13.0, 5.0)])]
    # masks, gains, the stride and the mode are no axes
    for key in ("mask1", "rho", "k", "stride", "mode"):
        with pytest.raises(GridError, match="unknown grid key %r" % key):
            parse_grid("%s=1" % key)


@pytest.mark.parametrize("spec", ["x0=1:2:3", "m1=10:18:15", "eta2_0=0:0", "sigma=1:2"])
def test_parse_grid_rejects_wrong_vector_length(spec):
    with pytest.raises(GridError, match="bad value"):
        parse_grid(spec)


@pytest.mark.parametrize("spec", ["sigma=1_0", "sigma=0.5,\u0661", "x0=1:\u0663",
                                  "k0=0.\u0665"])
def test_parse_grid_numbers_are_ascii_decimals(spec):
    # float() would read these as 10, 1, 3 and 0.5
    with pytest.raises(GridError, match="bad value"):
        parse_grid(spec)


@pytest.mark.parametrize("grid", ["k0=1,10", "epsilon=0.1,0.3",
                                  "disturbance_amp=0,0.01;disturbance_freq=7",
                                  "m1=10:18:15:6"])
def test_sweep_new_axes_run_one_row_per_point(tmp_path, grid):
    out = tmp_path / "sw"
    assert main(["sweep", "--scenario", STEADY_SCN, "--tend", "0.5", "--jobs", "1",
                 "--grid", grid, "--out", str(out)]) == 0
    lines = (out / "summary.csv").read_text().splitlines()
    axes = parse_grid(grid)
    assert lines[0].split(",")[:len(axes) + 1] == [n for n, _ in axes] + ["diverged"]
    points = 1
    for _, vals in axes:
        points *= len(vals)
    assert len(lines) == 1 + points
    # each point's value reached its run: no two rows report the same metrics
    if points > 1:
        assert len({l.split(",", len(axes))[-1] for l in lines[1:]}) == points


def test_sweep_non_finite_vector_value_is_config_error(tmp_path, capsys):
    out = str(tmp_path / "sw")
    assert main(["sweep", "--grid", "x0=1:inf", "--out", out, "--jobs", "1"]) == 2
    assert capsys.readouterr().err == ("config error:\ngrid point x0=1:inf: init.x: values "
                                       "must be finite, got (1.0, inf)\n")


def test_sweep_rows_follow_grid_order(tmp_path, steady_cfg):
    # open-loop runs stay bounded for these parameters, so the whole grid
    # completes and the summary preserves the order the axes were given in
    scn = _steady_scn(tmp_path, steady_cfg)
    out = str(tmp_path / "sw")
    code = main(["sweep", "--scenario", scn, "--mode", "open_loop",
                 "--tend", "2", "--grid", "sigma=1,0.5;c2=0,2",
                 "--out", out, "--jobs", "1"])
    assert code == 0
    lines = (tmp_path / "sw" / "summary.csv").read_text().splitlines()
    assert lines[0].startswith("sigma,c2,diverged,diverged_at,trailing_sup_e")
    heads = [tuple(l.split(",")[:2]) for l in lines[1:]]
    assert heads == [("1", "0"), ("1", "2"), ("0.5", "0"), ("0.5", "2")]
    assert all(l.split(",")[2] == "0" for l in lines[1:])


def test_sweep_parallel_matches_serial(tmp_path, steady_cfg):
    scn = _steady_scn(tmp_path, steady_cfg)
    outs = []
    for jobs, name in (("1", "a"), ("2", "b")):
        out = str(tmp_path / name)
        main(["sweep", "--scenario", scn, "--mode", "open_loop",
              "--tend", "1", "--grid", "c2=0,2", "--out", out,
              "--jobs", jobs])
        outs.append((tmp_path / name / "summary.csv").read_bytes())
    assert outs[0] == outs[1]


def test_sweep_divergent_point_exits_3(tmp_path, capsys):
    out = str(tmp_path / "sw")
    code = main(["sweep", "--grid", "sigma=0.5", "--out", out, "--jobs", "1"])
    assert code == 3
    lines = (tmp_path / "sw" / "summary.csv").read_text().splitlines()
    assert len(lines) == 2
    row = lines[1].split(",")
    assert row[1] == "1"  # diverged flag
    assert float(row[2]) == pytest.approx(0.117, abs=1e-12)
    assert row[3] == ""  # no trailing metric for a diverged run


def test_sweep_worker_config_error_arrives_whole(tmp_path, capsys):
    # a parallel sweep (two points: a one-point grid runs in-process) names
    # the bad point, its message whole, before the pool starts; a worker's
    # error crossing the pool is test_scenario_error_survives_pickling's case
    out = str(tmp_path / "sw")
    assert main(["sweep", "--grid", "sigma=nan,0.5", "--out", out, "--jobs", "2"]) == 2
    assert capsys.readouterr().err == ("config error:\ngrid point sigma=nan: plant.sigma: "
                                       "must be finite, got nan\n")
    assert not os.path.exists(out)


def test_sweep_rejects_a_bad_point_before_running_any(tmp_path, capsys, monkeypatch):
    import outreg.cli

    ran = []
    monkeypatch.setattr(outreg.cli, "run", lambda cfg: ran.append(cfg))
    out = tmp_path / "sw"
    assert main(["sweep", "--scenario", STEADY_SCN, "--grid", "t_end=20,1e9", "--jobs", "1",
                 "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        "config error:\ngrid point t_end=1000000000: sim: sim.t_end = 1000000000.0 at "
        "sim.h = 0.001 is 1000000000000 steps, more than 10000000\n")
    assert ran == []
    assert not out.exists()


def test_run_bad_steady_start_exits_2(tmp_path, capsys):
    scn = tmp_path / "far.scn"
    scn.write_text("init.v = 1e200, 1e200\ninit = steady\n")
    out = tmp_path / "o"
    assert main(["run", "--scenario", str(scn), "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith(
        "config error:\nline 2: init: derived init.eta2: values must be finite, got (nan, ")
    assert not out.exists()


@pytest.mark.parametrize("jobs", ["-1", "0"])
def test_sweep_jobs_below_one_exits_2(tmp_path, capsys, jobs):
    out = str(tmp_path / "sw")
    assert main(["sweep", "--grid", "sigma=0.5", "--out", out, "--jobs", jobs]) == 2
    assert capsys.readouterr().err == "config error:\n--jobs: must be >= 1, got %s\n" % jobs
    assert not os.path.exists(out)


def test_sweep_workers_capped_at_grid_points(tmp_path, steady_cfg, monkeypatch):
    # records the pool size and maps in-process: no real workers start
    import concurrent.futures

    sizes = []

    class RecordingPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    scn = _steady_scn(tmp_path, steady_cfg, t_end=0.05)
    for jobs, grid, want in (("64", "sigma=0.5,1", 2), ("3", "sigma=0.5,1;c2=1,2", 3)):
        out = str(tmp_path / ("sw" + jobs))
        assert main(["sweep", "--scenario", scn, "--grid", grid,
                     "--out", out, "--jobs", jobs]) == 0
        assert sizes[-1] == want
    assert len(sizes) == 2


def test_sweep_one_worker_runs_in_process(tmp_path, steady_cfg, monkeypatch):
    # a one-point grid needs one worker whatever --jobs says: no pool at all
    import concurrent.futures

    scn = _steady_scn(tmp_path, steady_cfg, t_end=0.05)
    out1 = str(tmp_path / "serial")
    assert main(["sweep", "--scenario", scn, "--grid", "sigma=0.5",
                 "--out", out1, "--jobs", "1"]) == 0

    def no_pool(*args, **kwargs):
        raise AssertionError("a one-worker sweep started a process pool")

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
    out4 = str(tmp_path / "jobs4")
    assert main(["sweep", "--scenario", scn, "--grid", "sigma=0.5",
                 "--out", out4, "--jobs", "4"]) == 0
    assert ((tmp_path / "jobs4" / "summary.csv").read_bytes()
            == (tmp_path / "serial" / "summary.csv").read_bytes())


def test_run_imports_neither_numpy_nor_process_pool(tmp_path):
    # the package imports no numpy, and only `check` and a parallel sweep
    # import the process pool; a stray module-level import shows here
    import outreg

    code = ("import sys\n"
            "from outreg.cli import main\n"
            "assert main(['run', '--scenario', %r, '--tend', '0.05', '--out', %r]) == 0\n"
            "print(sorted(m for m in ('numpy', 'concurrent.futures.process') if m in sys.modules))\n"
            % (STEADY_SCN, str(tmp_path / "run")))
    src = os.path.dirname(os.path.dirname(outreg.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"


def test_runs_with_numpy_blocked(tmp_path):
    # numpy is no runtime dependency: with a stub that refuses to import,
    # every submodule still imports and a non-Hurwitz filter is still a
    # config error, not an ImportError traceback
    import outreg

    stub = tmp_path / "stub"
    stub.mkdir()
    (stub / "numpy.py").write_text("raise ImportError('numpy is blocked')\n")
    scn = tmp_path / "bad.scn"
    scn.write_text("model.m1 = -1, 0, 0, 0\n")
    code = ("import importlib, pkgutil, sys\n"
            "import outreg\n"
            "for m in pkgutil.iter_modules(outreg.__path__):\n"
            "    importlib.import_module('outreg.' + m.name)\n"
            "from outreg.cli import main\n"
            "sys.exit(main(['run', '--scenario', %r, '--out', %r]))\n"
            % (str(scn), str(tmp_path / "o")))
    src = os.path.dirname(os.path.dirname(outreg.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(stub), src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True)
    assert out.returncode == 2, out.stderr
    assert "M1 not Hurwitz" in out.stderr


def test_run_zero_gain_denominator_exits_2(tmp_path, capsys):
    scn = tmp_path / "bad.scn"
    scn.write_text("plant.sigma = 0.5\ngains.rho = 10 + 1/0*s^4\n")
    assert main(["run", "--scenario", str(scn), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:\nline 2: gains.rho: gain expression ")
    assert "zero denominator" in err


def test_sweep_empty_grid_exits_2(tmp_path, capsys):
    assert main(["sweep", "--grid", " ; ", "--out", str(tmp_path / "o")]) == 2
    assert "no grid points" in capsys.readouterr().err


def test_plots_are_pure_functions_of_the_log(tmp_path, steady_cfg):
    scn = _steady_scn(tmp_path, steady_cfg)
    blobs = []
    for name in ("p1", "p2"):
        out = tmp_path / name
        assert main(["run", "--scenario", scn, "--out", str(out),
                     "--tend", "2"]) == 0
        blobs.append([(out / f).read_bytes() for f in sorted(RUN_FILES)])
    assert blobs[0] == blobs[1]


def test_check_reports_each_criterion(capsys):
    code = main(["check", "--seed", "0"])
    lines = capsys.readouterr().out.strip().splitlines()
    # one line per criterion plus the tally
    assert len(lines) == 11
    assert all(("PASS" in l) or ("FAIL" in l) for l in lines[:10])
    tally = lines[-1]
    assert tally.endswith("criteria passed")
    # exit reflects whether every criterion passed
    assert code == (0 if tally.startswith("10/") else 1)
