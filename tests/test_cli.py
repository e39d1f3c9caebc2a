import json
import os
import re
import subprocess
import sys
import warnings

import pytest
from conftest import STEADY_SCN

from outreg.cli import _AXES, _fan_out, _grid_points, main, parse_grid
from outreg.scenario import ScenarioError, serialize, with_overrides

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


def _kernel_calls(monkeypatch):
    """A list that gains one entry per simulate.run_closed_loop call."""
    import outreg.simulate

    calls = []
    kernel = outreg.simulate.run_closed_loop

    def counted(*args):
        calls.append(args)
        return kernel(*args)

    monkeypatch.setattr(outreg.simulate, "run_closed_loop", counted)
    return calls


def test_run_nonfinite_metric_stays_strict_json(tmp_path):
    # the state overflows on the first step, so max |u| is nan: metrics.json
    # writes it as summary.csv would, and parses without NaN or Infinity
    def reject(token):
        raise ValueError("non-standard JSON constant %s" % token)

    scn = tmp_path / "big.scn"
    scn.write_text("init.x = 1e300, 0\n")
    out = tmp_path / "o"
    assert main(["run", "--scenario", str(scn), "--tend", "0.01", "--out", str(out)]) == 3
    rep = json.loads((out / "metrics.json").read_text(), parse_constant=reject)
    assert rep["diverged"] is True
    assert rep["max_abs_u"] == "nan"


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


def test_run_scenario_not_utf8_exits_2(tmp_path, capsys):
    # a Latin-1 byte in a comment is a config error naming where it is, not
    # a traceback with check's "criteria failed" status
    scn = tmp_path / "latin1.scn"
    scn.write_bytes(b"plant.c1 = -2\nplant.c2 = 1.5  # caf\xe9\n")
    assert main(["run", "--scenario", str(scn), "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err == (
        "config error:\nline 2: not UTF-8: byte 0xe9 at offset 35\n")
    assert not (tmp_path / "o").exists()


def test_readme_lists_the_sweep_axes():
    # the README's axis list is cli._AXES, so a new _KEYS row cannot leave
    # it stale
    readme = os.path.join(os.path.dirname(__file__), "..", "README.md")
    with open(readme, encoding="utf-8") as fh:
        listed = re.search(r"named as in `ScenarioConfig`: `([^`]*)`", fh.read())
    assert listed and listed.group(1).split() == list(_AXES)


def test_readme_layout_lists_every_module():
    # the README's Layout block names each module of the package and the C
    # twin's source, and nothing else
    root = os.path.join(os.path.dirname(__file__), "..")
    with open(os.path.join(root, "README.md"), encoding="utf-8") as fh:
        block = re.search(r"\nsrc/outreg/\n((?:  \S.*\n)+)", fh.read())
    listed = sorted(line.split()[0] for line in block.group(1).splitlines())
    package = os.path.join(root, "src", "outreg")
    modules = sorted(name for name in os.listdir(package)
                     if (name.endswith(".py") and name != "__init__.py") or name == "_kernel.c")
    assert listed == modules


def test_run_infinite_tend_exits_2(tmp_path, capsys):
    out = tmp_path / "o"
    assert main(["run", "--scenario", STEADY_SCN, "--tend", "inf", "--out", str(out)]) == 2
    assert capsys.readouterr().err == "config error:\n--tend: sim.t_end: must be finite, got inf\n"
    assert not out.exists()


@pytest.mark.parametrize("command", [["run"], ["sweep", "--grid", "sigma=1"]],
                         ids=["run", "sweep"])
@pytest.mark.parametrize("text", ["1_0", "\u0661"], ids=["underscore", "arabic-indic"])
@pytest.mark.parametrize("flag, key", [("--step", "sim.h"), ("--tend", "sim.t_end")])
def test_flag_number_follows_the_grammar(tmp_path, capsys, command, text, flag, key):
    # float() reads '1_0' as 10 and an Arabic-Indic one as 1; a scenario
    # line or a grid cell refuses both, and so does a flag
    out = tmp_path / "o"
    assert main(command + [flag, text, "--out", str(out)]) == 2
    assert capsys.readouterr().err == "config error:\n%s: %s: not a number: %r\n" % (
        flag, key, text)
    assert not out.exists()


@pytest.mark.parametrize("command", [["run"], ["sweep", "--grid", "sigma=1"]],
                         ids=["run", "sweep"])
@pytest.mark.parametrize("flag, text, violation", [
    ("--step", "-1", "sim.h: must be > 0, got -1.0"),
    ("--tend", "0", "sim.t_end: must be > 0, got 0.0")], ids=["step", "tend"])
def test_flag_value_follows_the_scenario_rules(tmp_path, capsys, command, flag, text, violation):
    # a flag's value meets the rules of its key, as a file line's does, and
    # its violation names the flag
    out = tmp_path / "o"
    assert main(command + [flag, text, "--out", str(out)]) == 2
    assert capsys.readouterr().err == "config error:\n%s: %s\n" % (flag, violation)
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


@pytest.mark.parametrize("command", [["run"], ["sweep", "--grid", "sigma=1"]],
                         ids=["run", "sweep"])
def test_flag_breaks_the_record_limit(tmp_path, capsys, command):
    # the file keeps 10,001 records; --tend takes it past MAX_RECORDS
    scn = tmp_path / "dense.scn"
    scn.write_text("sim.stride = 1\nsim.t_end = 10\n")
    out = tmp_path / "o"
    assert main(command + ["--scenario", str(scn), "--tend", "1001", "--out", str(out)]) == 2
    assert capsys.readouterr().err == ("config error:\nsim: 1001000 steps at sim.stride = 1 "
                                       "keep 1001001 records, more than 1000000\n")
    assert not out.exists()


def test_flags_leave_the_file_judged_once(monkeypatch):
    # loads judges the file and _read each flag; the config they make is
    # not judged field by field again, only its run length
    from outreg import cli, scenario

    judged = []
    violation = scenario._violation
    monkeypatch.setattr(scenario, "_violation",
                        lambda row, val: judged.append(row[0]) or violation(row, val))
    args = cli.build_parser().parse_args(["run", "--scenario", STEADY_SCN, "--tend", "5",
                                          "--step", "0.002", "--mode", "adaptive"])
    cfg = cli._load_cfg(args)
    assert (cfg.t_end, cfg.h, cfg.mode) == (5.0, 0.002, "adaptive")
    # the flags, then init = steady's derived start
    assert judged == ["sim.h", "sim.t_end", "init.x", "init.eta1", "init.eta2"]


@pytest.mark.parametrize("line, err", [
    ("gains.rho = 10 + s^65",
     "gains.rho: term '+s^65' has degree above 64 in gain expression '10 + s^65'"),
    ("plant.c1 = 1" + "0" * 400, "plant.c1: must be finite, got inf"),
    ("plant.c1 = 1" + "0" * 5000, "plant.c1: must be finite, got inf"),
], ids=["degree-65", "c1=10**400", "c1=10**5000"])
def test_run_value_out_of_range_exits_2(tmp_path, capsys, line, err):
    scn = tmp_path / "bad.scn"
    scn.write_text(line + "\n")
    out = tmp_path / "o"
    assert main(["run", "--scenario", str(scn), "--out", str(out)]) == 2
    assert capsys.readouterr().err == "config error:\nline 1: %s\n" % err
    assert not out.exists()


@pytest.mark.parametrize("backend", ["", "python"], ids=["default", "python"])
def test_run_stride_above_max_steps_exits_2_on_either_backend(tmp_path, backend):
    # 10**20 fits no C long, so the compiled twin would die on it with an
    # OverflowError where the Python twin runs: validation must refuse it
    import outreg

    scn = tmp_path / "wide.scn"
    scn.write_text("sim.stride = 100000000000000000000\nsim.t_end = 0.01\n")
    out = tmp_path / "o"
    code = "import sys; from outreg.cli import main; sys.exit(main(%r))" % (
        ["run", "--scenario", str(scn), "--out", str(out)],)
    src = os.path.dirname(os.path.dirname(outreg.__file__))
    env = dict(os.environ, OUTREG_BACKEND=backend, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert run.returncode == 2, run.stderr
    assert run.stderr == ("config error:\nline 1: sim.stride: must be <= 10000000, "
                          "got 100000000000000000000\n")
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


def test_run_unwritable_out_exits_4(tmp_path, steady_cfg, monkeypatch):
    # --out is made before the run, so a bad one costs no kernel call
    scn = _steady_scn(tmp_path, steady_cfg)
    calls = _kernel_calls(monkeypatch)
    assert main(["run", "--scenario", scn, "--tend", "1",
                 "--out", os.devnull + "/sub"]) == 4
    assert calls == []


def test_sweep_onto_a_file_exits_4_before_running_any(tmp_path, capsys, monkeypatch):
    out = tmp_path / "taken"
    out.write_text("")
    calls = _kernel_calls(monkeypatch)
    assert main(["sweep", "--scenario", STEADY_SCN, "--grid", "k0=1,10", "--tend", "1",
                 "--jobs", "1", "--out", str(out)]) == 4
    assert "File exists" in capsys.readouterr().err
    assert calls == []


def test_parse_grid():
    axes = parse_grid("sigma=0.1,0.5;c2=-2,0,2")
    assert axes == [("sigma", [0.1, 0.5]), ("c2", [-2.0, 0.0, 2.0])]
    axes = parse_grid("x0=1:-1,0:0")
    assert axes == [("x0", [(1.0, -1.0), (0.0, 0.0)])]
    # a cell of one number is a float, of several a tuple, whatever the
    # axis: with_overrides judges the kind and the length
    assert parse_grid("x0=1") == [("x0", [1.0])]
    assert parse_grid("sigma=1:2") == [("sigma", [(1.0, 2.0)])]
    for bad in ("", ";;", "bogus=1", "sigma=", "sigma=a",
                "sigma=0.5;sigma=1", "sigma"):
        with pytest.raises(ScenarioError):
            parse_grid(bad)


def test_a_grid_error_is_one_config_violation(tmp_path, capsys):
    message = "unknown grid key 'bogus' (allowed: %s)" % ", ".join(_AXES)
    with pytest.raises(ScenarioError) as info:
        parse_grid("bogus=1")
    assert info.value.violations == (message,)
    assert main(["sweep", "--grid", "bogus=1", "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err == "config error:\n%s\n" % message


def test_parse_grid_axes_are_the_numeric_scenario_fields():
    assert parse_grid("k0=1,10;epsilon=0.1;m2=1:5:13:22:26:22:13:5") == [
        ("k0", [1.0, 10.0]), ("epsilon", [0.1]),
        ("m2", [(1.0, 5.0, 13.0, 22.0, 26.0, 22.0, 13.0, 5.0)])]
    # masks, gains, the stride and the mode are no axes
    for key in ("mask1", "rho", "k", "stride", "mode"):
        with pytest.raises(ScenarioError, match="unknown grid key %r" % key):
            parse_grid("%s=1" % key)


@pytest.mark.parametrize("spec", ["sigma=1_0", "sigma=0.5,\u0661", "x0=1:\u0663",
                                  "k0=0.\u0665"])
def test_parse_grid_numbers_are_ascii_decimals(spec):
    # float() would read these as 10, 1, 3 and 0.5
    with pytest.raises(ScenarioError, match="bad value"):
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
    # a parallel sweep (two points: a one-point grid forks nothing) names
    # the bad point, its message whole, before any child starts; a child's
    # error crossing the pipe is test_sweep_child_error_reaches_the_parent's
    out = str(tmp_path / "sw")
    assert main(["sweep", "--grid", "sigma=nan,0.5", "--out", out, "--jobs", "2"]) == 2
    assert capsys.readouterr().err == ("config error:\ngrid point sigma=nan: plant.sigma: "
                                       "must be finite, got nan\n")
    assert not os.path.exists(out)


def test_sweep_rejects_a_bad_point_before_running_any(tmp_path, capsys, monkeypatch):
    import outreg.cli

    ran = []
    monkeypatch.setattr(outreg.cli, "integrate", lambda cfg: ran.append(cfg))
    out = tmp_path / "sw"
    assert main(["sweep", "--scenario", STEADY_SCN, "--grid", "t_end=20,1e9", "--jobs", "1",
                 "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        "config error:\ngrid point t_end=1000000000: sim: sim.t_end = 1000000000.0 at "
        "sim.h = 0.001 is 1000000000000 steps, more than 10000000\n")
    assert ran == []
    assert not out.exists()


def test_sweep_validates_each_point_once(tmp_path, steady_cfg, monkeypatch):
    # one with_overrides per point before any runs (the scenario load judges
    # its file without validate); the workers run the points as checked
    import outreg.scenario

    scn = _steady_scn(tmp_path, steady_cfg, t_end=0.05)
    calls = []
    validate = outreg.scenario.validate
    monkeypatch.setattr(outreg.scenario, "validate",
                        lambda cfg: calls.append(cfg) or validate(cfg))
    assert main(["sweep", "--scenario", scn, "--grid", "k0=1,2,3", "--jobs", "1",
                 "--out", str(tmp_path / "sw")]) == 0
    assert [cfg.k0 for cfg in calls] == [1.0, 2.0, 3.0]


@pytest.mark.parametrize("command", [["run", "--scenario"], ["sweep", "--grid", "c1=-3",
                                                             "--jobs", "1", "--scenario"]],
                         ids=["run", "sweep"])
def test_cli_warning_prints_its_message_only(tmp_path, capsys, command):
    # no source location and no warnings.warn line; in-process callers
    # keep their own warning handling
    scn = tmp_path / "box.scn"
    scn.write_text("plant.c1 = -3\nsim.t_end = 0.01\n")
    shown = warnings.showwarning
    assert main(command + [str(scn), "--out", str(tmp_path / "o")]) == 0
    assert capsys.readouterr().err == (
        "warning: c1 = -3.0 is outside the benchmark box [-2, 2]\n")
    assert warnings.showwarning is shown


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


@pytest.fixture
def forks(monkeypatch):
    """Counts the os.fork calls that return in this process (the parent's)."""
    pids = []
    fork = os.fork

    def counting():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counting)
    return pids


@pytest.mark.parametrize("jobs, grid, want", [
    ("64", "sigma=0.5,1", 1),        # capped at the points: 2 processes
    ("3", "sigma=0.5,1;c2=1,2", 2),  # 3 processes, this one included
    ("4", "sigma=0.5", 0),           # one point runs here whatever --jobs says
    ("1", "sigma=0.5,1", 0),
], ids=["capped-at-points", "three-processes", "one-point", "jobs-1"])
def test_sweep_forks_jobs_minus_one_children(tmp_path, steady_cfg, forks, jobs, grid, want):
    scn = _steady_scn(tmp_path, steady_cfg, t_end=0.05)
    out = tmp_path / "sw"
    assert main(["sweep", "--scenario", scn, "--grid", grid,
                 "--out", str(out), "--jobs", jobs]) == 0
    assert len(forks) == want
    assert len((out / "summary.csv").read_text().splitlines()) == 1 + len(
        list(_grid_points(parse_grid(grid))))


def test_sweep_summary_bytes_do_not_depend_on_jobs(tmp_path, steady_cfg, forks):
    # by t = 2, 9 of these 12 points escape (at 0.324 to 1.528) and 3 hold;
    # every stripe layout must give the serial bytes
    scn = _steady_scn(tmp_path, steady_cfg, t_end=2.0)
    got = {}
    for jobs in ("1", "2", "3", "12"):
        out = tmp_path / ("j" + jobs)
        assert main(["sweep", "--scenario", scn, "--grid", "sigma=0.1,0.5,1,2;c2=-2,0,2",
                     "--out", str(out), "--jobs", jobs]) == 3
        got[jobs] = (out / "summary.csv").read_bytes()
    assert len(forks) == 0 + 1 + 2 + 11
    assert got["2"] == got["3"] == got["12"] == got["1"]
    diverged = [l.split(",")[2] for l in got["1"].decode().splitlines()[1:]]
    assert diverged.count("1") == 9 and diverged.count("0") == 3


def test_sweep_child_error_reaches_the_parent(forks):
    import signal

    parent = os.getpid()

    def failing(exc):
        def job():
            assert os.getpid() != parent
            raise exc
        return job

    # results come back in job order: this process's first, then child k's
    assert _fan_out([os.getpid] * 3) == [parent] + forks[-2:]

    # ScenarioError keeps its type and its violations, one per line; child
    # 2 fails while this process's job and child 1's pass
    bad = ScenarioError(["plant.sigma: first", "plant.c2: second"])
    with pytest.raises(ScenarioError) as err:
        _fan_out([os.getpid, os.getpid, failing(bad)])
    assert err.value.violations == bad.violations
    with pytest.raises(ZeroDivisionError, match="^no sweep$"):
        _fan_out([os.getpid, os.getpid, failing(ZeroDivisionError("no sweep"))])

    # an exception that cannot be pickled (its class is local) leaves with status 1
    class Local(Exception):
        pass

    with pytest.raises(RuntimeError, match=r"^child 2 \(pid \d+\) exited with "
                                           r"status 1 without a result$"):
        _fan_out([os.getpid, os.getpid, failing(Local("local"))])

    # a child that dies without writing is named with its signal
    def killed():
        os.kill(os.getpid(), signal.SIGKILL)

    with pytest.raises(RuntimeError, match=r"^child 1 \(pid \d+\) was killed by "
                                           r"SIGKILL without a result$"):
        _fan_out([os.getpid, killed])
    assert len(forks) == 2 + 2 + 2 + 2 + 1
    for pid in forks:  # every child was reaped
        with pytest.raises(ChildProcessError):
            os.waitpid(pid, os.WNOHANG)


def test_sweep_parent_error_leaves_no_child_alive(forks):
    import time

    def busy():
        time.sleep(60)  # children still busy when this process's job fails

    def fails():
        raise KeyError("parent job")

    t0 = time.monotonic()
    with pytest.raises(KeyError, match="parent job"):
        _fan_out([fails, busy, busy, busy])
    assert time.monotonic() - t0 < 30  # killed, not waited for
    assert len(forks) == 3
    for pid in forks:
        with pytest.raises(ChildProcessError):  # reaped: no longer our child
            os.waitpid(pid, os.WNOHANG)
        with pytest.raises(ProcessLookupError):  # and gone
            os.kill(pid, 0)


def test_run_all_child_error_reaches_the_caller(monkeypatch, forks):
    # criterion 4 runs in a forked child of run_all; its exception is
    # raised from run_all with its type, and no child outlives the call
    from outreg import acceptance

    def criterion_4(seed, ctx):
        raise ZeroDivisionError("criterion 4 in a child")

    def quick(seed, ctx):
        return ("quick", True, "")

    monkeypatch.setattr(acceptance, "_CRITERIA", (quick,) * 3 + (criterion_4,) + (quick,) * 6)
    with pytest.raises(ZeroDivisionError, match="^criterion 4 in a child$"):
        acceptance.run_all(seed=0)
    assert len(forks) == 2
    for pid in forks:
        with pytest.raises(ChildProcessError):
            os.waitpid(pid, os.WNOHANG)


def _new_imports(argv, rc, watched):
    """The modules of watched that main(argv), returning rc, imports in a
    fresh interpreter beyond what its start-up loaded: the last line it
    prints, after whatever main prints."""
    import outreg

    code = ("import sys\n"
            "before = set(sys.modules)\n"
            "from outreg.cli import main\n"
            "assert main(%r) == %d\n"
            "print(sorted(m for m in %r if m in set(sys.modules) - before))\n"
            % (argv, rc, watched))
    src = os.path.dirname(os.path.dirname(outreg.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    return out.stdout.strip().splitlines()[-1]


# dataclasses and the inspect it pulls in cost about 27 ms of start-up; the
# package's records are plain classes (outreg.record)
_NO_DATACLASSES = ["dataclasses", "inspect"]

# the feedback laws and the generic estimator are reference math that only
# `check` calls: `run` and `sweep` integrate in a kernel twin
_NO_REFERENCE_MATH = ["outreg.controller", "outreg.mapping"]


def test_run_imports_neither_numpy_nor_process_pool(tmp_path):
    # the package imports no numpy and no process pool: `sweep` and `check`
    # fork their own children; a stray module-level import shows here.  A compiled twin already
    # built (by this process's import) is a cache hit, which imports no
    # hashlib and none of the build's subprocess or sysconfig
    import outreg

    watched = ["numpy", "concurrent.futures.process"] + _NO_DATACLASSES + _NO_REFERENCE_MATH
    if outreg.BACKEND == "compiled":
        watched += ["hashlib", "subprocess", "sysconfig"]
    assert _new_imports(["run", "--scenario", STEADY_SCN, "--tend", "0.05",
                         "--out", str(tmp_path / "run")], 0, watched) == "[]"


def test_parallel_sweep_imports_no_process_pool(tmp_path):
    # a parallel sweep forks its own children: no concurrent.futures, no
    # multiprocessing
    assert _new_imports(["sweep", "--scenario", STEADY_SCN, "--tend", "0.05",
                         "--grid", "sigma=0.5,1", "--jobs", "2",
                         "--out", str(tmp_path / "sw")], 0,
                        ["numpy", "concurrent.futures", "multiprocessing"]
                        + _NO_DATACLASSES + _NO_REFERENCE_MATH) == "[]"


def test_check_imports_no_process_pool():
    # check forks its own two children, and its criteria import no numpy
    assert _new_imports(["check", "--seed", "0"], 1,
                        ["numpy", "concurrent.futures", "multiprocessing"]
                        + _NO_DATACLASSES) == "[]"


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
