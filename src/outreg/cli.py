"""Command-line front end: run scenarios, sweep parameter grids, run checks.

    outreg run   [--scenario s.scn] [--out DIR] [--mode M] [--step H] [--tend T]
    outreg sweep --grid "sigma=0.1,0.5,1,2;c2=-2,0,2" [--scenario s.scn]
                 [--out DIR] [--jobs N]
    outreg check [--seed N]

`run` writes log.csv, metrics.json and three SVG plots (four in adaptive
mode) into --out.  `sweep` writes one summary.csv row per grid point, in grid
order; its axes are the numeric ScenarioConfig fields, a vector's components
joined by ':'.  `sweep --jobs N` runs the grid in N processes, the calling
one included (never more than there are points): it forks N - 1 children,
and process k runs the fixed stripe of points k, k + N, k + 2N, ...  `check`
executes the acceptance suite and prints one PASS/FAIL line per criterion.

Exit codes: 0 success, 2 config or grid error, 3 divergence (also: any
failed sweep point), 4 I/O error.  `check` exits 1 when criteria fail.
Runs are deterministic; check's --seed only feeds its own random draws.
check forks children for part of the criteria; acceptance._GROUPS says which.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import warnings
from itertools import product

from . import svgplot
from .scenario import (_KEYS, MODES, ScenarioConfig, ScenarioError, _fmt_floats, _number,
                       _read, _run_length_errors, load_scenario, with_overrides)
from .simulate import SimLog, integrate, metrics

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DIVERGED = 3
EXIT_IO = 4

# sweep axes in file order: each field whose _KEYS row holds a float or a
# vector of floats
_AXES = tuple(name for _, name, _, fmt, _ in _KEYS if fmt in (repr, _fmt_floats))

_SUMMARY_METRICS = ("diverged", "diverged_at", "trailing_sup_e",
                    "trailing_err_a11", "trailing_err_a21",
                    "trailing_err_a23", "max_abs_u", "settling_time")


def _load_cfg(args) -> ScenarioConfig:
    over = {"mode": args.mode} if args.mode is not None else {}
    errors = []
    # a flag's value is read and judged as a file line's is
    for flag, key, name, text in (("--step", "sim.h", "h", args.step),
                                  ("--tend", "sim.t_end", "t_end", args.tend)):
        if text is not None:
            over[name], err = _read(key, text)
            if err:
                errors.append("%s: %s" % (flag, err))
    if errors:
        raise ScenarioError(errors)
    cfg = load_scenario(args.scenario) if args.scenario else ScenarioConfig()
    if over:
        # loads has judged the file, _read each flag and argparse's choices
        # the mode: only the run length is left
        cfg = cfg.replace(**over)
        errors = _run_length_errors(cfg)
        if errors:
            raise ScenarioError(errors)
    return cfg


def _write(path: str, text: str):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)


def _write_run_outputs(outdir: str, log: SimLog, report: dict, adaptive: bool):
    # a non-finite float is written as summary.csv prints it ("nan", "inf",
    # "-inf"), so metrics.json stays strict JSON
    report = {k: _summary_cell(v) if isinstance(v, float) and not math.isfinite(v) else v
              for k, v in report.items()}
    _write(os.path.join(outdir, "log.csv"), log.to_csv())
    _write(os.path.join(outdir, "metrics.json"),
           json.dumps(report, indent=2, sort_keys=True, allow_nan=False) + "\n")
    _write(os.path.join(outdir, "plot_trajectory.svg"), svgplot.trajectory_svg(log))
    _write(os.path.join(outdir, "plot_error.svg"), svgplot.error_svg(log))
    _write(os.path.join(outdir, "plot_estimates.svg"), svgplot.estimates_svg(log))
    if adaptive:
        _write(os.path.join(outdir, "plot_khat.svg"), svgplot.khat_svg(log))


def cmd_run(args) -> int:
    cfg = _load_cfg(args)
    os.makedirs(args.out, exist_ok=True)
    log, diverged_at, _ = integrate(cfg)
    report = metrics(log, cfg, diverged_at=diverged_at)
    _write_run_outputs(args.out, log, report, cfg.mode == "adaptive")
    if diverged_at is not None:
        print("run diverged at t = %g; partial outputs written to %s"
              % (diverged_at, args.out), file=sys.stderr)
        return EXIT_DIVERGED
    return EXIT_OK


def parse_grid(spec: str):
    """'sigma=0.1,0.5;x0=1:-1,0:0' -> ordered [(name, [values])]: a cell of
    one number is a float, of several a tuple.  Syntax only: with_overrides
    judges each point's values, as loads judges a file line's."""
    axes = []
    for part in (spec or "").split(";"):
        part = part.strip()
        if not part:
            continue
        name, eq, vals = part.partition("=")
        name = name.strip()
        if not eq:
            raise ScenarioError(["grid axis %r has no values" % part])
        if name not in _AXES:
            raise ScenarioError(["unknown grid key %r (allowed: %s)" % (name, ", ".join(_AXES))])
        if name in dict(axes):
            raise ScenarioError(["duplicate grid key %r" % name])
        items = []
        for tok in vals.split(","):
            try:
                cell = tuple(map(_number, tok.strip().split(":")))
            except ValueError:
                raise ScenarioError(["%s: bad value %r" % (name, tok.strip())]) from None
            items.append(cell[0] if len(cell) == 1 else cell)
        axes.append((name, items))
    if not axes:
        raise ScenarioError(["no grid points"])
    return axes


def _grid_points(axes):
    names = [n for n, _ in axes]
    for combo in product(*(vals for _, vals in axes)):
        yield dict(zip(names, combo))


def _sweep_worker(base: ScenarioConfig, overrides: dict) -> dict:
    """metrics of base.replace(**overrides), unvalidated: every caller passes
    a valid point (cmd_sweep's pre-checked stripes and perfbench's trace
    probe's stock grid)."""
    cfg = base.replace(**overrides)
    log, diverged_at, _ = integrate(cfg)
    return metrics(log, cfg, diverged_at=diverged_at)


def _run_child(write_fd: int, inherited: list, job):
    """A forked child's whole life: close the inherited read ends, run job,
    send back one pickled (True, result) or (False, exception) through
    write_fd, and leave by os._exit, so no caller's code runs on in the
    child.  An exception that does not pickle leaves with status 1 and
    writes nothing."""
    import pickle

    code = 1
    try:
        for fd in inherited:
            os.close(fd)
        try:
            got = (True, job())
        except Exception as exc:
            got = (False, exc)
        data = pickle.dumps(got)
        with open(write_fd, "wb") as fh:
            fh.write(data)
        code = 0
    finally:
        os._exit(code)


def _fan_out(jobs: list) -> list:
    """[job() for job in jobs], in len(jobs) processes: jobs[0] runs in this
    one while forked child k runs jobs[k], and the results come back in
    order.  The package's only parallel path; call it from a process that
    has started no threads.  A child's exception is raised here; every child
    is reaped (killed first if it still runs) before this returns or
    raises."""
    import pickle
    import signal

    pids, fds = [], []  # children not yet reaped, read ends not yet closed
    try:
        for job in jobs[1:]:
            r, w = os.pipe()
            pid = os.fork()
            if pid == 0:
                _run_child(w, fds + [r], job)
            os.close(w)
            pids.append(pid)
            fds.append(r)
        results = [jobs[0]()]
        for k, (pid, r) in enumerate(zip(list(pids), fds), 1):
            with open(r, "rb", closefd=False) as fh:
                data = fh.read()
            _, status = os.waitpid(pid, 0)
            pids.remove(pid)
            if not data:
                code = os.waitstatus_to_exitcode(status)
                raise RuntimeError("child %d (pid %d) %s without a result"
                                   % (k, pid, "exited with status %d" % code if code >= 0
                                      else "was killed by " + signal.Signals(-code).name))
            ok, got = pickle.loads(data)
            if not ok:
                raise got
            results.append(got)
        return results
    finally:
        for fd in fds:
            os.close(fd)
        for pid in pids:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


def _summary_cell(v) -> str:
    if v is None:
        return ""
    if isinstance(v, bool):
        return "1" if v else "0"
    if isinstance(v, tuple):
        return ":".join("%.10g" % x for x in v)
    if isinstance(v, float):
        return "%.10g" % v
    return str(v)


def cmd_sweep(args) -> int:
    base = _load_cfg(args)
    axes = parse_grid(args.grid)
    points = list(_grid_points(axes))
    for point in points:  # reject a bad point before any point runs
        try:
            with_overrides(base, **point)
        except ScenarioError as exc:
            where = ", ".join("%s=%s" % (n, _summary_cell(v)) for n, v in point.items())
            raise ScenarioError("grid point %s: %s" % (where, v) for v in exc.violations) from None
    if args.jobs is not None and args.jobs < 1:
        raise ScenarioError(["--jobs: must be >= 1, got %d" % args.jobs])
    jobs = args.jobs or min(4, os.cpu_count() or 1)
    os.makedirs(args.out, exist_ok=True)
    # process k runs the fixed stripe points[k::n]; the stripes interleave
    # back into grid order
    n = min(jobs, len(points))
    results = [None] * len(points)
    stripes = _fan_out([lambda s=points[k::n]: [_sweep_worker(base, p) for p in s]
                        for k in range(n)])
    for k, stripe in enumerate(stripes):
        results[k::n] = stripe
    names = [n for n, _ in axes]
    lines = [",".join(names + list(_SUMMARY_METRICS))]
    for point, rep in zip(points, results):
        cells = [_summary_cell(point[n]) for n in names]
        cells += [_summary_cell(rep[k]) for k in _SUMMARY_METRICS]
        lines.append(",".join(cells))
    _write(os.path.join(args.out, "summary.csv"), "\n".join(lines) + "\n")
    if any(rep["diverged"] for rep in results):
        print("one or more sweep points diverged; see %s"
              % os.path.join(args.out, "summary.csv"), file=sys.stderr)
        return EXIT_DIVERGED
    return EXIT_OK


def cmd_check(args) -> int:
    from .acceptance import run_all

    results = run_all(seed=args.seed)
    for i, (name, passed, detail, seconds) in enumerate(results, 1):
        print("[%2d/%d] %s  %-28s (%5.2f s)  %s"
              % (i, len(results), "PASS" if passed else "FAIL", name, seconds, detail))
    n_passed = sum(bool(r[1]) for r in results)
    print("%d/%d criteria passed" % (n_passed, len(results)))
    return 0 if n_passed == len(results) else 1


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="outreg",
                                 description="Closed-loop output-regulation benchmark runner")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--scenario", help="scenario file (omit for the stock benchmark)")
        p.add_argument("--out", default="out", help="output directory (default: out)")
        p.add_argument("--mode", choices=MODES,
                       help="override the scenario's mode")
        p.add_argument("--step", help="override integration step h")
        p.add_argument("--tend", help="override simulation horizon")

    pr = sub.add_parser("run", help="integrate one scenario, write log/metrics/plots")
    common(pr)
    ps = sub.add_parser("sweep", help="run a parameter grid, write summary.csv")
    common(ps)
    ps.add_argument("--grid", required=True,
                    help="e.g. 'sigma=0.1,0.5,1,2;c2=-2,0,2'; axes are the numeric "
                         "scenario fields, vectors as a:b:...")
    ps.add_argument("--jobs", type=int,
                    help="processes, >= 1, this one included, at most one per grid "
                         "point (default: up to 4)")
    pc = sub.add_parser("check", help="run the acceptance criteria and report")
    pc.add_argument("--seed", type=int, default=0,
                    help="seed for check's random draws (runs are deterministic)")
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    with warnings.catch_warnings():
        # a scenario warning prints in its own words, without a source line
        warnings.showwarning = lambda message, *_: print("warning: %s" % message,
                                                         file=sys.stderr)
        try:
            if args.command == "run":
                return cmd_run(args)
            if args.command == "sweep":
                return cmd_sweep(args)
            return cmd_check(args)
        except ScenarioError as exc:
            print("config error:\n%s" % exc, file=sys.stderr)
            return EXIT_CONFIG
        except OSError as exc:
            print("i/o error: %s" % exc, file=sys.stderr)
            return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
