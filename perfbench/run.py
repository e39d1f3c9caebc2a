"""One bench command for outreg: four workloads, end to end and layer by layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from anywhere; it measures the checkout it sits in, importing
outreg from that checkout's src/ and building nothing, so it measures
whichever kernel backend the checkout provides (reported, never chosen).
Each invocation starts a fresh interpreter and calls the CLI exactly as
the `outreg` console script does.  One client sends invocations one after
another (a closed loop); only the sweep runs in parallel, with 2 workers.

Workloads, and why each is here:
  run-steady  `outreg run` on scenarios/steady_start.scn, nonadaptive,
              stride 10, --tend 5 (5k steps).  The regulated orbit: every
              step costs the same and the kernel does nearly all the work,
              so kernel changes show here and the output path does not.
  run-dense   the same start, adaptive, sim.stride = 1, t_end = 5 (5k
              steps, 10x the records per step, a fourth plot), from a
              scenario file written from steady_start.scn.  The record
              path, SimLog, metrics, CSV, SVG, file writes and memory do
              their most work here.
  sweep-grid  `outreg sweep` over sigma=0.1,0.5,1,2;c2=-2,0,2 with --jobs 2.
              The only parallel path: pool start-up, pickling, many short
              kernel calls, the slowest point setting the wall time.  Every
              point escapes, at a deterministic time.
  check       `outreg check --seed <seed>`: the generic reference math of
              the acceptance criteria, with little kernel work.  Always a
              fresh interpreter, so run_all's per-seed cache never hits.

--trace 0 reports the end-to-end metrics: setup_s (fresh interpreter to
outreg imported and the workload's scenario parsed), wall_s, steps_per_s
(RK4 steps actually integrated / wall) and peak_rss_mb (the largest
resident set of the invocation's processes, sweep workers included).  A
run is a closed loop of rounds, as many as fit in --seconds and at least
4; each round times the yardstick, one set-up probe and one invocation.
Each metric is the median over the rounds, times scaled to a nominal
machine speed by the yardstick (see YARDSTICK_S); the raw medians are
printed beside them.

--trace 1 reports the per-layer metrics: a fresh interpreter walks the
workload's own invocation with a span around every call into a module,
then measures the layers that workload does not enter on the pipeline
that owns them (output path on run-dense, pool on sweep-grid, criteria on
check) and microbenchmarks the kernel's parts.

Every invocation passes through perfbench/gate.py.  The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import collections
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
PROBE = os.path.join(HERE, "probe.py")
WORK = os.path.join(ROOT, ".perfbench_work")
sys.path.insert(0, HERE)

import gate  # noqa: E402

STEADY_SCN = "scenarios/steady_start.scn"
STOCK_SCN = "scenarios/default.scn"
STEADY_TEND = "5"
DENSE_KEYS = "mode = adaptive\nsim.stride = 1\nsim.t_end = 5\n"
GRID = "sigma=0.1,0.5,1,2;c2=-2,0,2"
JOBS = 2

# what the `outreg` console script runs
ENTRY = "import sys; from outreg.cli import main; sys.exit(main())"

# End-to-end times are scaled to a nominal machine speed.  Each round of a
# run times the yardstick (probe.py yardstick: a fixed pure-Python loop in a
# fresh interpreter, about 0.2 s on a shared 2-vCPU x86-64 sandbox), one
# set-up probe and one invocation; each time metric is multiplied by
# YARDSTICK_S / (the run's mean yardstick time).  That sandbox drifts in
# speed by up to 50% over minutes: ten runs of run-steady spread their raw
# median wall times by 0.29 (IQR / median), ten scaled runs by 0.14.
YARDSTICK_S = 0.2
SETUP_SAMPLES = 9
MIN_SAMPLES = 4
UNTRACED_SAMPLES = 3
DEADLINE_S = 170.0
WORKLOADS = ("run-steady", "run-dense", "sweep-grid", "check")
# the documented exit codes: 3 is a sweep with diverged points, 1 a check
# with failed criteria
EXIT_CODES = {"run-steady": (0,), "run-dense": (0,), "sweep-grid": (0, 3), "check": (0, 1)}

END_TO_END = (
    ("setup_s", "s", "lower"),
    ("wall_s", "s", "lower"),
    ("steps_per_s", "1/s", "higher"),
    ("peak_rss_mb", "MB", "lower"),
)
PER_LAYER = (
    ("import.numpy_s", "s", "lower"),
    ("import.outreg_s", "s", "lower"),
    ("scenario.load_s", "s", "lower"),
    ("kernel.run_closed_loop_s", "s", "lower"),
    ("kernel.steps", "count", "higher"),
    ("kernel.records", "count", "lower"),
    ("kernel.steps_per_s", "1/s", "higher"),
    ("kernel.python_steps_per_s", "1/s", "higher"),
    ("kernel.chi_est_n2_us", "us", "lower"),
    ("kernel.chi_est_n4_us", "us", "lower"),
    ("kernel.deriv_us", "us", "lower"),
    ("kernel.bytes_per_record", "B", "lower"),
    ("simulate.simlog_s", "s", "lower"),
    ("simulate.metrics_s", "s", "lower"),
    ("simulate.to_csv_s", "s", "lower"),
    ("simulate.csv_bytes", "B", "lower"),
    ("svgplot.render_s", "s", "lower"),
    ("svgplot.render.trajectory_s", "s", "lower"),
    ("svgplot.render.error_s", "s", "lower"),
    ("svgplot.render.estimates_s", "s", "lower"),
    ("svgplot.render.khat_s", "s", "lower"),
    ("svgplot.bytes", "B", "lower"),
    ("cli.write_s", "s", "lower"),
    ("cli.sweep.point_s_median", "s", "lower"),
    ("cli.sweep.point_s_max", "s", "lower"),
    ("cli.sweep.busy_share", "ratio", "higher"),
    ("cli.sweep.pool_overhead_s", "s", "lower"),
    ("cli.sweep.points_diverged", "count", "lower"),
    *(("acceptance.c%d_s" % i, "s", "lower") for i in range(1, 11)),
    ("trace.overhead_s", "s", "lower"),
    ("trace.uncovered_s", "s", "lower"),
)
UNITS = {name: unit for name, unit, _ in END_TO_END + PER_LAYER}

_clock = time.perf_counter


class BenchError(Exception):
    """The benchmark itself cannot run here; no result is printed."""


Invocation = collections.namedtuple("Invocation", "rc wall maxrss_kb stdout stderr")


class Bench:
    """One benchmark run: a workload, a seed and a scratch directory."""

    def __init__(self, workload, seed, work):
        self.workload = workload
        self.seed = seed
        self.work = work
        self.started = _clock()
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = SRC + (os.pathsep + self.env["PYTHONPATH"]
                                        if self.env.get("PYTHONPATH") else "")
        self.dense_scn = os.path.relpath(os.path.join(work, "dense.scn"), ROOT)
        with open(os.path.join(ROOT, STEADY_SCN), "r", encoding="utf-8") as fh:
            steady = fh.read()
        with open(os.path.join(ROOT, self.dense_scn), "w", encoding="utf-8") as fh:
            fh.write(steady.rstrip("\n") + "\n\n# perfbench run-dense\n" + DENSE_KEYS)
        self.attempted = 0
        self.failures = []
        self.ref = None
        self.info = {}
        self._outs = 0

    # -- processes ---------------------------------------------------------

    def remaining(self):
        return DEADLINE_S - (_clock() - self.started)

    def spawn(self, args, interpreter_flags=()):
        """Run [python, *flags, *args] in a new session; wait for it and every
        process in its group; return the Invocation."""
        timeout = self.remaining()
        if timeout <= 0:
            raise BenchError("deadline of %.0f s reached" % DEADLINE_S)
        with tempfile.TemporaryFile("w+", dir=self.work) as out, \
                tempfile.TemporaryFile("w+", dir=self.work) as err:
            t0 = _clock()
            proc = subprocess.Popen([sys.executable, *interpreter_flags, *args], cwd=ROOT,
                                    env=self.env, stdout=out, stderr=err,
                                    start_new_session=True)
            timer = threading.Timer(timeout, _kill_group, (proc.pid,))
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                # interrupted (SIGTERM, Ctrl-C): take the child's group down too
                _kill_group(proc.pid)
                proc.wait()
                _reap_group(proc.pid)
                raise
            finally:
                wall = _clock() - t0
                timer.cancel()
            proc.returncode = os.waitstatus_to_exitcode(status)
            _reap_group(proc.pid)
            out.seek(0)
            err.seek(0)
            return Invocation(proc.returncode, wall, usage.ru_maxrss, out.read(), err.read())

    def probe(self, *args, interpreter_flags=()):
        inv = self.spawn([PROBE, *args], interpreter_flags)
        if inv.rc != 0 or not inv.stdout.strip():
            raise BenchError("probe %s failed (exit %d):\n%s" % (args[0], inv.rc, inv.stderr))
        return json.loads(inv.stdout.strip().splitlines()[-1]), inv

    # -- the workload's invocation ------------------------------------------

    def outdir(self):
        self._outs += 1
        return os.path.relpath(os.path.join(self.work, "out%d" % self._outs), ROOT)

    def argv(self, workload, out):
        if workload == "run-steady":
            return ["run", "--scenario", STEADY_SCN, "--tend", STEADY_TEND, "--out", out]
        if workload == "run-dense":
            return ["run", "--scenario", self.dense_scn, "--out", out]
        if workload == "sweep-grid":
            return ["sweep", "--scenario", STEADY_SCN, "--grid", GRID,
                    "--jobs", str(JOBS), "--out", out]
        return ["check", "--seed", str(self.seed)]

    def scenario(self):
        return {"run-steady": STEADY_SCN, "run-dense": self.dense_scn,
                "sweep-grid": STEADY_SCN, "check": STOCK_SCN}[self.workload]

    def invoke(self, prefix=("-c", ENTRY)):
        """One invocation of the workload, judged by the gate.  Returns the
        Invocation and whether it passed."""
        out = self.outdir()
        inv = self.spawn([*prefix, *self.argv(self.workload, out)])
        self.attempted += 1
        try:
            self.judge(inv, out)
        except gate.GateError as exc:
            self.failures.append(str(exc))
            return inv, False
        finally:
            shutil.rmtree(os.path.join(ROOT, out), ignore_errors=True)
        return inv, True

    def judge(self, inv, out):
        """Gate one invocation.  The first that passes becomes the reference
        every later repetition must match byte for byte, and tells the steps
        one invocation integrates."""
        w = self.workload
        gate.check_exit(inv.rc, EXIT_CODES[w], inv.stderr)
        if w == "check":
            results = gate.parse_check(inv.stdout, inv.rc)
            hashes = {"stdout": gate.check_output_hash(inv.stdout)}
        else:
            hashes = gate.artifact_hashes(os.path.join(ROOT, out))
        if self.ref is None:
            self.ref = {"hashes": hashes}
            if w == "check":
                self.ref["results"] = results
            elif w == "sweep-grid":
                self.ref.update(self.validate("sweep", out, STEADY_SCN, GRID))
            else:
                steady = w == "run-steady"
                got = self.validate("run", out, STEADY_SCN if steady else self.dense_scn,
                                    *([STEADY_TEND] if steady else []))
                self.ref["steps"] = got["steps"]
                self.info["backend"] = got["backend"]
                self.info["backend_source"] = "metrics.json"
        elif hashes != self.ref["hashes"]:
            raise gate.GateError("artifacts differ from the first repetition: %s"
                                 % ", ".join(k for k in sorted(set(hashes) | set(self.ref["hashes"]))
                                             if hashes.get(k) != self.ref["hashes"].get(k)))

    def validate(self, *args):
        """Full artifact check, in a child: outreg is never imported here, so
        this process stays small (a child's peak RSS starts at its parent's)."""
        inv = self.spawn([PROBE, "validate", *args])
        lines = inv.stdout.strip().splitlines()
        if inv.rc != 0 or not lines:
            raise gate.GateError("artifact validation crashed: %s"
                                 % (inv.stderr.strip().splitlines() or ["no output"])[-1])
        got = json.loads(lines[-1])
        if "error" in got:
            raise gate.GateError(got["error"])
        return got

    # -- set-up --------------------------------------------------------------

    def setup_probe(self, interpreter_flags=()):
        """A fresh interpreter that imports outreg and parses the scenario."""
        modules = ["outreg.acceptance"] if self.workload == "check" else []
        got, inv = self.probe("setup", self.scenario(), repr(_clock()), *modules,
                              interpreter_flags=interpreter_flags)
        got["importtime"] = inv.stderr
        prov = dict(got["provenance"])
        self.info.setdefault("backend", prov.pop("backend"))
        self.info.setdefault("backend_source", "setup probe")
        self.info.update(prov)
        return got

    # -- --trace 0 -------------------------------------------------------------

    def yardstick(self):
        return self.probe("yardstick")[0]["seconds"]

    def measure(self, seconds):
        self.setup_probe()  # warms the bytecode cache
        counts = os.path.join(self.work, "counts.json")
        setup_s, walls, rss, sticks, laps = [], [], [], [], []
        t0 = _clock()
        while len(walls) < MIN_SAMPLES or (
                _clock() - t0 + statistics.median(laps) / 2 <= seconds
                and self.remaining() > 2 * statistics.median(laps)):
            lap = _clock()
            # two yardsticks a round, one more per 4 s of invocation
            for _ in range(2 + int(statistics.median(walls) // 4) if walls else 2):
                sticks.append(self.yardstick())
            setup_s.append(self.setup_probe()["done"])
            if self.workload == "check" and not walls:
                # check's step count is in no artifact: the first invocation
                # counts it with a wrapper around the kernel entry point
                # (about fifteen calls; its cost is lost in a 6 s run)
                inv, passed = self.invoke(prefix=(PROBE, "count", counts))
                if passed:
                    with open(counts, "r", encoding="utf-8") as fh:
                        self.ref["steps"] = json.load(fh)["kernel.steps"]
            else:
                inv, _ = self.invoke()
            walls.append(inv.wall)
            rss.append(inv.maxrss_kb / 1024.0)
            laps.append(_clock() - lap)
        steps = (self.ref or {}).get("steps", 0)
        samples = {"setup_s": setup_s, "wall_s": walls,
                   "steps_per_s": [steps / w for w in walls], "peak_rss_mb": rss}
        raw = {k: statistics.median(v) for k, v in samples.items()}
        # the mean, not the median: a yardstick runs fast or slow for its
        # whole life (two modes some 50% apart), and a median of a few
        # such samples jumps between the modes
        scale = YARDSTICK_S / statistics.mean(sticks)
        self.info.update(steps_per_invocation=steps, yardstick_s=statistics.mean(sticks),
                         speed_scale=scale)
        metrics = {"setup_s": raw["setup_s"] * scale, "wall_s": raw["wall_s"] * scale,
                   "steps_per_s": raw["steps_per_s"] / scale,
                   "peak_rss_mb": raw["peak_rss_mb"]}
        return metrics, samples

    # -- --trace 1 -------------------------------------------------------------

    def trace(self):
        self.setup_probe()  # warms the bytecode cache
        rows = [self.setup_probe(interpreter_flags=("-X", "importtime"))
                for _ in range(SETUP_SAMPLES)]
        numpy_s = [_importtime(row["importtime"], "numpy") for row in rows]
        metrics = {
            "import.numpy_s": statistics.median(numpy_s),
            "import.outreg_s": statistics.median(
                row["import"] - n for row, n in zip(rows, numpy_s)),
            "scenario.load_s": statistics.median(row["load"] for row in rows),
        }
        walls = []
        for _ in range(1 if self.workload == "check" else UNTRACED_SAMPLES):
            inv, _ = self.invoke()
            walls.append(inv.wall)
        if self.ref is None:
            raise BenchError("no untraced invocation passed the gate:\n%s"
                             % "\n".join(self.failures))

        outs = {w: self.outdir() for w in WORKLOADS}
        spec = {"workload": self.workload, "seed": self.seed, "grid": GRID,
                "sweep_scenario": STEADY_SCN, "steady_scenario": STEADY_SCN,
                "argv": {w: self.argv(w, outs[w]) for w in WORKLOADS}}
        spec_path = os.path.join(self.work, "spec.json")
        with open(spec_path, "w", encoding="utf-8") as fh:
            json.dump(spec, fh)
        got, inv = self.probe("trace", spec_path, repr(_clock()))
        self.attempted += 1
        try:
            self.judge_trace(got, inv, outs[self.workload])
        except gate.GateError as exc:
            self.failures.append("traced run: %s" % exc)
        rss, _ = self.probe("rss", self.dense_scn)
        metrics.update(layer_metrics(got, rss, statistics.median(walls)))
        self.info["kernel.compiled_steps_per_s"] = got["micro"].get(
            "compiled_steps_per_s", "absent (no compiled outreg._kernel imports)")
        self.info["spans"] = {k: round(v["self"], 6) for k, v in got["mirror"].items()
                              if k != "counters"}
        self.info["traced_wall_s"] = got["wall"]
        self.info["untraced_wall_s"] = statistics.median(walls)
        return metrics

    def judge_trace(self, got, inv, out):
        """The traced invocation must write the same bytes as the untraced
        ones, and its kernel must have integrated the steps the artifacts
        account for."""
        w = self.workload
        if w == "check":
            if [list(r) for r in self.ref["results"]] != [list(r) for r in got["check"]]:
                raise gate.GateError("criteria called one by one disagree with `outreg check`")
            return
        gate.check_exit(got["rc"], EXIT_CODES[w], inv.stderr)
        if gate.artifact_hashes(os.path.join(ROOT, out)) != self.ref["hashes"]:
            raise gate.GateError("traced artifacts differ from untraced ones")
        counted = (got["sweep_points"] if w == "sweep-grid" else got["mirror"])["counters"]
        if counted.get("kernel.steps") != self.ref["steps"]:
            raise gate.GateError("kernel integrated %s steps, artifacts account for %d"
                                 % (counted.get("kernel.steps"), self.ref["steps"]))


def layer_metrics(got, rss, untraced_wall):
    """Per-layer metrics from the traced child's span summaries."""
    def total(summary, name):
        return summary.get(name, {}).get("total", 0.0)

    kernel = got["sweep_points"] if got["workload"] == "sweep-grid" else got["mirror"]
    k_s = total(kernel, "kernel.run_closed_loop")
    steps = kernel["counters"].get("kernel.steps", 0)
    out = got["output"]
    plots = {p: total(out, "svgplot." + p) for p in ("trajectory", "error", "estimates", "khat")}
    points = got["sweep_point_s"]
    pool_wall = total(got["sweep_pool"], "cli.cmd_sweep")
    mirror = got["mirror"]
    covered = sum(v["self"] for k, v in mirror.items() if k != "counters")
    m = {
        "kernel.run_closed_loop_s": k_s,
        "kernel.steps": steps,
        "kernel.records": kernel["counters"].get("kernel.records", 0),
        "kernel.steps_per_s": steps / k_s if k_s else 0.0,
        "kernel.python_steps_per_s": got["micro"]["python_steps_per_s"],
        "kernel.chi_est_n2_us": got["micro"]["chi_est_n2_us"],
        "kernel.chi_est_n4_us": got["micro"]["chi_est_n4_us"],
        "kernel.deriv_us": got["micro"]["deriv_us"],
        "kernel.bytes_per_record": rss["growth_bytes"] / rss["records"],
        "simulate.simlog_s": total(out, "simulate.simlog"),
        "simulate.metrics_s": total(out, "simulate.metrics"),
        "simulate.to_csv_s": total(out, "simulate.to_csv"),
        "simulate.csv_bytes": out["counters"].get("simulate.csv_bytes", 0),
        "svgplot.render_s": sum(plots.values()),
        "svgplot.bytes": out["counters"].get("svgplot.bytes", 0),
        "cli.write_s": total(out, "cli.write"),
        "cli.sweep.point_s_median": statistics.median(points),
        "cli.sweep.point_s_max": max(points),
        "cli.sweep.busy_share": sum(points) / (JOBS * pool_wall),
        "cli.sweep.pool_overhead_s": pool_wall - sum(points) / JOBS,
        "cli.sweep.points_diverged": got["sweep_diverged"],
        "trace.overhead_s": got["wall"] - untraced_wall,
        "trace.uncovered_s": got["wall"] - covered,
    }
    m.update(("svgplot.render.%s_s" % p, v) for p, v in plots.items())
    m.update(("acceptance.c%d_s" % i, total(got["acceptance"], "acceptance.c%d" % i))
             for i in range(1, 11))
    return m


def _importtime(stderr, module):
    """Cumulative import time of module, in s, from -X importtime output."""
    for line in stderr.splitlines():
        parts = line.split("|")
        if len(parts) == 3 and parts[2].strip() == module:
            return int(parts[1]) / 1e6
    return 0.0


def _terminate(signum, frame):
    raise SystemExit(128 + signum)


def _kill_group(pgid):
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def _reap_group(pgid, wait_s=10.0):
    """Make sure nothing of a finished invocation's process group lives on."""
    end = _clock() + wait_s
    while True:
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        _kill_group(pgid)
        if _clock() > end:
            raise BenchError("process group %d did not exit" % pgid)
        time.sleep(0.01)


def tail_percentile(values):
    """The highest percentile with at least ten samples beyond it, above the
    median; None when there are too few samples."""
    n = len(values)
    k = n - 10
    if k <= n / 2:
        return None
    return 100.0 * k / n, sorted(values)[k - 1]


def git_commit(root):
    """HEAD's commit id, read from .git without running git; None outside a
    repository."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD"), "r", encoding="utf-8") as fh:
            head = fh.read().strip()
    except OSError:
        return None
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    try:
        with open(os.path.join(git, ref), "r", encoding="utf-8") as fh:
            return fh.read().strip()
    except OSError:
        pass
    try:
        with open(os.path.join(git, "packed-refs"), "r", encoding="utf-8") as fh:
            for line in fh:
                sha, _, name = line.strip().partition(" ")
                if name == ref:
                    return sha
    except OSError:
        pass
    return None


def _fmt(v):
    return ("%d" % v) if isinstance(v, int) else ("%.6g" % v)


def report(bench, metrics, samples, trace):
    w = bench.workload
    prov = {"workload": w, "seed": bench.seed, "trace": trace, "nproc": os.cpu_count(),
            "git_commit": git_commit(ROOT), **bench.info}
    spans = prov.pop("spans", None)
    print("# outreg benchmark: workload %s, seed %d, trace %d" % (w, bench.seed, trace))
    print("# provenance " + json.dumps(prov, sort_keys=True))
    if bench.ref is not None:
        print("# artifacts sha256 %s" % gate.digest(bench.ref["hashes"]))
    for name, v in metrics.items():
        note = ""
        if samples and name in samples:
            n = len(samples[name])
            tail = tail_percentile(samples[name])
            note = "raw median %s of %d" % (_fmt(statistics.median(samples[name])), n) + (
                "; p%.0f %s" % (tail[0], _fmt(tail[1])) if tail
                else "; no percentile above the median has 10 samples beyond it")
        print("%-11s %-28s %14s %-6s %s" % (w, name, _fmt(v), UNITS[name], note))
    if spans:
        print("# traced self-times of the workload's own invocation, s: "
              + json.dumps(spans, sort_keys=True))
    print("%-11s %-28s %14s %-6s %d of %d invocations failed"
          % (w, "error_rate", _fmt(len(bench.failures) / max(bench.attempted, 1)),
             "ratio", len(bench.failures), bench.attempted))
    for reason in bench.failures:
        print("# FAILED: " + reason)
    print(json.dumps({
        "correct": not bench.failures,
        "attempted": bench.attempted,
        "failed": len(bench.failures),
        "metrics": {k: {"value": v, "unit": UNITS[k]} for k, v in metrics.items()},
    }))


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    for need in (os.path.join(SRC, "outreg", "__init__.py"), os.path.join(ROOT, STEADY_SCN),
                 os.path.join(ROOT, STOCK_SCN)):
        if not os.path.isfile(need):
            print("perfbench: %s is missing; run from an outreg checkout" % need,
                  file=sys.stderr)
            return 2
    signal.signal(signal.SIGTERM, _terminate)
    os.makedirs(WORK, exist_ok=True)
    work = tempfile.mkdtemp(prefix="run-", dir=WORK)
    try:
        bench = Bench(args.workload, args.seed, work)
        if args.trace:
            metrics, samples = bench.trace(), None
            metrics = {name: metrics[name] for name, _, _ in PER_LAYER}
        else:
            metrics, samples = bench.measure(args.seconds)
        report(bench, metrics, samples, args.trace)
        return 0
    except BenchError as exc:
        print("perfbench: %s" % exc, file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(WORK)
        except OSError:
            pass


if __name__ == "__main__":
    sys.exit(main())
