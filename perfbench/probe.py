"""Child-side probes of the outreg benchmark; perfbench/run.py starts each
one in a fresh interpreter with the checkout's src/ on PYTHONPATH.

    probe.py setup SCENARIO SPAWN_T [MODULE ...]
        import outreg.cli (and MODULEs), parse SCENARIO, print the clock
    probe.py count OUT_JSON ARG ...
        run `outreg ARG ...` as the console script would, counting the
        RK4 steps the kernel integrates into OUT_JSON
    probe.py rss SCENARIO
        peak-RSS growth across one kernel call, and the records it made
    probe.py yardstick
        time a fixed pure-Python loop: the machine's current speed
    probe.py validate run|sweep OUTDIR SCENARIO [TEND|GRID]
        gate.validate_artifacts on one invocation's output
    probe.py trace SPEC_JSON SPAWN_T
        the traced run: the workload's own invocation with a span around
        every call into a module, then the layers it does not enter

SPAWN_T is the parent's time.perf_counter() just before the spawn; on
Linux that clock is CLOCK_MONOTONIC, shared by every process, so a child
can place its own events on the parent's time line.  Each probe prints
one JSON object as its last line of standard output.
"""

import contextlib
import sys
import time

_clock = time.perf_counter


def _emit(obj):
    import json

    sys.stdout.write(json.dumps(obj, sort_keys=True) + "\n")
    sys.stdout.flush()


def _check_origin(root):
    """Refuse to measure an outreg imported from anywhere but root/src."""
    import os

    import outreg

    src = os.path.join(os.path.realpath(root), "src") + os.sep
    if not os.path.realpath(outreg.__file__).startswith(src):
        raise SystemExit("outreg imported from %s, not from %s" % (outreg.__file__, src))


def _provenance():
    import outreg

    numpy = sys.modules.get("numpy")
    if numpy is None:
        import numpy
    try:
        from outreg import _kernel  # noqa: F401
        compiled = True
    except ImportError:
        compiled = False
    return {"backend": outreg.BACKEND, "compiled_kernel_imports": compiled,
            "numpy": numpy.__version__, "outreg": getattr(outreg, "__version__", None),
            "python": sys.version.split()[0]}


def setup(scenario, spawn_t, *modules):
    t0 = _clock()
    import importlib

    import outreg.cli

    for name in modules:
        importlib.import_module(name)
    t1 = _clock()
    outreg.cli.load_scenario(scenario)
    t2 = _clock()
    import os

    _check_origin(os.getcwd())
    _emit({"entry": t0 - float(spawn_t), "import": t1 - t0, "load": t2 - t1,
           "done": t2 - float(spawn_t), "provenance": _provenance()})


class Tracer:
    """Spans kept in memory: (name, start, end, parent index)."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.counters = {}

    def open(self, name, start=None):
        parent = self.stack[-1] if self.stack else None
        self.spans.append([name, _clock() if start is None else start, None, parent])
        self.stack.append(len(self.spans) - 1)
        return self.stack[-1]

    def close(self, idx, end=None):
        self.spans[idx][2] = _clock() if end is None else end
        self.stack.pop()

    @contextlib.contextmanager
    def span(self, name):
        idx = self.open(name)
        try:
            yield
        finally:
            self.close(idx)

    def count(self, name, n):
        self.counters[name] = self.counters.get(name, 0) + n

    def wrap(self, owner, attr, name, on_result=None):
        """Replace owner.attr by a wrapper that records a span per call."""
        import functools

        fn = getattr(owner, attr, None)
        if fn is None:
            return
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = tracer.open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer.close(idx)
            if on_result is not None:
                on_result(out, args, kwargs)
            return out

        setattr(owner, attr, traced)

    def take(self):
        """Per span name: total and self seconds and call count; then reset."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent is not None:
                child[parent] += end - start
        out = {}
        for (name, start, end, _), inner in zip(self.spans, child):
            agg = out.setdefault(name, {"total": 0.0, "self": 0.0, "calls": 0})
            agg["total"] += end - start
            agg["self"] += end - start - inner
            agg["calls"] += 1
        out["counters"] = self.counters
        self.spans, self.stack, self.counters = [], [], {}
        return out


def _kernel_counter(tracer):
    # run_closed_loop(y0, h, n_steps, stride, ..., t0=0.0) returns
    # (records, diverged_at, y_final); diverged_at < 0 means it completed
    def done(out, args, kwargs):
        records, diverged_at, _ = out
        h, n_steps = args[1], args[2]
        t0 = args[19] if len(args) > 19 else kwargs.get("t0", 0.0)
        steps = n_steps if diverged_at < 0.0 else int(round((diverged_at - t0) / h))
        tracer.count("kernel.steps", steps)
        tracer.count("kernel.records", len(records))
    return done


def count(out_json, *argv):
    import json

    import outreg.cli as cli
    import outreg.simulate as simulate

    tracer = Tracer()
    tracer.wrap(simulate, "run_closed_loop", "kernel", _kernel_counter(tracer))
    rc = cli.main(list(argv))
    with open(out_json, "w", encoding="utf-8") as fh:
        json.dump(tracer.take()["counters"], fh)
    sys.exit(rc)


def rss(scenario):
    import resource

    import outreg.simulate as simulate
    from outreg.scenario import load_scenario

    cfg = load_scenario(scenario)
    got = {}
    kernel = simulate.run_closed_loop

    def measured(*args, **kwargs):
        got["before"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        out = kernel(*args, **kwargs)
        got["after"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        got["records"] = len(out[0])
        return out

    simulate.run_closed_loop = measured
    simulate.run(cfg)
    _emit({"growth_bytes": 1024 * (got["after"] - got["before"]),
           "records": got["records"]})


def _det3(a, b, c, d, e, f, g, h, i):
    return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)


def yardstick():
    """Fixed work in the style of the kernel (float arithmetic, calls, list
    indexing) that no change to outreg can touch.  Never edit it: its time
    is the unit the end-to-end times are scaled by."""
    v = [0.1 * i for i in range(16)]
    s = 0.0
    t0 = _clock()
    for k in range(500000):
        s = s * 0.5 + _det3(v[0], v[1], v[2], v[3], v[4], v[5], v[6], v[7], v[8])
        v[k % 16] = s * 1e-9 + 0.1
    _emit({"seconds": _clock() - t0})


def validate(kind, outdir, scenario, extra=None):
    import gate

    try:
        _emit(gate.validate_artifacts(kind, outdir, scenario, extra))
    except gate.GateError as exc:
        _emit({"error": str(exc)})


def _instrument(tracer, cli, simulate, svgplot):
    """Wrap every call the CLI makes into another module (or its own
    command and file-write helpers) in a span."""
    tracer.wrap(cli, "cmd_run", "cli.cmd_run")
    tracer.wrap(cli, "cmd_sweep", "cli.cmd_sweep")
    tracer.wrap(cli, "load_scenario", "scenario.load")
    tracer.wrap(cli, "with_overrides", "scenario.override")
    tracer.wrap(cli, "run", "simulate.run")
    tracer.wrap(cli, "metrics", "simulate.metrics")
    tracer.wrap(cli, "_write_run_outputs", "cli.write_run_outputs")
    tracer.wrap(cli, "_write", "cli.write")
    tracer.wrap(simulate, "run_closed_loop", "kernel.run_closed_loop",
                _kernel_counter(tracer))
    tracer.wrap(simulate.SimLog, "__init__", "simulate.simlog")
    tracer.wrap(simulate.SimLog, "to_csv", "simulate.to_csv",
                lambda out, a, k: tracer.count("simulate.csv_bytes", len(out.encode())))
    for plot in ("trajectory", "error", "estimates", "khat"):
        tracer.wrap(svgplot, plot + "_svg", "svgplot." + plot,
                    lambda out, a, k: tracer.count("svgplot.bytes", len(out.encode())))


def _per_call_us(fn, args, number, repeat=5):
    times = []
    for _ in range(repeat):
        t0 = _clock()
        for _ in range(number):
            fn(*args)
        times.append((_clock() - t0) / number)
    times.sort()
    return 1e6 * times[len(times) // 2]


def _steps_per_s(kernel, y0, h, n, args, repeat=3):
    rates = []
    for _ in range(repeat):
        t0 = _clock()
        _, diverged_at, _ = kernel(y0, h, n, n, *args)
        rates.append(n / (_clock() - t0))
        if diverged_at >= 0.0:
            raise SystemExit("steady scenario diverged in the kernel microbenchmark")
    rates.sort()
    return rates[len(rates) // 2]


def microbench(steady_scenario):
    """Per-call cost of the pure-Python twin's parts on the steady orbit,
    and steps/s of each kernel that imports."""
    from outreg import _kernel_py as kp
    from outreg.scenario import load_scenario
    from outreg.simulate import _kernel_args

    cfg = load_scenario(steady_scenario)
    y = [*cfg.x0, *cfg.v0, *cfg.eta1_0, *cfg.eta2_0, cfg.khat0]
    args = _kernel_args(cfg, "nonadaptive")
    (c1, c2, c3, sigma, m1, m2, eps, mask1, mask2, rho, kc, k0, mode,
     dist_amp, dist_freq) = args
    # the same list forms run_closed_loop hands to its helpers
    m1, m2, rho, kc = ([float(v) for v in xs] for xs in (m1, m2, rho, kc))
    mask1, mask2 = ([1 if v else 0 for v in xs] for xs in (mask1, mask2))
    ahat1, ahat2 = [0.0] * 4, [0.0] * 4
    out = {
        "chi_est_n2_us": _per_call_us(kp._chi_est, (y, 4, 2, m1, eps, mask1, ahat1), 4000),
        "chi_est_n4_us": _per_call_us(kp._chi_est, (y, 8, 4, m2, eps, mask2, ahat2), 600),
        "deriv_us": _per_call_us(
            kp._deriv, (0.0, y, [0.0] * 17, [0.0] * 8, c1, c2, c3, sigma, m1, m2, eps,
                        mask1, mask2, rho, kc, k0, mode, dist_amp, dist_freq, ahat1, ahat2),
            400),
        "python_steps_per_s": _steps_per_s(kp.run_closed_loop, y, cfg.h, 1000, args),
    }
    try:
        from outreg import _kernel
    except ImportError:
        _kernel = None
    if _kernel is not None:
        out["compiled_steps_per_s"] = _steps_per_s(_kernel.run_closed_loop, y, cfg.h,
                                                   100000, args)
    return out


def trace(spec_json, spawn_t):
    t_entry = _clock()
    spawn_t = float(spawn_t)
    tracer = Tracer()
    tracer.close(tracer.open("interpreter.start", spawn_t), t_entry)
    import json

    with open(spec_json, "r", encoding="utf-8") as fh:
        spec = json.load(fh)
    workload = spec["workload"]
    with tracer.span("import.outreg"):
        import outreg.cli as cli
        import outreg.simulate as simulate
        from outreg import svgplot

        if workload == "check":
            from outreg import acceptance  # noqa: F401  (imported inside the span)
    _instrument(tracer, cli, simulate, svgplot)

    def criteria():
        from outreg import acceptance

        results = []
        for i in range(1, 11):
            fn = getattr(acceptance, "criterion_%d" % i)
            with tracer.span("acceptance.c%d" % i):
                # a fresh context per criterion: nothing is shared or cached
                results.append(list(fn(spec["seed"], {})))
        return results

    out = {"workload": workload}
    if workload == "check":
        out["check"] = criteria()
        out["rc"] = 0
    else:
        with tracer.span("cli.main"):
            out["rc"] = cli.main(spec["argv"][workload])
    out["wall"] = _clock() - spawn_t
    out["mirror"] = tracer.take()

    # layers the workload does not enter are measured on the pipeline
    # that owns them, so every traced run reports every layer
    if workload == "run-dense":
        out["output"] = out["mirror"]
    else:
        with tracer.span("cli.main"):
            rc = cli.main(spec["argv"]["run-dense"])
        if rc != 0:
            raise SystemExit("run-dense pipeline exited %d" % rc)
        out["output"] = tracer.take()

    base = cli.load_scenario(spec["sweep_scenario"])
    point_s = []
    diverged = 0
    for point in cli._grid_points(cli.parse_grid(spec["grid"])):
        t0 = _clock()
        rep = cli._sweep_worker(base, point)
        point_s.append(_clock() - t0)
        diverged += bool(rep["diverged"])
    out["sweep_points"] = tracer.take()
    out["sweep_point_s"] = point_s
    out["sweep_diverged"] = diverged
    if workload == "sweep-grid":
        out["sweep_pool"] = out["mirror"]
    else:
        with tracer.span("cli.main"):
            cli.main(spec["argv"]["sweep-grid"])
        out["sweep_pool"] = tracer.take()

    if workload != "check":
        out["check"] = criteria()
    out["acceptance"] = out["mirror"] if workload == "check" else tracer.take()
    out["micro"] = microbench(spec["steady_scenario"])
    _emit(out)


if __name__ == "__main__":
    _modes = {"setup": setup, "count": count, "rss": rss, "yardstick": yardstick,
              "validate": validate, "trace": trace}
    if len(sys.argv) < 2 or sys.argv[1] not in _modes:
        raise SystemExit("usage: probe.py {%s} ..." % ",".join(_modes))
    _modes[sys.argv[1]](*sys.argv[2:])
