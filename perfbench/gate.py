"""Correctness gate and step accounting for `outreg` invocations.

Every invocation the benchmark times is judged here.  It fails when it
crashes or writes a traceback, exits with a code outside its workload's
documented set, leaves an artifact missing or unparsable, writes a log.csv
that does not round-trip through SimLog.from_csv or whose recomputed
metrics differ from metrics.json, diverges on a run-* workload, or writes
bytes that differ from an earlier repetition of the same invocation.

Steps are counted as integrated, not as requested: a run that escaped at
t integrated round(t / h) steps, whatever its n_steps was.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
from xml.etree import ElementTree

RUN_ARTIFACTS = ("log.csv", "metrics.json", "plot_error.svg",
                 "plot_estimates.svg", "plot_trajectory.svg")
ADAPTIVE_ARTIFACTS = ("plot_khat.svg",)
SVG_ROOT = "{http://www.w3.org/2000/svg}svg"

_CHECK_LINE = re.compile(
    r"^\[\s*(\d+)/(\d+)\] (PASS|FAIL)  (\S+)\s+\(\s*[0-9.]+ s\)  (.*)$")
_CHECK_TOTAL = re.compile(r"^(\d+)/(\d+) criteria passed$")
_CHECK_TIMING = re.compile(r"\(\s*[0-9.]+ s\)")


class GateError(Exception):
    """An invocation failed the gate; str(err) says why."""


def steps_integrated(diverged_at, h: float, n_steps: int) -> int:
    """RK4 steps a run actually took: n_steps, or round(t / h) if it escaped."""
    if diverged_at is None:
        return n_steps
    return int(round(diverged_at / h))


def check_exit(rc: int, allowed, stderr: str):
    if "Traceback (most recent call last)" in stderr:
        raise GateError("traceback on stderr: %s" % stderr.strip().splitlines()[-1])
    if rc not in allowed:
        raise GateError("exit code %d not in %s" % (rc, sorted(allowed)))


def artifact_hashes(outdir: str) -> dict:
    """sha256 of every file in outdir, by file name."""
    out = {}
    for name in sorted(os.listdir(outdir)):
        with open(os.path.join(outdir, name), "rb") as fh:
            out[name] = hashlib.sha256(fh.read()).hexdigest()
    return out


def digest(hashes: dict) -> str:
    """One sha256 over a name -> sha256 mapping, for reporting."""
    text = "".join("%s %s\n" % kv for kv in sorted(hashes.items()))
    return hashlib.sha256(text.encode()).hexdigest()


def _read(outdir, name):
    path = os.path.join(outdir, name)
    if not os.path.isfile(path):
        raise GateError("artifact missing: %s" % name)
    with open(path, "r", encoding="utf-8", newline="") as fh:
        return fh.read()


def validate_run(outdir: str, cfg, adaptive: bool) -> dict:
    """Full check of one `outreg run` output directory; returns metrics.json.

    cfg is the ScenarioConfig the CLI ran (scenario file plus flag
    overrides), used to recompute the metrics from log.csv.
    """
    from outreg.simulate import SimLog, metrics

    want = set(RUN_ARTIFACTS) | (set(ADAPTIVE_ARTIFACTS) if adaptive else set())
    have = set(os.listdir(outdir))
    if have != want:
        raise GateError("artifact set %s, expected %s" % (sorted(have), sorted(want)))
    try:
        report = json.loads(_read(outdir, "metrics.json"))
    except ValueError as exc:
        raise GateError("metrics.json does not parse: %s" % exc)
    for name in sorted(want):
        if name.endswith(".svg"):
            try:
                root = ElementTree.fromstring(_read(outdir, name))
            except ElementTree.ParseError as exc:
                raise GateError("%s does not parse: %s" % (name, exc))
            if root.tag != SVG_ROOT:
                raise GateError("%s: root element is %s" % (name, root.tag))
    text = _read(outdir, "log.csv")
    try:
        log = SimLog.from_csv(text)
    except ValueError as exc:
        raise GateError("log.csv does not parse: %s" % exc)
    if log.to_csv() != text:
        raise GateError("log.csv does not round-trip through SimLog.from_csv")
    if report.get("diverged"):
        raise GateError("run diverged at t = %r" % report.get("diverged_at"))
    again = json.loads(json.dumps(
        metrics(log, cfg, diverged_at=report.get("diverged_at")), sort_keys=True))
    if again != report:
        diff = sorted(k for k in set(again) | set(report) if again.get(k) != report.get(k))
        raise GateError("metrics recomputed from log.csv differ from metrics.json: %s"
                        % ", ".join(diff))
    return report


def validate_artifacts(kind: str, outdir: str, scenario: str, extra=None) -> dict:
    """Validate an output directory against the scenario the CLI ran.

    kind "run": extra is the --tend override, if any; returns the steps
    integrated and the backend metrics.json names.  kind "sweep": extra is
    the --grid spec; returns the steps integrated over all points and the
    number of points that diverged.
    """
    from outreg.scenario import load_scenario, with_overrides

    cfg = load_scenario(scenario)
    if kind == "sweep":
        from outreg.cli import parse_grid

        steps, diverged = validate_sweep(outdir, parse_grid(extra), cfg.h, cfg.n_steps)
        return {"steps": steps, "diverged": diverged}
    if extra is not None:
        cfg = with_overrides(cfg, t_end=float(extra))
    report = validate_run(outdir, cfg, cfg.mode == "adaptive")
    return {"steps": steps_integrated(report["diverged_at"], cfg.h, cfg.n_steps),
            "backend": report["backend"]}


def validate_sweep(outdir: str, axes, h: float, n_steps: int):
    """Check summary.csv: one row per grid point, in grid order.

    axes is [(name, [values])] as outreg.cli.parse_grid returns it.
    Returns (steps integrated over all points, points diverged).
    """
    if sorted(os.listdir(outdir)) != ["summary.csv"]:
        raise GateError("sweep wrote %s, expected summary.csv" % sorted(os.listdir(outdir)))
    lines = _read(outdir, "summary.csv").splitlines()
    header = lines[0].split(",")
    names = [n for n, _ in axes]
    if header[:len(names)] != names or "diverged" not in header or "diverged_at" not in header:
        raise GateError("summary.csv header %r" % lines[0])
    points = [()]
    for _, vals in axes:
        points = [p + (v,) for p in points for v in vals]
    rows = lines[1:]
    if len(rows) != len(points):
        raise GateError("summary.csv has %d rows for %d grid points" % (len(rows), len(points)))
    col_div = header.index("diverged")
    col_at = header.index("diverged_at")
    steps = 0
    diverged = 0
    for point, row in zip(points, rows):
        cells = row.split(",")
        if len(cells) != len(header):
            raise GateError("summary.csv row %r has %d cells" % (row, len(cells)))
        try:
            got = tuple(float(c) for c in cells[:len(names)])
            flag = {"0": False, "1": True}[cells[col_div]]
            at = float(cells[col_at]) if flag else None
        except (ValueError, KeyError):
            raise GateError("summary.csv row does not parse: %r" % row)
        if got != tuple(point):
            raise GateError("summary.csv row %r out of grid order" % row)
        diverged += flag
        steps += steps_integrated(at, h, n_steps)
    return steps, diverged


def parse_check(stdout: str, rc: int):
    """Check `outreg check` output; returns [(name, passed, detail)].

    Ten numbered criterion lines, then the pass count; exit 0 only when
    every criterion passed.
    """
    lines = stdout.splitlines()
    if len(lines) != 11:
        raise GateError("check printed %d lines, expected 11" % len(lines))
    out = []
    for i, line in enumerate(lines[:10], 1):
        m = _CHECK_LINE.match(line)
        if not m or int(m.group(1)) != i or m.group(2) != "10":
            raise GateError("bad criterion line %d: %r" % (i, line))
        out.append((m.group(4), m.group(3) == "PASS", m.group(5)))
    m = _CHECK_TOTAL.match(lines[10])
    passed = sum(p for _, p, _ in out)
    if not m or int(m.group(1)) != passed or m.group(2) != "10":
        raise GateError("bad check total line %r" % lines[10])
    if (rc == 0) != (passed == 10):
        raise GateError("exit code %d with %d/10 criteria passed" % (rc, passed))
    return out


def check_output_hash(stdout: str) -> str:
    """sha256 of check output with the per-criterion timings blanked."""
    return hashlib.sha256(_CHECK_TIMING.sub("(t)", stdout).encode()).hexdigest()
