"""Closed-loop simulation driver: fixed-step RK4 runs, logs, and metrics.

run() integrates a ScenarioConfig through the backend kernel and returns a
SimLog.  Identical configs give byte-identical logs: the time grid is
t = step * h (products, not accumulated sums), the kernel arithmetic is
fixed, and the backend's format_rows writes 17 significant digits, enough
to round-trip any double.

integrate() is the one run path; the CLI, the sweep and the acceptance
criteria call it and keep the partial log of a run whose state leaves the
|y| <= 1e9 box.  run() raises DivergenceError for such a run instead.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left
from itertools import islice
from math import nan
from operator import lt

from .backend import BACKEND, format_rows, run_closed_loop
from .duffing import duffing_coeffs
from .scenario import MODES, ScenarioConfig

CSV_HEADER = "t,x1,x2,e,zeta,u,a11,a21,a23,detT1,detT2,khat"
_INDEX = {name: i for i, name in enumerate(CSV_HEADER.split(","))}
_NCOL = len(_INDEX)

_MODE_CODES = {mode: code for code, mode in enumerate(MODES)}


class SimLog:
    """Records of one run: one row per recorded step, kept row-major in one
    flat float64 buffer and read a column at a time.

    rows is the kernel's C-contiguous (rows, 12) float64 memoryview or any
    iterable of 12-value rows; either way each row must have 12 columns and
    the time column must increase strictly.  A view is kept, cast to one
    dimension, so a log from integrate holds the kernel's own buffer.
    """

    def __init__(self, rows):
        if isinstance(rows, memoryview):
            if (rows.format != "d" or rows.ndim != 2 or rows.shape[1] != _NCOL
                    or not rows.c_contiguous):
                raise ValueError("rows must be a C-contiguous (rows, %d) float64 view" % _NCOL)
            data = rows.cast("B").cast("d")
        else:
            data = array("d")
            for r in rows:
                if len(r) != _NCOL:
                    raise ValueError("rows must have %d columns" % _NCOL)
                data.extend(r)
        t = data[0::_NCOL]
        # a nan fails the comparison too
        if not all(map(lt, t, islice(t, 1, None))):
            raise ValueError("time grid must be strictly increasing")
        self._data = data

    def __len__(self):
        return len(self._data) // _NCOL

    def __eq__(self, other):
        # the same bits, every nan counted as one value: float == would make
        # a log that holds a nan unequal to itself, its pickle and its CSV
        return isinstance(other, SimLog) and (self._data.tobytes() == other._data.tobytes()
                                              or self._bits() == other._bits())

    def _bits(self):
        return array("d", [nan if v != v else v for v in self._data]).tobytes()

    def __reduce__(self):
        # a memoryview does not pickle; its bytes do, bit for bit
        return SimLog, ((),), self._data.tobytes()

    def __setstate__(self, state):
        self._data = memoryview(state).cast("d")

    def column(self, name: str) -> list:
        try:
            i = _INDEX[name]
        except KeyError:
            raise ValueError("no column %r" % (name,)) from None
        return self._data[i::_NCOL].tolist()

    @property
    def t(self):
        return self.column("t")

    def to_csv(self) -> str:
        return CSV_HEADER + "\n" + format_rows(self._data)

    @classmethod
    def from_csv(cls, text: str) -> "SimLog":
        lines = [ln for ln in text.splitlines() if ln.strip()]
        if not lines or lines[0].strip() != CSV_HEADER:
            raise ValueError("bad or missing CSV header")
        return cls([tuple(float(p) for p in ln.split(",")) for ln in lines[1:]])


class DivergenceError(RuntimeError):
    """Integration left the sanity box; .time and .partial tell the story."""

    def __init__(self, time: float, partial: SimLog):
        self.time = time
        self.partial = partial
        super().__init__("state diverged at t = %g" % time)

    def __reduce__(self):
        # an exception pickles as its class and args; these are not __init__'s
        return DivergenceError, (self.time, self.partial)


def _kernel_args(cfg: ScenarioConfig, mode: str):
    return (cfg.c1, cfg.c2, cfg.c3, cfg.sigma, cfg.m1, cfg.m2, cfg.epsilon,
            cfg.mask1, cfg.mask2, cfg.rho.coeffs, cfg.k.coeffs, cfg.k0,
            _MODE_CODES[mode], cfg.disturbance_amp, cfg.disturbance_freq)


def _initial_state(cfg: ScenarioConfig) -> list:
    """The kernel's 17-entry state at t = 0: x, v, eta1, eta2, khat."""
    return [*cfg.x0, *cfg.v0, *cfg.eta1_0, *cfg.eta2_0, cfg.khat0]


def integrate(cfg: ScenarioConfig):
    """Integrate the scenario from t = 0 to t_end; returns (log, diverged_at,
    y_final).  diverged_at is None on a completed run, else the time the
    state left the box, with log the partial log up to it and y_final the
    kernel's state there."""
    records, diverged_at, y_final = run_closed_loop(
        _initial_state(cfg), cfg.h, cfg.n_steps, cfg.stride, *_kernel_args(cfg, cfg.mode))
    return SimLog(records), diverged_at if diverged_at >= 0.0 else None, y_final


def run(cfg: ScenarioConfig) -> SimLog:
    """integrate(cfg)'s log; DivergenceError, with the partial log, if it escapes."""
    log, diverged_at, _ = integrate(cfg)
    if diverged_at is not None:
        raise DivergenceError(diverged_at, log)
    return log


def metrics(log: SimLog, cfg: ScenarioConfig, diverged_at: float | None = None) -> dict:
    """Quantities the acceptance thresholds talk about, as a flat dict.

    Trailing-window statistics cover t >= 0.8 * t_end; they are None when
    the log ends earlier (a diverged run).  Estimation errors compare the
    logged estimates against their targets in duffing.duffing_coeffs(cfg):
    sigma^2, 9 sigma^4 and 10 sigma^2.  Settling time is the first logged t
    after which |e| never exceeds 1e-2.
    """
    if not len(log):
        raise ValueError("empty log")
    t = log.t
    e = log.column("e")
    # t increases strictly, so the trailing window is the suffix from here
    tail = bisect_left(t, 0.8 * cfg.t_end)
    a1, a2 = duffing_coeffs(cfg)
    out = {
        "backend": BACKEND,
        "diverged": diverged_at is not None,
        "diverged_at": diverged_at,
        "t_final": t[-1],
        "max_abs_u": max(map(abs, log.column("u"))),
        "min_detT1": min(log.column("detT1")),
        "min_detT2": min(log.column("detT2")),
        "khat_final": log.column("khat")[-1],
    }
    trailing = tail < len(t) and diverged_at is None
    out["trailing_sup_e"] = max(map(abs, e[tail:])) if trailing else None
    for name, want in (("a11", a1[0]), ("a21", a2[0]), ("a23", a2[2])):
        out["trailing_err_" + name] = (max(abs(a - want) for a in log.column(name)[tail:])
                                       if trailing else None)
    settle = None
    for i in range(len(e) - 1, -1, -1):
        if abs(e[i]) > 1e-2:
            settle = t[i + 1] if i + 1 < len(t) else None
            break
        settle = t[i]
    out["settling_time"] = settle if diverged_at is None else None
    return out
