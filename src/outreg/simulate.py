"""Closed-loop simulation driver: fixed-step RK4 runs, logs, and metrics.

run() integrates a ScenarioConfig through the backend kernel and returns a
SimLog.  Identical configs give byte-identical logs: the time grid is
t = step * h (products, not accumulated sums), the kernel arithmetic is
fixed, and CSV formatting uses 17 significant digits, enough to round-trip
any double.

A run whose state leaves the |y| <= 1e9 box raises DivergenceError carrying
the partial log and the offending time; callers that want the data anyway
(the CLI, sweep collectors) catch it and keep the log.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left
from itertools import islice
from operator import lt

from .backend import BACKEND, run_closed_loop
from .scenario import MODES, ScenarioConfig

CSV_HEADER = "t,x1,x2,e,zeta,u,a11,a21,a23,detT1,detT2,khat"
_INDEX = {name: i for i, name in enumerate(CSV_HEADER.split(","))}
_NCOL = len(_INDEX)
# one CSV row; 17 significant digits round-trip any double
_CSV_ROW = ",".join(["%.17g"] * _NCOL)
_CSV_BLOCK = 1024

_MODE_CODES = {mode: code for code, mode in enumerate(MODES)}


class SimLog:
    """Records of one run: one row per recorded step, kept row-major in one
    flat float64 array and read a column at a time.

    rows is the kernel's (rows, 12) float64 memoryview or any iterable of
    12-value rows; either way each row must have 12 columns and the time
    column must increase strictly.
    """

    def __init__(self, rows):
        data = array("d")
        if isinstance(rows, memoryview):
            if rows.format != "d" or rows.ndim != 2 or rows.shape[1] != _NCOL:
                raise ValueError("rows must be a (rows, %d) float64 view" % _NCOL)
            data.frombytes(rows.cast("B"))
        else:
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
        return isinstance(other, SimLog) and self._data == other._data

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
        # a block of 12-field template lines filled by one format op per
        # _CSV_BLOCK rows, so only one block's floats exist as objects at once
        d = self._data
        n = _CSV_BLOCK * _NCOL
        out = [CSV_HEADER]
        for i in range(0, len(d), n):
            block = d[i:i + n]
            out.append("\n".join([_CSV_ROW] * (len(block) // _NCOL)) % tuple(block))
        out.append("")  # the final newline, without copying the text once more
        return "\n".join(out)

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


def _kernel_args(cfg: ScenarioConfig, mode: str):
    return (cfg.c1, cfg.c2, cfg.c3, cfg.sigma, cfg.m1, cfg.m2, cfg.epsilon,
            cfg.mask1, cfg.mask2, cfg.rho.coeffs, cfg.k.coeffs, cfg.k0,
            _MODE_CODES[mode], cfg.disturbance_amp, cfg.disturbance_freq)


def run(cfg: ScenarioConfig) -> SimLog:
    """Integrate the scenario from t = 0 to t_end; returns the SimLog.

    Raises DivergenceError (with the partial log attached) if the state
    blows up before t_end.
    """
    y0 = [*cfg.x0, *cfg.v0, *cfg.eta1_0, *cfg.eta2_0, cfg.khat0]
    records, diverged_at, _ = run_closed_loop(
        y0, cfg.h, cfg.n_steps, cfg.stride, *_kernel_args(cfg, cfg.mode))
    log = SimLog(records)
    if diverged_at >= 0.0:
        raise DivergenceError(diverged_at, log)
    return log


def metrics(log: SimLog, cfg: ScenarioConfig, diverged_at: float | None = None) -> dict:
    """Quantities the acceptance thresholds talk about, as a flat dict.

    Trailing-window statistics cover t >= 0.8 * t_end; they are None when
    the log ends earlier (a diverged run).  Estimation errors compare the
    logged estimates against the exosystem targets sigma^2, 9 sigma^4 and
    10 sigma^2.  Settling time is the first logged t after which |e| never
    exceeds 1e-2.
    """
    if not len(log):
        raise ValueError("empty log")
    t = log.t
    e = log.column("e")
    # t increases strictly, so the trailing window is the suffix from here
    tail = bisect_left(t, 0.8 * cfg.t_end)
    s2 = cfg.sigma * cfg.sigma
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
    if tail < len(t) and diverged_at is None:
        out["trailing_sup_e"] = max(map(abs, e[tail:]))
        out["trailing_err_a11"] = max(abs(a - s2) for a in log.column("a11")[tail:])
        out["trailing_err_a21"] = max(abs(a - 9.0 * s2 * s2) for a in log.column("a21")[tail:])
        out["trailing_err_a23"] = max(abs(a - 10.0 * s2) for a in log.column("a23")[tail:])
    else:
        out["trailing_sup_e"] = None
        out["trailing_err_a11"] = None
        out["trailing_err_a21"] = None
        out["trailing_err_a23"] = None
    settle = None
    for i in range(len(e) - 1, -1, -1):
        if abs(e[i]) > 1e-2:
            settle = t[i + 1] if i + 1 < len(t) else None
            break
        settle = t[i]
    out["settling_time"] = settle if diverged_at is None else None
    return out
