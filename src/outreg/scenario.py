"""Scenario configuration: a flat key = value text format.

One assignment per line, dotted keys group related settings, `#` starts a
comment, blank lines are ignored.  Vector values are comma-separated
numbers; gain expressions are polynomial text (see controller.Polynomial).
Every key is optional: an empty file is the stock benchmark scenario.
Unknown keys are hard errors, as are non-finite numbers, non-Hurwitz filter
coefficients, nonpositive step/horizon/epsilon, a horizon that rounds to
zero steps, more than MAX_STEPS steps or MAX_RECORDS records, and wrong
vector lengths;
parse errors carry their line number.  Benchmark-box range checks (plant
coefficients, sigma) and unprovable gain lower bounds only warn.

Keys and defaults:

    plant.c1 = -2          plant.c2 = 1.5         plant.c3 = 0.5
    plant.sigma = 0.5
    init.x = 1, -1         init.v = 1, 1
    init.eta1 = 0, 0, 0, 0
    init.eta2 = 0, 0, 0, 0, 0, 0, 0, 0
    init.khat = 0
    model.m1 = 10, 18, 15, 6
    model.m2 = 1, 5, 13, 22, 26, 22, 13, 5
    mapping.epsilon = 0.1
    mapping.mask1 = 0, 1
    mapping.mask2 = 0, 1, 0, 1
    gains.rho = 10 + 4*s^4
    gains.k = 1 + s^2
    gains.k0 = 1
    sim.h = 0.001          sim.t_end = 100        sim.stride = 10
    sim.disturbance_amp = 0
    sim.disturbance_freq = 0
    mode = nonadaptive     # nonadaptive | adaptive | open_loop
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

from .controller import GainConfig, GainSyntaxError, Polynomial
from .duffing import DuffingParams
from .internal_model import NotHurwitzError, hurwitz_pair

# in kernel order: simulate passes each mode's index here as its mode code
MODES = ("nonadaptive", "adaptive", "open_loop")

# The most RK4 steps a run may take.  The pure-python twin integrates about
# 55k steps/s on a 2-CPU Linux machine with CPython 3.11 (the C twin about
# 2.6M; steady orbit, nonadaptive), so this keeps one run under about three
# minutes there (four seconds compiled) instead of the days an unchecked
# horizon such as t_end = 1e9 would take.  The largest run anything here
# makes is 200,000 steps (acceptance criterion 10 at h/2).
MAX_STEPS = 10_000_000

# The most records a run may keep.  `outreg run` peaks at about 640 B per
# record (float64 rows in the kernel and SimLog, then the CSV text; peak RSS
# growth from 10,001 to 100,001 records with CPython 3.11 at stride 1), so
# this bounds one run near 0.65 GB, and a 4-worker sweep near four times
# that.  The stock scenario keeps 10,001.
MAX_RECORDS = 1_000_000


class ScenarioError(ValueError):
    """Config rejected; str(err) lists every violation, one per line."""

    def __init__(self, violations):
        self.violations = tuple(violations)
        super().__init__("\n".join(self.violations))

    def __reduce__(self):
        # rebuild from the violations, not from args (the joined message),
        # so the error crosses a process pool intact
        return (type(self), (self.violations,))


# scenario key -> ScenarioConfig field, for the numeric settings
_FLOAT_KEYS = (("plant.c1", "c1"), ("plant.c2", "c2"), ("plant.c3", "c3"),
               ("plant.sigma", "sigma"), ("init.khat", "khat0"),
               ("mapping.epsilon", "epsilon"), ("gains.k0", "k0"),
               ("sim.h", "h"), ("sim.t_end", "t_end"),
               ("sim.disturbance_amp", "disturbance_amp"),
               ("sim.disturbance_freq", "disturbance_freq"))
_VECTOR_KEYS = (("init.x", "x0", 2), ("init.v", "v0", 2),
                ("init.eta1", "eta1_0", 4), ("init.eta2", "eta2_0", 8),
                ("model.m1", "m1", 4), ("model.m2", "m2", 8))


@dataclass(frozen=True)
class ScenarioConfig:
    c1: float = -2.0
    c2: float = 1.5
    c3: float = 0.5
    sigma: float = 0.5
    x0: tuple = (1.0, -1.0)
    v0: tuple = (1.0, 1.0)
    eta1_0: tuple = (0.0, 0.0, 0.0, 0.0)
    eta2_0: tuple = (0.0,) * 8
    khat0: float = 0.0
    m1: tuple = (10.0, 18.0, 15.0, 6.0)
    m2: tuple = (1.0, 5.0, 13.0, 22.0, 26.0, 22.0, 13.0, 5.0)
    epsilon: float = 0.1
    mask1: tuple = (False, True)
    mask2: tuple = (False, True, False, True)
    rho: Polynomial = field(default_factory=lambda: Polynomial((10.0, 0.0, 0.0, 0.0, 4.0)))
    k: Polynomial = field(default_factory=lambda: Polynomial((1.0, 0.0, 1.0)))
    k0: float = 1.0
    h: float = 1e-3
    t_end: float = 100.0
    stride: int = 10
    disturbance_amp: float = 0.0
    disturbance_freq: float = 0.0
    mode: str = "nonadaptive"

    @property
    def n_steps(self) -> int:
        return int(round(self.t_end / self.h))


def _parse_floats(text, count, key, errors):
    parts = [p.strip() for p in text.split(",")]
    try:
        vals = tuple(float(p) for p in parts)
    except ValueError:
        errors.append("%s: not a number list: %r" % (key, text))
        return None
    if not all(math.isfinite(v) for v in vals):
        errors.append("%s: values must be finite, got %r" % (key, text))
        return None
    if len(vals) != count:
        errors.append("%s: expected %d values, got %d" % (key, count, len(vals)))
        return None
    return vals


def _parse_mask(text, count, key, errors):
    parts = [p.strip().lower() for p in text.split(",")]
    vals = []
    for p in parts:
        if p in ("0", "false", "no"):
            vals.append(False)
        elif p in ("1", "true", "yes"):
            vals.append(True)
        else:
            errors.append("%s: mask entries must be 0/1, got %r" % (key, p))
            return None
    if len(vals) != count:
        errors.append("%s: expected %d entries, got %d" % (key, count, len(vals)))
        return None
    return tuple(vals)


def _parse_float(text, key, errors):
    try:
        val = float(text)
    except ValueError:
        errors.append("%s: not a number: %r" % (key, text))
        return None
    if not math.isfinite(val):
        errors.append("%s: must be finite, got %r" % (key, text))
        return None
    return val


def _parse_int(text, key, errors):
    try:
        return int(text)
    except ValueError:
        errors.append("%s: not an integer: %r" % (key, text))
        return None


def _parse_gain(text, key, errors):
    try:
        return Polynomial.parse(text)
    except GainSyntaxError as exc:
        errors.append("%s: %s" % (key, exc))
        return None


def loads(text: str) -> ScenarioConfig:
    """Parse scenario text; ScenarioError lists every problem at once."""
    errors = []
    seen = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            errors.append("line %d: expected key = value, got %r" % (lineno, raw.strip()))
            continue
        key, _, val = line.partition("=")
        key = key.strip()
        val = val.strip()
        if key in seen:
            errors.append("line %d: duplicate key %r" % (lineno, key))
            continue
        seen[key] = (lineno, val)

    kw = {}

    def take(key, parse, *args):
        if key in seen:
            lineno, val = seen.pop(key)
            out = parse(val, *args, "line %d: %s" % (lineno, key), errors)
            if out is not None:
                return out
        return None

    for key, name in _FLOAT_KEYS:
        out = take(key, _parse_float)
        if out is not None:
            kw[name] = out
    for key, name, count in _VECTOR_KEYS:
        out = take(key, _parse_floats, count)
        if out is not None:
            kw[name] = out
    for key, name, count in (("mapping.mask1", "mask1", 2), ("mapping.mask2", "mask2", 4)):
        out = take(key, _parse_mask, count)
        if out is not None:
            kw[name] = out
    for key, name in (("gains.rho", "rho"), ("gains.k", "k")):
        out = take(key, _parse_gain)
        if out is not None:
            kw[name] = out
    out = take("sim.stride", _parse_int)
    if out is not None:
        kw["stride"] = out
    if "mode" in seen:
        lineno, val = seen.pop("mode")
        if val in MODES:
            kw["mode"] = val
        else:
            errors.append("line %d: mode must be one of %s, got %r"
                          % (lineno, "/".join(MODES), val))
    for key, (lineno, _) in sorted(seen.items(), key=lambda kv: kv[1][0]):
        errors.append("line %d: unknown key %r" % (lineno, key))
    if errors:
        raise ScenarioError(errors)
    cfg = ScenarioConfig(**kw)
    validate(cfg)
    return cfg


def validate(cfg: ScenarioConfig):
    """Hard checks raise ScenarioError (all violations at once); box-range
    and gain-bound checks warn via DuffingParams and GainConfig.

    Non-finite numbers (loads rejects them at parse time, but overrides
    and hand-built configs can carry them) are reported first and alone,
    since every other check assumes finite values.
    """
    errors = []
    for key, name in _FLOAT_KEYS:
        val = getattr(cfg, name)
        if not math.isfinite(val):
            errors.append("%s: must be finite, got %r" % (key, val))
    for key, name, _ in _VECTOR_KEYS:
        vals = getattr(cfg, name)
        if not all(math.isfinite(v) for v in vals):
            errors.append("%s: values must be finite, got %r" % (key, vals))
    if errors:
        raise ScenarioError(errors)
    if not cfg.h > 0.0:
        errors.append("sim.h: must be > 0, got %r" % (cfg.h,))
    if not cfg.t_end > 0.0:
        errors.append("sim.t_end: must be > 0, got %r" % (cfg.t_end,))
    if cfg.stride < 1:
        errors.append("sim.stride: must be >= 1, got %r" % (cfg.stride,))
    if not errors:
        errors.extend(_run_length_errors(cfg))
    if not cfg.epsilon > 0.0:
        errors.append("mapping.epsilon: must be > 0, got %r" % (cfg.epsilon,))
    if cfg.mode not in MODES:
        errors.append("mode: must be one of %s, got %r" % ("/".join(MODES), cfg.mode))
    for name, m, label in (("model.m1", cfg.m1, "M1"), ("model.m2", cfg.m2, "M2")):
        try:
            hurwitz_pair(m)
        except NotHurwitzError as exc:
            errors.append("%s: %s not Hurwitz (%s)" % (name, label, exc))
        except ValueError as exc:
            errors.append("%s: %s" % (name, exc))
    try:
        DuffingParams(cfg.c1, cfg.c2, cfg.c3, cfg.sigma)  # warns on box ranges
    except ValueError as exc:
        errors.append("plant: %s" % exc)
    if errors:
        raise ScenarioError(errors)
    # gain bound warnings piggyback on GainConfig construction
    GainConfig(rho=cfg.rho, k=cfg.k, k0=cfg.k0)
    return cfg


def _run_length_errors(cfg: ScenarioConfig) -> list:
    """A run must take at least one and at most MAX_STEPS steps and keep at
    most MAX_RECORDS records; h, t_end and stride are already known to be
    valid."""
    if not math.isfinite(cfg.t_end / cfg.h):
        return ["sim: sim.t_end / sim.h overflows (%r / %r)" % (cfg.t_end, cfg.h)]
    n_steps = cfg.n_steps
    if n_steps == 0:
        return ["sim.t_end: %r rounds to 0 steps of sim.h = %r" % (cfg.t_end, cfg.h)]
    if n_steps > MAX_STEPS:
        return ["sim: sim.t_end = %r at sim.h = %r is %d steps, more than %d"
                % (cfg.t_end, cfg.h, n_steps, MAX_STEPS)]
    # one record at every stride-th step from step 0, and one at the end
    records = (n_steps - 1) // cfg.stride + 2
    if records > MAX_RECORDS:
        return ["sim: %d steps at sim.stride = %d keep %d records, more than %d"
                % (n_steps, cfg.stride, records, MAX_RECORDS)]
    return []


def load_scenario(path) -> ScenarioConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return loads(fh.read())


def serialize(cfg: ScenarioConfig) -> str:
    """Canonical text form; loads(serialize(cfg)) == cfg."""
    lines = [
        "plant.c1 = %r" % cfg.c1,
        "plant.c2 = %r" % cfg.c2,
        "plant.c3 = %r" % cfg.c3,
        "plant.sigma = %r" % cfg.sigma,
        "init.x = %s" % ", ".join("%r" % v for v in cfg.x0),
        "init.v = %s" % ", ".join("%r" % v for v in cfg.v0),
        "init.eta1 = %s" % ", ".join("%r" % v for v in cfg.eta1_0),
        "init.eta2 = %s" % ", ".join("%r" % v for v in cfg.eta2_0),
        "init.khat = %r" % cfg.khat0,
        "model.m1 = %s" % ", ".join("%r" % v for v in cfg.m1),
        "model.m2 = %s" % ", ".join("%r" % v for v in cfg.m2),
        "mapping.epsilon = %r" % cfg.epsilon,
        "mapping.mask1 = %s" % ", ".join("1" if v else "0" for v in cfg.mask1),
        "mapping.mask2 = %s" % ", ".join("1" if v else "0" for v in cfg.mask2),
        "gains.rho = %s" % cfg.rho.format(),
        "gains.k = %s" % cfg.k.format(),
        "gains.k0 = %r" % cfg.k0,
        "sim.h = %r" % cfg.h,
        "sim.t_end = %r" % cfg.t_end,
        "sim.stride = %d" % cfg.stride,
        "sim.disturbance_amp = %r" % cfg.disturbance_amp,
        "sim.disturbance_freq = %r" % cfg.disturbance_freq,
        "mode = %s" % cfg.mode,
    ]
    return "\n".join(lines) + "\n"


def with_overrides(cfg: ScenarioConfig, **kw) -> ScenarioConfig:
    """replace() plus re-validation; used by sweeps and CLI flags."""
    out = replace(cfg, **kw)
    validate(out)
    return out

