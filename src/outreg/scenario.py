"""Scenario configuration: a flat key = value text format.

One assignment per line, dotted keys group related settings, `#` starts a
comment, blank lines are ignored.  Vector values are comma-separated
numbers; gain expressions are polynomial text (see controller.Polynomial).
Every key is optional: an empty file is the stock benchmark scenario, and
scenarios/default.scn spells out every key at its default (a test pins it
to ScenarioConfig() and to the key table _KEYS below).
Unknown keys are hard errors, as are non-finite numbers, non-Hurwitz filter
coefficients, nonpositive step/horizon/epsilon, a horizon that rounds to
zero steps, more than MAX_STEPS steps or MAX_RECORDS records, wrong vector
lengths and gains above controller.MAX_GAIN_DEGREE; parse errors carry their
line number and are listed in line order.  Benchmark-box range checks (plant
coefficients, sigma) and unprovable gain lower bounds only warn.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

from .controller import GainConfig, Polynomial
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


# A parser turns a value's text into a field value or raises ValueError
# whose message follows "line N: key: " in the error.

def _float(text):
    try:
        val = float(text)
    except ValueError:
        raise ValueError("not a number: %r" % text) from None
    if not math.isfinite(val):
        raise ValueError("must be finite, got %r" % text)
    return val


def _floats(count):
    def parse(text):
        try:
            vals = tuple(float(p) for p in text.split(","))
        except ValueError:
            raise ValueError("not a number list: %r" % text) from None
        if not all(map(math.isfinite, vals)):
            raise ValueError("values must be finite, got %r" % text)
        if len(vals) != count:
            raise ValueError("expected %d values, got %d" % (count, len(vals)))
        return vals
    return parse


_MASK_WORDS = {"0": False, "false": False, "no": False,
               "1": True, "true": True, "yes": True}


def _mask(count):
    def parse(text):
        vals = []
        for p in text.split(","):
            p = p.strip().lower()
            if p not in _MASK_WORDS:
                raise ValueError("mask entries must be 0/1, got %r" % p)
            vals.append(_MASK_WORDS[p])
        if len(vals) != count:
            raise ValueError("expected %d entries, got %d" % (count, len(vals)))
        return tuple(vals)
    return parse


def _int(text):
    try:
        return int(text)
    except ValueError:
        raise ValueError("not an integer: %r" % text) from None


def _mode(text):
    if text not in MODES:
        raise ValueError("must be one of %s, got %r" % ("/".join(MODES), text))
    return text


def _fmt_floats(vals):
    return ", ".join(map(repr, vals))


def _fmt_mask(mask):
    return ", ".join("1" if v else "0" for v in mask)


# The scenario grammar, in serialize() order: key, ScenarioConfig field,
# parser, formatter.  validate() checks that the fields formatted by repr
# (floats) and _fmt_floats (float vectors) are finite, since overrides and
# hand-built configs never pass through the parsers.
_KEYS = (
    ("plant.c1", "c1", _float, repr),
    ("plant.c2", "c2", _float, repr),
    ("plant.c3", "c3", _float, repr),
    ("plant.sigma", "sigma", _float, repr),
    ("init.x", "x0", _floats(2), _fmt_floats),
    ("init.v", "v0", _floats(2), _fmt_floats),
    ("init.eta1", "eta1_0", _floats(4), _fmt_floats),
    ("init.eta2", "eta2_0", _floats(8), _fmt_floats),
    ("init.khat", "khat0", _float, repr),
    ("model.m1", "m1", _floats(4), _fmt_floats),
    ("model.m2", "m2", _floats(8), _fmt_floats),
    ("mapping.epsilon", "epsilon", _float, repr),
    ("mapping.mask1", "mask1", _mask(2), _fmt_mask),
    ("mapping.mask2", "mask2", _mask(4), _fmt_mask),
    ("gains.rho", "rho", Polynomial.parse, Polynomial.format),
    ("gains.k", "k", Polynomial.parse, Polynomial.format),
    ("gains.k0", "k0", _float, repr),
    ("sim.h", "h", _float, repr),
    ("sim.t_end", "t_end", _float, repr),
    ("sim.stride", "stride", _int, "%d".__mod__),
    ("sim.disturbance_amp", "disturbance_amp", _float, repr),
    ("sim.disturbance_freq", "disturbance_freq", _float, repr),
    ("mode", "mode", _mode, str),
)
_PARSERS = {key: (name, parse) for key, name, parse, _ in _KEYS}


def loads(text: str) -> ScenarioConfig:
    """Parse scenario text; ScenarioError lists every problem at once, in
    line order."""
    errors = []
    seen = set()
    kw = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, eq, val = line.partition("=")
        key = key.strip()
        if not eq:
            errors.append("line %d: expected key = value, got %r" % (lineno, raw.strip()))
        elif key in seen:
            errors.append("line %d: duplicate key %r" % (lineno, key))
        elif key not in _PARSERS:
            seen.add(key)
            errors.append("line %d: unknown key %r" % (lineno, key))
        else:
            seen.add(key)
            name, parse = _PARSERS[key]
            try:
                kw[name] = parse(val.strip())
            except ValueError as exc:
                errors.append("line %d: %s: %s" % (lineno, key, exc))
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
    for key, name, _, fmt in _KEYS:
        val = getattr(cfg, name)
        if fmt is repr and not math.isfinite(val):
            errors.append("%s: must be finite, got %r" % (key, val))
        elif fmt is _fmt_floats and not all(map(math.isfinite, val)):
            errors.append("%s: values must be finite, got %r" % (key, val))
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
    try:
        _mode(cfg.mode)
    except ValueError as exc:
        errors.append("mode: %s" % exc)
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
    return "".join("%s = %s\n" % (key, fmt(getattr(cfg, name)))
                   for key, name, _, fmt in _KEYS)


def with_overrides(cfg: ScenarioConfig, **kw) -> ScenarioConfig:
    """replace() plus re-validation; used by sweeps and CLI flags."""
    out = replace(cfg, **kw)
    validate(out)
    return out

