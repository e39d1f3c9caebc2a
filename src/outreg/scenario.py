"""Scenario configuration: a flat key = value text format.

One assignment per line, dotted keys group related settings, `#` starts a
comment, blank lines are ignored.  Numbers are ASCII without '_'; vector
values are comma-separated numbers; gain expressions are polynomial text
(see controller.Polynomial).
Every key is optional: an empty file is the stock benchmark scenario, and
scenarios/default.scn spells out every key at its default (a test pins it
to ScenarioConfig() and to the key table _KEYS below).
`init = steady` is no field: loads sets init.x, init.eta1 and init.eta2 on
the file's steady orbit (steady_start) once, and overrides keep that start.
Unknown keys are hard errors, as are non-finite numbers, non-Hurwitz filter
coefficients, nonpositive step/horizon/epsilon, a stride outside
1..MAX_STEPS, a horizon that rounds to zero steps, more than MAX_STEPS steps
or MAX_RECORDS records, wrong vector lengths and gains above
controller.MAX_GAIN_DEGREE, in files, overrides and hand-built configs alike;
parse errors carry their line number and are listed in line order.
Benchmark-box checks (plant, sigma) and unprovable gain bounds only warn.
"""

from __future__ import annotations

import math
import sys
import warnings

from .controller import MAX_GAIN_DEGREE, Polynomial
from .duffing import regulator_solution, steady_state_theta
from .internal_model import NotHurwitzError, filter_matrix
from .record import Record

# in kernel order: simulate passes each mode's index here as its mode code
MODES = ("nonadaptive", "adaptive", "open_loop")

# The most RK4 steps a run may take.  The pure-python twin integrates about
# 23k steps/s at the stock gains and 15k at degree-64 gains on a 2-CPU Linux
# machine with CPython 3.11 (the C twin about 1.5M; steady orbit,
# nonadaptive), so this keeps one run under about seven minutes there
# (eleven at degree 64, seven seconds compiled) instead of the days an
# unchecked horizon such as t_end = 1e9 would take.  The largest run
# anything here makes is 200,000 steps (acceptance criterion 10 at h/2).
MAX_STEPS = 10_000_000

# The most records a run may keep.  `outreg run` peaks at about 642 B per
# record (float64 rows in the kernel and SimLog, the CSV text, and the
# plotted columns as float lists; the growth of the run's peak RSS, read by
# os.wait4, from 10,001 to 100,001 records with CPython 3.11 and the C twin
# at stride 1), so this bounds one run near 0.65 GB, and a 4-worker sweep
# near four times that.  The stock scenario keeps 10,001.
MAX_RECORDS = 1_000_000


class ScenarioError(ValueError):
    """Config rejected; str(err) lists every violation, one per line."""

    def __init__(self, violations):
        self.violations = tuple(violations)
        super().__init__("\n".join(self.violations))

    def __reduce__(self):
        # rebuild from the violations, not from args (the joined message),
        # so the error crosses a pickle (a forked child's result) intact
        return (type(self), (self.violations,))


# A parser reads a value's syntax only (_violation judges the value) or
# raises ValueError whose message follows "line N: key: " in the error.

def _number(text, kind=float):
    # kind(text) for ASCII text without '_' only: float() and int() also read
    # other scripts' digits and '_' digit separators
    if text.isascii() and "_" not in text:
        try:
            return kind(text)
        except ValueError:
            pass
    raise ValueError("not a number: %r" % text)


def _floats(text):
    try:
        return tuple(map(_number, text.split(",")))
    except ValueError:
        raise ValueError("not a number list: %r" % text) from None


_MASK_WORDS = {"0": False, "false": False, "no": False,
               "1": True, "true": True, "yes": True}


def _mask(text):
    vals = []
    for p in text.split(","):
        p = p.strip().lower()
        if p not in _MASK_WORDS:
            raise ValueError("mask entries must be 0/1, got %r" % p)
        vals.append(_MASK_WORDS[p])
    return tuple(vals)


def _int(text):
    try:
        return _number(text, int)
    except ValueError:
        raise ValueError("not an integer: %r" % text) from None


def _fmt_floats(vals):
    return ", ".join(map(repr, vals))


def _fmt_mask(mask):
    return ", ".join("1" if v else "0" for v in mask)


# The scenario grammar, in serialize() order: key, ScenarioConfig field,
# parser, formatter, default; _violation reads the parser and formatter as
# the value's kind.  The float and float-vector fields are sweep axes.
_KEYS = (
    ("plant.c1", "c1", _number, repr, -2.0),
    ("plant.c2", "c2", _number, repr, 1.5),
    ("plant.c3", "c3", _number, repr, 0.5),
    ("plant.sigma", "sigma", _number, repr, 0.5),
    ("init.x", "x0", _floats, _fmt_floats, (1.0, -1.0)),
    ("init.v", "v0", _floats, _fmt_floats, (1.0, 1.0)),
    ("init.eta1", "eta1_0", _floats, _fmt_floats, (0.0,) * 4),
    ("init.eta2", "eta2_0", _floats, _fmt_floats, (0.0,) * 8),
    ("init.khat", "khat0", _number, repr, 0.0),
    ("model.m1", "m1", _floats, _fmt_floats, (10.0, 18.0, 15.0, 6.0)),
    ("model.m2", "m2", _floats, _fmt_floats, (1.0, 5.0, 13.0, 22.0, 26.0, 22.0, 13.0, 5.0)),
    ("mapping.epsilon", "epsilon", _number, repr, 0.1),
    ("mapping.mask1", "mask1", _mask, _fmt_mask, (False, True)),
    ("mapping.mask2", "mask2", _mask, _fmt_mask, (False, True, False, True)),
    ("gains.rho", "rho", Polynomial.parse, Polynomial.format,
     Polynomial((10.0, 0.0, 0.0, 0.0, 4.0))),
    ("gains.k", "k", Polynomial.parse, Polynomial.format, Polynomial((1.0, 0.0, 1.0))),
    ("gains.k0", "k0", _number, repr, 1.0),
    ("sim.h", "h", _number, repr, 1e-3),
    ("sim.t_end", "t_end", _number, repr, 100.0),
    ("sim.stride", "stride", _int, "%d".__mod__, 10),
    ("sim.disturbance_amp", "disturbance_amp", _number, repr, 0.0),
    ("sim.disturbance_freq", "disturbance_freq", _number, repr, 0.0),
    ("mode", "mode", str, str, "nonadaptive"),
)
_ROWS = {row[0]: row for row in _KEYS}


class ScenarioConfig(Record):
    """One scenario: a field per _KEYS row, built by keyword; a field left
    out takes its row's default.  The fields are stored as given (validate
    checks them)."""

    _fields = tuple(row[1] for row in _KEYS)

    def __init__(self, **kw):
        for _, name, _, _, default in _KEYS:
            self.__dict__[name] = kw.pop(name, default)
        if kw:
            raise TypeError("ScenarioConfig() got an unexpected keyword argument %r"
                            % next(iter(kw)))

    def replace(self, **changes) -> ScenarioConfig:
        """A copy with the given fields changed (not validated)."""
        return ScenarioConfig(**{**self.__dict__, **changes})

    @property
    def n_steps(self) -> int:
        return int(round(self.t_end / self.h))


def loads(text: str) -> ScenarioConfig:
    """Parse scenario text; ScenarioError lists every problem at once, in
    line order."""
    errors = []  # (line, message)
    lines = {}  # key -> its line
    kw = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, eq, val = line.partition("=")
        key, val = key.strip(), val.strip()
        if not eq:
            errors.append((lineno, "expected key = value, got %r" % raw.strip()))
        elif key in lines:
            errors.append((lineno, "duplicate key %r" % key))
        else:
            lines[key] = lineno
            if key == "init":
                if val != "steady":
                    errors.append((lineno, "init: must be steady, got %r" % val))
            elif key not in _ROWS:
                errors.append((lineno, "unknown key %r" % key))
            else:
                _, name, parse, _, _ = row = _ROWS[key]
                try:
                    kw[name] = parse(val)
                except ValueError as exc:
                    err = "%s: %s" % (key, exc)
                else:
                    err = _violation(row, kw[name])
                if err:
                    errors.append((lineno, err))
    if "init" in lines:
        errors += [(lines[k], "%s: not allowed with init = steady (line %d)" % (k, lines["init"]))
                   for k in ("init.x", "init.eta1", "init.eta2") if k in lines]
    if errors:
        raise ScenarioError("line %d: %s" % err for err in sorted(errors))
    cfg = validate(ScenarioConfig(**kw))
    if "init" in lines:
        try:
            cfg = steady_start(cfg)
        except ValueError as exc:
            raise ScenarioError(["line %d: init: %s" % (lines["init"], exc)]) from None
    return cfg


def steady_start(cfg: ScenarioConfig) -> ScenarioConfig:
    """cfg (valid) started on its steady orbit at v0: the plant on the
    regulator-equation solution, each filter at theta = Q xi(v0).  ValueError
    when Q cannot be formed or a derived value is not finite.  validate has
    already given cfg's box warnings; this gives none."""
    out = cfg.replace(x0=regulator_solution(cfg.v0, cfg)[:2],
                      eta1_0=steady_state_theta(cfg.v0, cfg, 1),
                      eta2_0=steady_state_theta(cfg.v0, cfg, 2))
    errors = _malformed(out)
    if errors:
        raise ValueError("derived " + "; ".join(errors))
    return out


def validate(cfg: ScenarioConfig):
    """Hard checks raise ScenarioError (all violations at once); the
    benchmark-box and gain-bound checks only warn, naming this module.
    The box warnings come even beside violations, but not for sigma <= 0;
    the gain warnings only for a config without violations.

    _violation's findings (wrong types and lengths, non-finite numbers,
    gains above controller.MAX_GAIN_DEGREE, a stride above MAX_STEPS,
    unknown modes) are reported first and alone, since every other check
    assumes them absent.
    """
    errors = _malformed(cfg)
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
    for name, m, label in (("model.m1", cfg.m1, "M1"), ("model.m2", cfg.m2, "M2")):
        try:
            filter_matrix(m)
        except NotHurwitzError as exc:
            errors.append("%s: %s not Hurwitz (%s)" % (name, label, exc))
    if cfg.sigma <= 0.0:
        errors.append("plant: sigma must be positive, got %r" % (float(cfg.sigma),))
    else:
        for name in ("c1", "c2", "c3", "sigma"):
            val, low = float(getattr(cfg, name)), 0.1 if name == "sigma" else -2.0
            if not low <= val <= 2.0:
                warnings.warn("%s = %r is outside the benchmark box [%g, 2]" % (name, val, low))
    if errors:
        raise ScenarioError(errors)
    # the stability analysis behind the feedback laws assumes rho(s) >= 1,
    # k(s) >= 1 and k0 >= 1
    for name, gain in (("rho", cfg.rho), ("k", cfg.k)):
        if not gain.provably_at_least_one():
            warnings.warn("cannot prove %s(s) >= 1 for all s: %r" % (name, gain.format()))
    if cfg.k0 < 1.0:
        warnings.warn("k0 = %g is below the k0 >= 1 design bound" % cfg.k0)
    return cfg


def _malformed(cfg: ScenarioConfig) -> list:
    """_violation of each field, in _KEYS order."""
    return list(filter(None, (_violation(row, getattr(cfg, row[1])) for row in _KEYS)))


def _violation(row, val):
    """"key: message" if val is no legal value of _KEYS row `row`, else None:
    the one statement of type, length, finiteness, gain degree, stride bound
    and mode.  A number is an int or a float (not a bool), a vector or mask a
    tuple, a mask entry a bool, the stride an int and a gain a Polynomial:
    the types whose repr and formatter loads reads back to an equal,
    hashable config."""
    key, _, parse, fmt, default = row
    if fmt is repr and not _is_number(val):
        return "%s: not a number: %s" % (key, _repr(val))
    if fmt is _fmt_floats and not (type(val) is tuple and all(map(_is_number, val))):
        return "%s: not a number list: %s" % (key, _repr(val))
    if fmt is _fmt_mask and not (type(val) is tuple and all(type(x) is bool for x in val)):
        return "%s: mask entries must be 0/1, got %s" % (key, _repr(val))
    if fmt is Polynomial.format and type(val) is not Polynomial:
        return "%s: not a Polynomial: %s" % (key, _repr(val))
    if parse is _int and type(val) is not int:
        return "%s: not an integer: %s" % (key, _repr(val))
    if fmt in (_fmt_floats, _fmt_mask) and len(val) != len(default):
        return "%s: expected %d %s, got %d" % (
            key, len(default), "values" if fmt is _fmt_floats else "entries", len(val))
    if fmt is Polynomial.format and len(val.coeffs) > MAX_GAIN_DEGREE + 1:
        return "%s: degree %d is above %d" % (key, len(val.coeffs) - 1, MAX_GAIN_DEGREE)
    if fmt is repr and not _finite(val):
        return "%s: must be finite, got %s" % (key, _repr(val))
    if fmt is _fmt_floats and not all(map(_finite, val)):
        return "%s: values must be finite, got %s" % (key, _repr(val))
    if fmt is Polynomial.format and not all(map(_finite, val.coeffs)):
        return "%s: coefficients must be finite, got %r" % (key, val.coeffs)
    if parse is _int and val > MAX_STEPS:
        return "%s: must be <= %d, got %s" % (key, MAX_STEPS, _repr(val))
    if fmt is str and val not in MODES:
        return "%s: must be one of %s, got %s" % (key, "/".join(MODES), _repr(val))


def _is_number(x) -> bool:
    return type(x) in (int, float)


def _finite(x) -> bool:
    # math.isfinite raises OverflowError for an int beyond the float range
    return abs(x) <= sys.float_info.max


def _repr(val) -> str:
    # repr of an int with more digits than sys.get_int_max_str_digits(), or
    # of a value holding one, raises ValueError
    try:
        return repr(val)
    except ValueError:
        return "<%s too long to print>" % type(val).__name__


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
    """loads() of the file's UTF-8 text; bytes that are not UTF-8 are a
    ScenarioError naming their line and byte offset."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ScenarioError(["line %d: not UTF-8: byte 0x%02x at offset %d" % (
            data.count(b"\n", 0, exc.start) + 1, data[exc.start], exc.start)]) from None
    return loads(text)


def serialize(cfg: ScenarioConfig) -> str:
    """Canonical text form; loads(serialize(cfg)) == cfg."""
    return "".join("%s = %s\n" % (key, fmt(getattr(cfg, name)))
                   for key, name, _, fmt, _ in _KEYS)


def with_overrides(cfg: ScenarioConfig, **kw) -> ScenarioConfig:
    """cfg.replace() plus re-validation; used by sweeps and CLI flags."""
    return validate(cfg.replace(**kw))

