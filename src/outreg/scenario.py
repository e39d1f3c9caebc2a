"""Scenario configuration: a flat key = value text format.

One assignment per line, dotted keys group related settings, `#` starts a
comment, blank lines are ignored.  Numbers are ASCII without '_'; vector
values are comma-separated numbers; a gain is a Polynomial in s written
like "10 + 4*s^4", with finite decimal or rational (3/2) coefficients and no
exponent.
Every key is optional: an empty file is the stock benchmark scenario, and
scenarios/default.scn spells out every key at its default (a test pins it
to ScenarioConfig() and to the key table _KEYS below).
`init = steady` is no field: loads sets init.x, init.eta1 and init.eta2 on
the file's steady orbit (steady_start) once, and overrides keep that start.
Unknown keys and bad syntax are hard errors, as is a value that breaks a
rule of its key, which _violation states once (type, length, finiteness,
gain degree, range, Hurwitz m1 and m2, mode) for files, overrides, flags
and hand-built configs alike; all such violations are listed at once, a
file's with its line, a flag's with its name.  _routh_failure is the
package's only Hurwitz check: the filter math holds for any m.  Only
without one is the run length checked (1..MAX_STEPS steps, at most
MAX_RECORDS records), a file's on the last line of sim.h, sim.t_end and
sim.stride.  Benchmark-box checks (plant, sigma) and unprovable gain
bounds only warn, for a config with no violation.  loads judges a file
once, as it reads it, not through validate.
"""

from __future__ import annotations

import math
import re
import sys
import warnings
from typing import Sequence

from .duffing import regulator_solution, steady_state_theta
from .record import Record

# in kernel order: simulate passes each mode's index here as its mode code
MODES = ("nonadaptive", "adaptive", "open_loop")

# The most RK4 steps a run may take.  The pure-python twin integrates about
# 30k steps/s at the stock gains and 21k at degree-64 gains on a 2-CPU Linux
# machine with CPython 3.11 (the C twin about 1.5M; steady orbit,
# nonadaptive), so this keeps one run to about six minutes there (eight
# at degree 64, seven seconds compiled) instead of the days an
# unchecked horizon such as t_end = 1e9 would take.  The largest run
# anything here makes is 200,000 steps (acceptance criterion 10 at h/2).
MAX_STEPS = 10_000_000

# The most records a run may keep.  `outreg run` peaks at about 617 B per
# record (the kernel's float64 rows, which SimLog keeps, the CSV text, and
# the plotted columns as float lists; the growth of the run's peak RSS, read
# by wait4, from 10,001 to 100,001 records with CPython 3.11 and the C twin
# at stride 1), so this bounds one run near 0.62 GB, and a 4-worker sweep
# near four times that.  The stock scenario keeps 10,001.
MAX_RECORDS = 1_000_000

# The highest power a gain polynomial may have.  The kernels evaluate rho
# and k by Horner four times per RK4 step, so a step costs time linear in
# the degree: raising both gains from degree 4 to 64 makes a pure-python step
# about 1.4 times as long (30k against 21k steps/s; steady orbit, 5,000
# steps, CPython 3.11 on a 2-CPU Linux machine), so MAX_STEPS still bounds
# a run's time.
# The stock gains have degree 4.
MAX_GAIN_DEGREE = 64


class ScenarioError(ValueError):
    """Config rejected; str(err) lists every violation, one per line."""

    def __init__(self, violations):
        self.violations = tuple(violations)
        super().__init__("\n".join(self.violations))

    def __reduce__(self):
        # rebuild from the violations, not from args (the joined message),
        # so the error crosses a pickle (a forked child's result) intact
        return (type(self), (self.violations,))


# A parser, Polynomial.parse among them, reads a value's syntax only
# (_violation judges the value) or raises ValueError whose message follows
# "line N: key: " in the error.

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


_TERM_RE = re.compile(r"^([0-9]+(?:\.[0-9]*)?|\.[0-9]+)?(?:/([0-9]+(?:\.[0-9]*)?))?(\*?s(?:\^([0-9]+))?)?$")


class Polynomial(Record):
    """Real polynomial, coefficients ascending: coeffs[j] multiplies s^j."""

    _fields = ("coeffs",)

    def __init__(self, coeffs: Sequence[float]):
        vals = [float(c) for c in coeffs]
        while len(vals) > 1 and vals[-1] == 0.0:
            vals.pop()
        if not vals:
            vals = [0.0]
        self.__dict__["coeffs"] = tuple(vals)

    @classmethod
    def parse(cls, text: str) -> "Polynomial":
        """Parse "c0 + c1*s + c2*s^2" style expressions."""
        compact = text.replace(" ", "").replace("\t", "")
        if not compact:
            raise ValueError("empty gain expression")
        if compact[0] not in "+-":
            compact = "+" + compact
        # split into sign/body chunks; '-' only appears as a term sign in
        # this grammar (no scientific notation)
        pieces = re.findall(r"[+-][^+-]+", compact)
        if "".join(pieces) != compact:
            raise ValueError("cannot tokenize gain expression %r" % text)
        degree_to_coeff = {}
        for piece in pieces:
            sign = -1.0 if piece[0] == "-" else 1.0
            m = _TERM_RE.match(piece[1:])
            num, den, svar, power = m.groups() if m else (None,) * 4
            # a term needs a number or s, and "/d" and "*s" need a number
            if not m or (num is None and (svar is None or den is not None or svar.startswith("*"))):
                raise ValueError("bad term %r in gain expression %r" % (piece, text))
            coeff = float(num) if num is not None else 1.0
            if den is not None:
                # a denominator of 0, or one such as 0.000...1 that rounds to
                # 0.0, gives nan, which the finiteness check below rejects
                coeff = coeff / float(den) if float(den) else math.nan
            if svar is None:
                deg = 0
            elif power is None:
                deg = 1
            else:
                # int() refuses very long digit strings: count the digits first
                deg = int(power) if len(power.lstrip("0")) < 10 else MAX_GAIN_DEGREE + 1
            if deg > MAX_GAIN_DEGREE:
                raise ValueError("term %r has degree above %d in gain expression %r"
                                 % (piece, MAX_GAIN_DEGREE, text))
            degree_to_coeff[deg] = degree_to_coeff.get(deg, 0.0) + sign * coeff
        if not all(map(math.isfinite, degree_to_coeff.values())):
            raise ValueError("gain expression %r has a zero denominator or a "
                             "coefficient that is not finite" % text)
        top = max(degree_to_coeff)
        return cls([degree_to_coeff.get(d, 0.0) for d in range(top + 1)])

    def format(self) -> str:
        """Canonical text form; parse(format()) round-trips."""
        parts = []
        for deg, c in enumerate(self.coeffs):
            if c == 0.0 and not (deg == 0 and len(self.coeffs) == 1):
                continue
            mag = abs(c)
            coeff_txt = "%d" % mag if float(mag).is_integer() else repr(mag)
            if "e" in coeff_txt:
                # repr writes a non-integer below 1e-4 as d.ddde-N, and the
                # gain grammar has no exponent: the same digits, positionally
                digits, _, exp = coeff_txt.partition("e")
                coeff_txt = "0." + "0" * (-int(exp) - 1) + digits.replace(".", "")
            if deg == 0:
                body = coeff_txt
            else:
                svar = "s" if deg == 1 else "s^%d" % deg
                body = svar if mag == 1.0 else "%s*%s" % (coeff_txt, svar)
            if not parts:
                parts.append(body if c >= 0 else "-" + body)
            else:
                parts.append(("+ " if c >= 0 else "- ") + body)
        return " ".join(parts) if parts else "0"

    def __call__(self, s: float) -> float:
        # Horner, highest degree first; evaluation order matches the
        # simulation kernels bit for bit
        acc = 0.0
        for c in reversed(self.coeffs):
            acc = acc * s + c
        return acc

    def provably_at_least_one(self) -> bool:
        """Conservative check that p(s) >= 1 for ALL real s.

        Sufficient condition: constant term >= 1, every other coefficient
        nonnegative, and no odd-degree terms.  The benchmark gains satisfy
        it; anything fancier is the caller's risk.
        """
        if self.coeffs[0] < 1.0:
            return False
        for deg, c in enumerate(self.coeffs[1:], start=1):
            if c < 0.0 or (deg % 2 == 1 and c != 0.0):
                return False
        return True


# The scenario grammar, in serialize() order: key, ScenarioConfig field,
# parser, formatter, default.  Each rule for a key's value is a clause of
# _violation, which reads the parser and formatter as the value's kind.
# The float and float-vector fields are sweep axes.
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
_STEADY_KEYS = ("init.x", "init.eta1", "init.eta2")


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
    line order, or else the run-length violation, on the last line of
    sim.h, sim.t_end and sim.stride."""
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
                kw[_ROWS[key][1]], err = _read(key, val)
                if err:
                    errors.append((lineno, err))
    if "init" in lines:
        errors += [(lines[k], "%s: not allowed with init = steady (line %d)" % (k, lines["init"]))
                   for k in _STEADY_KEYS if k in lines]
    cfg = ScenarioConfig(**kw)
    if not errors:
        last = max(lines.get(k, 0) for k in ("sim.h", "sim.t_end", "sim.stride"))
        errors = [(last, err) for err in _run_length_errors(cfg)]
    if errors:
        raise ScenarioError("line %d: %s" % err for err in sorted(errors))
    cfg = _warn(cfg)
    if "init" in lines:
        try:
            cfg = steady_start(cfg)
        except ValueError as exc:
            raise ScenarioError(["line %d: init: %s" % (lines["init"], exc)]) from None
    return cfg


def steady_start(cfg: ScenarioConfig) -> ScenarioConfig:
    """cfg (valid) started on its steady orbit at v0: the plant on the
    regulator-equation solution, each filter at theta = Q xi(v0).  ValueError
    when Q cannot be formed or a derived value is not finite.  loads has
    already given cfg's box warnings; this gives none."""
    out = cfg.replace(x0=regulator_solution(cfg.v0, cfg)[:2],
                      eta1_0=steady_state_theta(cfg.v0, cfg, 1),
                      eta2_0=steady_state_theta(cfg.v0, cfg, 2))
    errors = _malformed(out, _STEADY_KEYS)
    if errors:
        raise ValueError("derived " + "; ".join(errors))
    return out


def validate(cfg: ScenarioConfig):
    """cfg, after _warn, or ScenarioError listing every _violation of its
    fields, in _KEYS order, or else its run-length violation.  loads does
    not call it: a file's lines are judged as they are read."""
    errors = _malformed(cfg) or _run_length_errors(cfg)
    if errors:
        raise ScenarioError(errors)
    return _warn(cfg)


def _warn(cfg: ScenarioConfig):
    """cfg, which has no violation, after its warnings, each naming this
    module: the benchmark-box checks, then the gain bounds."""
    for name in ("c1", "c2", "c3", "sigma"):
        val, low = float(getattr(cfg, name)), 0.1 if name == "sigma" else -2.0
        if not low <= val <= 2.0:
            warnings.warn("%s = %r is outside the benchmark box [%g, 2]" % (name, val, low))
    # the stability analysis behind the feedback laws assumes rho(s) >= 1,
    # k(s) >= 1 and k0 >= 1
    for name, gain in (("rho", cfg.rho), ("k", cfg.k)):
        if not gain.provably_at_least_one():
            warnings.warn("cannot prove %s(s) >= 1 for all s: %r" % (name, gain.format()))
    if cfg.k0 < 1.0:
        warnings.warn("k0 = %g is below the k0 >= 1 design bound" % cfg.k0)
    return cfg


def _malformed(cfg: ScenarioConfig, keys=_ROWS) -> list:
    """_violation of each field of the given keys, in _KEYS order."""
    return list(filter(None, (_violation(_ROWS[k], getattr(cfg, _ROWS[k][1])) for k in keys)))


def _read(key, text):
    """(value or None, "key: message" or None) of key's value text."""
    row = _ROWS[key]
    try:
        val = row[2](text)
    except ValueError as exc:
        return None, "%s: %s" % (key, exc)
    return val, _violation(row, val)


def _violation(row, val):
    """"key: message" if val is no legal value of _KEYS row `row`, else None:
    the one statement of each key's rules: type, length, finiteness, gain
    degree, range, Hurwitz gate and mode, each checked only on a value that
    passed the ones before.  A number is an int or a float (not a bool), a
    vector or mask a tuple, a mask entry a bool, the stride an int and a
    gain a Polynomial: the types whose repr and formatter loads reads back
    to an equal, hashable config."""
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
    if parse is _int and not 1 <= val <= MAX_STEPS:
        return "%s: must be %s, got %s" % (
            key, ">= 1" if val < 1 else "<= %d" % MAX_STEPS, _repr(val))
    if key in ("plant.sigma", "mapping.epsilon", "sim.h", "sim.t_end") and not val > 0:
        return "%s: must be > 0, got %s" % (key, _repr(val))
    failure = key in ("model.m1", "model.m2") and _routh_failure(val)
    if failure:
        return "%s: M%s not Hurwitz (%s)" % (key, key[-1], failure)
    if fmt is str and val not in MODES:
        return "%s: must be one of %s, got %s" % (key, "/".join(MODES), _repr(val))


# Hurwitz gate: strictly inside the left half-plane with a safety margin
_HURWITZ_MARGIN = -1e-6


def _routh_failure(coeffs: tuple):
    """Routh-Hurwitz test that every root of s^k + c_k s^(k-1) + ... + c_1 has
    Re < _HURWITZ_MARGIN; a root on the margin counts as outside.

    Returns None when the test passes, else the message that names the first
    Routh array row, 1..k below the leading one, whose first-column entry is
    not > 0, and that entry."""
    p = [1.0] + list(reversed(coeffs))  # descending
    k = len(coeffs)
    # Taylor shift: p(z + margin), by repeated synthetic division; every root
    # of p has Re < margin exactly when the shifted polynomial is Hurwitz
    for i in range(k):
        for j in range(1, k + 1 - i):
            p[j] += _HURWITZ_MARGIN * p[j - 1]
    # Routh array, two rows at a time; Hurwitz iff its first column is > 0
    prev, cur = p[0::2], p[1::2]
    for row in range(1, k + 1):
        if not cur[0] > 0.0:
            return ("filter polynomial shifted by %g fails Routh-Hurwitz: row %d of %d "
                    "has first-column entry %r, not > 0" % (_HURWITZ_MARGIN, row, k, cur[0]))
        r = prev[0] / cur[0]
        prev, cur = cur, [a - r * b for a, b in zip(prev[1:], cur[1:] + [0.0])]
    return None


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
    """cfg.replace() plus re-validation; used by sweep points and acceptance runs."""
    return validate(cfg.replace(**kw))

