"""Feedback laws and filter dynamics.

The stabilization variable is zeta = x2 - chi_1(eta1) + rho(e) e.  The
static law is u = -k0 k(zeta) zeta + chi_2(eta2); the adaptive variant
replaces k0 by an integrated gain k_hat with k_hat' = k(zeta) zeta^2 >= 0.
The two filters run eta1' = M1 eta1 + N x2 and eta2' = M2 eta2 + N u,
with M_i the companion of m_i and N the last basis column.  The laws read
rho, k and k0 from cfg, a scenario.ScenarioConfig; chi_i reads
internal-model component i (m_i, epsilon, mask_i) from the same config (see
mapping), and filter_derivative its m_i.  The stability analysis behind
them assumes rho(s) >= 1, k(s) >= 1 and k0 >= 1; scenario.validate warns
(never fails) when it cannot prove them.

Gain shapes rho and k are restricted polynomials parsed from text such as
"10 + 4*s^4"; coefficients are finite decimals or rationals like 3/2 with
nonzero denominators, no scientific notation.  No saturation or rate
limiting is applied to u.
"""

from __future__ import annotations

import math
import re
from typing import Sequence, Tuple

from .internal_model import _component, filter_matrix
from .linalg import ShapeError, mat_vec
from .mapping import chi
from .record import Record

# The highest power a gain polynomial may have.  The kernels evaluate rho
# and k by Horner four times per RK4 step, so a step costs time linear in
# the degree: raising both gains from degree 4 to 64 made a pure-python step
# 1.6-1.8 times as long (steady orbit, 5,000 steps, CPython 3.11 on a 2-CPU
# Linux machine), so scenario.MAX_STEPS still bounds a run's time.
# The stock gains have degree 4.
MAX_GAIN_DEGREE = 64

_TERM_RE = re.compile(r"^([0-9]+(?:\.[0-9]*)?|\.[0-9]+)?(?:/([0-9]+(?:\.[0-9]*)?))?(\*?s(?:\^([0-9]+))?)?$")


class GainSyntaxError(ValueError):
    """Gain expression text outside the restricted polynomial grammar."""


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
            raise GainSyntaxError("empty gain expression")
        if compact[0] not in "+-":
            compact = "+" + compact
        # split into sign/body chunks; '-' only appears as a term sign in
        # this grammar (no scientific notation)
        pieces = re.findall(r"[+-][^+-]+", compact)
        if "".join(pieces) != compact:
            raise GainSyntaxError("cannot tokenize gain expression %r" % text)
        degree_to_coeff = {}
        for piece in pieces:
            sign = -1.0 if piece[0] == "-" else 1.0
            m = _TERM_RE.match(piece[1:])
            if not m or (m.group(1) is None and m.group(3) is None):
                raise GainSyntaxError("bad term %r in gain expression %r" % (piece, text))
            num, den, svar, power = m.groups()
            if den is not None and num is None:
                raise GainSyntaxError("bad term %r in gain expression %r" % (piece, text))
            if svar is not None and svar.startswith("*") and num is None:
                raise GainSyntaxError("bad term %r in gain expression %r" % (piece, text))
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
                raise GainSyntaxError("term %r has degree above %d in gain expression %r"
                                      % (piece, MAX_GAIN_DEGREE, text))
            degree_to_coeff[deg] = degree_to_coeff.get(deg, 0.0) + sign * coeff
        if not all(map(math.isfinite, degree_to_coeff.values())):
            raise GainSyntaxError("gain expression %r has a zero denominator or a "
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


def zeta(x2: float, eta1, e: float, cfg) -> float:
    """zeta = x2 - chi_1(eta1) + rho(e) e."""
    return x2 - chi(eta1, cfg, 1) + cfg.rho(e) * e


def control_nonadaptive(zeta_val: float, eta2, cfg) -> float:
    """u = -k0 k(zeta) zeta + chi_2(eta2)."""
    return -cfg.k0 * cfg.k(zeta_val) * zeta_val + chi(eta2, cfg, 2)


def control_adaptive(zeta_val: float, eta2, k_hat: float, cfg) -> Tuple[float, float]:
    """u = -k_hat k(zeta) zeta + chi_2(eta2), with k_hat' = k(zeta) zeta^2.

    Returns (u, k_hat_dot); the caller integrates k_hat alongside the
    plant.  k_hat_dot is nonnegative by construction.
    """
    kz = cfg.k(zeta_val)
    u = -k_hat * kz * zeta_val + chi(eta2, cfg, 2)
    return u, kz * zeta_val * zeta_val


def filter_derivative(eta, w: float, cfg, i: int) -> list:
    """M_i eta + N w, the filter dynamics of internal-model component i of
    scenario config cfg; N is the last basis column, so w enters the last
    entry alone."""
    m, _ = _component(cfg, i)
    x = [float(v) for v in eta]
    if len(x) != len(m):
        raise ShapeError("eta%d has %d entries, expected %d" % (i, len(x), len(m)))
    d = mat_vec(filter_matrix(m), x)
    d[-1] += w
    return d
