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
(never fails) when it cannot prove them.  The gain shapes rho and k are
scenario.Polynomial values.  No saturation or rate limiting is applied to u.
"""

from __future__ import annotations

from typing import Tuple

from .internal_model import _component, filter_matrix
from .linalg import ShapeError, mat_vec
from .mapping import chi


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
