"""Acceptance suite: ten numbered criteria the package is judged against.

Each criterion function returns (name, passed, detail, seconds).  Every
criterion reads the stock benchmark scenario _STOCK = ScenarioConfig():
criteria 1-5 take its plant point and internal models (m_i, epsilon,
mask_i) as the oracle's inputs, and every run of criteria 6-10, with its
report, comes from _run, which integrates _STOCK with the criterion's
changes once per context.  When a run escapes in finite time the criterion
reports the divergence instead of a trailing-window metric and fails
honestly.
See README "Behavior notes" for the analysis of the stock cold-start
escape.

run_all(seed) executes all ten, split between forked children and the
calling process as _GROUPS says.
"""

from __future__ import annotations

import math
import random
import time
from functools import partial

from .duffing import (
    duffing_coeffs,
    exo_flow,
    exo_flows,
    regulator_solution,
    steady_state_lead,
    steady_state_leads,
    steady_state_q,
    steady_state_theta,
)
from .controller import filter_derivative
from .internal_model import (_component, admissible_from_frequencies, q_matrix,
                             sylvester_residual, xi_matrix)
from .linalg import (Matrix, _dot, determinant, identity, mat_mul, mat_pow, mat_vec,
                     solve_columns, transpose, zeros)
from .mapping import _chi_of, _inverse_and_det, chi, estimate_coeffs, hankel, regularized_inverse
from .cli import _fan_out
from .scenario import ScenarioConfig, with_overrides
from .simulate import integrate, metrics
from .closed_forms import closed_form_ahat1, closed_form_ahat2, closed_form_chi1, closed_form_chi2

# the stock benchmark point, as ScenarioConfig() defines it
_STOCK = ScenarioConfig()


def _duffing_pairs():
    a1, a2 = duffing_coeffs(_STOCK)
    return [(a1, _STOCK.m1), (a2, _STOCK.m2)]


def _random_pairs(seed, count):
    """Random admissible coefficient vectors with random Hurwitz partners."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        nf = rng.randint(1, 2)
        freqs = []
        while len(freqs) < nf:
            w = rng.uniform(0.2, 3.0)
            if all(abs(w - f) > 0.05 for f in freqs):
                freqs.append(w)
        n = 2 * nf
        # admissible a: roots +-i*w_j; Hurwitz m: real roots in (-3, -0.3),
        # the constant-first product of 2n factors (s + r)
        a = admissible_from_frequencies(freqs)
        m = [1.0]
        for _ in range(2 * n):
            r = rng.uniform(0.3, 3.0)
            m = [r * c + d for c, d in zip(m + [0.0], [0.0] + m)]
        out.append((a, tuple(m[:-1])))
    return out


def criterion_1(seed, ctx):
    worst = 0.0
    for a, m in _duffing_pairs() + _random_pairs(seed, 100):
        worst = max(worst, sylvester_residual(m, q_matrix(a, m), a))
    passed = worst <= 1e-9
    return ("sylvester-identity", passed,
            "max Frobenius residual %.3g over Duffing pairs + 100 random "
            "admissible pairs (tol 1e-9)" % worst)


def criterion_2(seed, ctx):
    worst = 0.0
    for a, m in _duffing_pairs() + _random_pairs(seed, 100):
        q = q_matrix(a, m)
        n = q.cols
        top = Matrix([q.row(r)[:n] for r in range(n)])
        prod = mat_mul(top, xi_matrix(a, m))
        for r in range(n):
            for c in range(n):
                want = 1.0 if r == c else 0.0
                worst = max(worst, abs(prod.at(r, c) - want))
    passed = worst <= 1e-9
    return ("q-left-inverse", passed,
            "max |top(Q) Xi - I| entry %.3g over the same inputs "
            "(tol 1e-9)" % worst)


def _rel(x, y):
    return abs(x - y) / max(1.0, abs(x), abs(y))


def criterion_3(seed, ctx):
    rng = random.Random(seed + 3)
    worst = 0.0
    for i, est_t, chi_t in ((1, closed_form_ahat1, closed_form_chi1),
                            (2, closed_form_ahat2, closed_form_chi2)):
        m, _ = _component(_STOCK, i)
        for _ in range(1000):
            eta = tuple(rng.uniform(-2.0, 2.0) for _ in range(len(m)))
            a_gen = estimate_coeffs(eta, _STOCK, i)
            a_tab = est_t(eta, _STOCK.epsilon)
            for x, y in zip(a_gen, a_tab):
                worst = max(worst, _rel(x, y))
            worst = max(worst, _rel(_chi_of(eta, a_gen, m), chi_t(eta, a_tab, m)))
    passed = worst <= 1e-10
    return ("closed-form-parity", passed,
            "max relative deviation %.3g between generic mapping and the "
            "literal transcriptions, 1000 random states per component "
            "(tol 1e-10)" % worst)


def criterion_4(seed, ctx):
    rng = random.Random(seed + 4)
    eps = 0.1
    worst_inv = 0.0
    n_exact = 0
    eyes = {n: identity(n).to_lists() for n in (2, 3, 4)}
    # entries are rng.uniform(-2.0, 2.0), by uniform's own formula
    for trial in range(10000):
        n = 2 + trial % 3
        if trial % 100 == 99:
            th = zeros(n, n)
        elif trial % 10 == 9:
            rows = [[-2.0 + 4.0 * rng.random() for _ in range(n)] for _ in range(n - 1)]
            rows.append(list(rows[0]))  # duplicated row: exactly singular
            th = Matrix(rows)
        else:
            th = Matrix([[-2.0 + 4.0 * rng.random() for _ in range(n)]
                         for _ in range(n)])
        o, d = _inverse_and_det(th, eps)  # finite, or linalg.scale raised ValueError
        if d * d >= eps * eps:
            n_exact += 1
            # the columns of Theta^-1 solve Theta x = e_c, from one factorization
            for c, col in enumerate(solve_columns(th, eyes[n])):
                for x, y in zip(o.data[c::n], col):
                    worst_inv = max(worst_inv, abs(x - y))
    zero_ok = all(x == 0.0 for n in (2, 4)
                  for x in regularized_inverse(zeros(n, n), eps).data)
    passed = worst_inv <= 1e-9 and zero_ok
    return ("regularized-inverse", passed,
            "all 10000 outputs finite; %d inputs had det^2 >= eps^2, max "
            "deviation from the true inverse %.3g (tol 1e-9); O(0) = 0 %s"
            % (n_exact, worst_inv, "exactly" if zero_ok else "VIOLATED"))


def _rk4_map(cfg, i, h):
    """One RK4 step of the filter of internal-model component i of cfg,
    eta' = M eta + N w, as a linear map.

    The step is linear in eta and in (w(t), w(t + h/2), w(t + h)), so it is
    exactly eta+ = A eta + B (w(t), w(t + h/2), w(t + h)).  Returns A and
    the three columns of B, read off by applying the step to unit vectors.
    """
    dim = len(_component(cfg, i)[0])
    f = partial(filter_derivative, cfg=cfg, i=i)

    def step(eta, w0, w_half, w1):
        k1 = f(eta, w0)
        k2 = f([e + 0.5 * h * k for e, k in zip(eta, k1)], w_half)
        k3 = f([e + 0.5 * h * k for e, k in zip(eta, k2)], w_half)
        k4 = f([e + h * k for e, k in zip(eta, k3)], w1)
        return [e + h / 6.0 * (a + 2.0 * b + 2.0 * c + d)
                for e, a, b, c, d in zip(eta, k1, k2, k3, k4)]

    A = transpose(Matrix([step(e, 0.0, 0.0, 0.0) for e in identity(dim).to_lists()]))
    return A, [step([0.0] * dim, *u) for u in identity(3).to_lists()]


def _chunk_map(cfg, i, h, steps):
    """Rows of (A^L, G), L = steps, with eta_{k+L} = A^L eta_k + G (w_0, w_1/2, ..., w_L).

    w_j is the input at the start of step j of the chunk and w_j+1/2 at its
    midpoint.  Step j contributes A^(L-1-j) B (w_j, w_j+1/2, w_j+1); w_j+1
    ends step j and starts step j + 1, so its column of G is the sum of both
    contributions.  The columns are built from the last step backwards.
    """
    A, (b0, b1, b2) = _rk4_map(cfg, i, h)
    cols = [b2]
    p0, p1, p2 = b0, b1, b2
    for _ in range(steps - 1):
        cols.append(p1)
        p2 = mat_vec(A, p2)
        cols.append([x + y for x, y in zip(p0, p2)])
        p0, p1 = mat_vec(A, p0), mat_vec(A, p1)
    cols += [p1, p0]
    cols.reverse()
    return mat_pow(A, steps).to_lists(), [list(r) for r in zip(*cols)]


def criterion_5(seed, ctx):
    eps = _STOCK.epsilon
    qualifying = 0
    worst = 0.0
    period = 2.0 * math.pi / _STOCK.sigma
    comps = (1, 2)
    qs = [steady_state_q(_STOCK, i) for i in comps]
    for j in range(100):
        v = exo_flow(_STOCK.v0, _STOCK.sigma, period * j / 100.0)
        u_ss = regulator_solution(v, _STOCK)[2]
        for i, q, target in zip(comps, qs, (_STOCK.sigma * v[1], u_ss)):
            theta = steady_state_theta(v, _STOCK, i, q)
            if abs(determinant(hankel(theta))) >= eps:
                qualifying += 1
            worst = max(worst, abs(chi(theta, _STOCK, i) - target))
    chain_ok = worst <= 1e-6

    # filter half: both filters driven by the true steady-state input from
    # eta(0) = 0, advanced a chunk of steps at a time by the exact linear map
    # of _chunk_map.  The exosystem is evaluated once per time point for
    # both components, and the time grid is the one of stepwise RK4: the
    # midpoint t + 0.5 h, then t += h.
    h = 1e-3
    n_steps = 50000
    chunk = 250
    maps = [_chunk_map(_STOCK, i, h, chunk) for i in comps]
    etas = [[0.0] * len(_component(_STOCK, i)[0]) for i in comps]
    t = 0.0
    v = exo_flow(_STOCK.v0, _STOCK.sigma, t)
    w_t = [steady_state_lead(v, _STOCK, i) for i in comps]
    for _ in range(n_steps // chunk):
        points = []
        for _ in range(chunk):
            points.append(t + 0.5 * h)
            t += h
            points.append(t)
        vs = exo_flows(_STOCK.v0, _STOCK.sigma, points)
        for c, i in enumerate(comps):
            w = [w_t[c]] + steady_state_leads(vs, _STOCK, i)
            w_t[c] = w[-1]
            eta = etas[c]
            etas[c] = [_dot(a_row, eta) + _dot(g_row, w) for a_row, g_row in zip(*maps[c])]
    v = exo_flow(_STOCK.v0, _STOCK.sigma, t)
    worst_gap = max(math.dist(eta, steady_state_theta(v, _STOCK, i, q))
                    for eta, i, q in zip(etas, comps, qs))
    filt_ok = worst_gap <= 1e-6

    note = ""
    if qualifying == 0:
        note = ("; note: 0/200 phase checks reach |det Theta| >= eps, so the "
                "gated identity is vacuous -- it was verified at every phase "
                "regardless")
    return ("steady-state-oracle-chain", chain_ok and filt_ok,
            "mapping chain max deviation %.3g over 100 phases x 2 components "
            "(tol 1e-6, %d qualifying); driven-filter terminal gap %.3g at "
            "t = 50 (tol 1e-6)%s" % (worst, qualifying, worst_gap, note))


def _run(ctx, **changes):
    """with_overrides(_STOCK, **changes) as cfg, integrated once per ctx and
    keyed by cfg itself: (cfg, log, diverged_at, y_final, report), where
    report is the run's metrics, the dict `outreg sweep` writes for a point."""
    cfg = with_overrides(_STOCK, **changes)
    if cfg not in ctx:
        log, died, y_final = integrate(cfg)
        ctx[cfg] = cfg, log, died, y_final, metrics(log, cfg, diverged_at=died)
    return ctx[cfg]


def criterion_6(seed, ctx):
    _, _, died, _, rep = _run(ctx, mode="nonadaptive")
    if died is not None:
        return ("tracking-convergence", False,
                "stock scenario escapes in finite time: |state| > 1e9 at "
                "t = %.3f, so no trailing window exists (bound: trailing"
                "-20%% sup|e| <= 1e-2)" % died)
    sup_e = rep["trailing_sup_e"]
    return ("tracking-convergence", sup_e <= 1e-2,
            "trailing-20%% sup|e| = %.3g (tol 1e-2)" % sup_e)


def criterion_7(seed, ctx):
    cfg, _, died, _, rep = _run(ctx, mode="nonadaptive")
    a1, a2 = duffing_coeffs(cfg)
    bounds = (("a11", a1[0], 0.02), ("a21", a2[0], 0.05), ("a23", a2[2], 0.1))
    if died is not None:
        return ("coefficient-estimation", False,
                "same stock run as criterion 6: diverged at t = %.3f before any trailing "
                "window (bounds: %s)" % (died, ", ".join("|%s - %g| <= %g" % b for b in bounds)))
    errs = [(name, a, rep["trailing_err_" + name], tol) for name, a, tol in bounds]
    return ("coefficient-estimation", all(e <= tol for _, _, e, tol in errs),
            "trailing estimate errors: "
            + ", ".join("|%s - %g| = %.3g (tol %g)" % err for err in errs))


def criterion_8(seed, ctx):
    _, log, died, _, rep = _run(ctx, mode="adaptive")
    kh = log.column("khat")
    monotone = all(b >= a - 1e-15 for a, b in zip(kh, kh[1:]))
    if died is not None:
        return ("adaptive-variant", False,
                "adaptive stock run escapes at t = %.3f (gain was "
                "nondecreasing up to the escape: %s, last value %.3g)"
                % (died, monotone, kh[-1]))
    sup_e = rep["trailing_sup_e"]
    finite = math.isfinite(kh[-1])
    passed = sup_e <= 1e-2 and monotone and finite
    return ("adaptive-variant", passed,
            "trailing-20%% sup|e| = %.3g (tol 1e-2); gain nondecreasing: %s; "
            "final gain %.6g" % (sup_e, monotone, kh[-1]))


def criterion_9(seed, ctx):
    # the runs of `outreg sweep --grid "sigma=0.1,0.5,1,2;c2=-2,0,2"`, in its order
    runs = [_run(ctx, sigma=s, c2=c2) for s in (0.1, 0.5, 1.0, 2.0) for c2 in (-2.0, 0.0, 2.0)]
    diverged = sum(rep["diverged"] for *_, rep in runs)
    worst = 0.0
    worst_at = None
    for cfg, *_, rep in runs:
        if not rep["diverged"] and rep["trailing_sup_e"] > worst:
            worst, worst_at = rep["trailing_sup_e"], (cfg.sigma, cfg.c2)
    passed = diverged == 0 and worst <= 5e-2
    if diverged:
        detail = ("%d/%d grid runs escape in finite time (bound requires 0 "
                  "divergences and trailing sup|e| <= 5e-2)" % (diverged, len(runs)))
    else:
        detail = ("all %d runs complete; worst trailing sup|e| = %.3g at "
                  "sigma=%g, c2=%g (tol 5e-2)" % (len(runs), worst, *worst_at))
    return ("robustness-sweep", passed, detail)


def criterion_10(seed, ctx):
    parts = []

    # (a) step halving moves criterion 6's metric by < 1e-3, a tenth of its
    # tolerance; not relative to the metric, since two runs regulated to
    # rounding noise differ relatively by about 1
    cfg, log, died, _, rep = _run(ctx, mode="nonadaptive")
    _, _, died_h, _, rep_h = _run(ctx, mode="nonadaptive", h=cfg.h / 2.0)
    if died is not None or died_h is not None:
        parts.append((False,
                      "step-halving: metric undefined, runs diverge at "
                      "t = %s (h) and t = %s (h/2)"
                      % ("%.3f" % died if died is not None else "none",
                         "%.4f" % died_h if died_h is not None else "none")))
    else:
        m_full, m_half = rep["trailing_sup_e"], rep_h["trailing_sup_e"]
        shift = abs(m_full - m_half)
        parts.append((shift < 1e-3,
                      "step-halving moves sup|e| by %.3g (tol < 1e-3)" % shift))

    # (b) exosystem norm drift over cfg.t_end, in the kernel the runs use: one
    # open-loop run of the same scenario, recording only its first and last
    # steps, whose final state entries 2, 3 are v from v(0) = cfg.v0
    v = _run(ctx, mode="open_loop", stride=cfg.n_steps)[3][2:4]
    r0 = math.hypot(*cfg.v0)
    drift = abs(math.hypot(*v) - r0) / r0
    parts.append((drift <= 1e-8, "exosystem norm drift %.3g over %g s "
                  "(tol 1e-8)" % (drift, cfg.t_end)))

    # (c) byte-exact determinism on the same scenario
    del ctx[cfg]
    _, log2, died2, _, _ = _run(ctx, mode="nonadaptive")
    same = log2.to_csv() == log.to_csv() and died2 == died
    parts.append((same, "repeated run byte-exact: %s" % same))

    passed = all(ok for ok, _ in parts)
    return ("numerical-hygiene", passed, "; ".join(d for _, d in parts))


_CRITERIA = (criterion_1, criterion_2, criterion_3, criterion_4, criterion_5,
             criterion_6, criterion_7, criterion_8, criterion_9, criterion_10)
# the criteria, by number, that each process runs: this one runs 6-10 with
# one shared context and then 2 and 1, one forked child criterion 4 and
# another 5 and 3; 1-5 touch no kernel.  Each called alone, medians of
# seven to nine fresh processes on a 2-CPU machine (C twin): 4 took 0.28 s,
# 3 0.20 s, 5 0.11 s, 1 0.02 s, 2 0.01 s, and 6-10 0.05 s together, so the
# children carry 0.28 and 0.31 s and this process 0.08 s of the 0.67 s
_GROUPS = ((6, 7, 8, 9, 10, 2, 1), (4,), (5, 3))


def _run_group(seed, group):
    """{number: (name, passed, detail, seconds)} of group's criteria, on one context."""
    ctx, done = {}, {}
    for i in group:
        t0 = time.perf_counter()
        name, passed, detail = _CRITERIA[i - 1](seed, ctx)
        done[i] = name, passed, detail, time.perf_counter() - t0
    return done


def run_all(seed: int = 0):
    """Run all ten criteria; returns [(name, passed, detail, seconds)].

    Criteria 6-10 run here with one shared context: 6, 7 and 10 share one
    run, and every kernel step is integrated in this process.  The other
    criteria run where _GROUPS puts them, some in children that
    cli._fan_out forks, so call this from a process that has started no
    threads.  A criterion's exception is raised here.
    """
    done = {}
    for got in _fan_out([partial(_run_group, seed, group) for group in _GROUPS]):
        done.update(got)
    return [done[i] for i in range(1, len(_CRITERIA) + 1)]
