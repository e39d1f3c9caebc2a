"""Acceptance suite: ten numbered criteria the package is judged against.

Each criterion function returns (name, passed, detail, seconds).  The
closed-loop criteria (6-9) evaluate the stock benchmark scenario exactly
as configured; when a run escapes in finite time the criterion reports
the divergence instead of a trailing-window metric and fails honestly.
See README "Behavior notes" for the analysis of the stock cold-start
escape.

run_all(seed) executes all ten, criteria 1-5 in worker processes beside
6-10 in the calling process, and caches per seed so `outreg check` and the
test suite can share one execution.
"""

from __future__ import annotations

import math
import os
import random
import time

import numpy as np

from .duffing import (
    DuffingParams,
    duffing_coeffs,
    exo_derivative,
    exo_flow,
    regulator_solution,
    steady_state_theta,
    steady_state_xi,
)
from .internal_model import hurwitz_pair, q_matrix, xi_matrix, sylvester_residual
from .linalg import Matrix, determinant, identity, mat_mul, solve_columns, zeros
from .mapping import (MappingConfig, _chi_of, _inverse_and_det, chi, estimate_coeffs,
                      hankel, regularized_inverse)
from .scenario import ScenarioConfig, with_overrides
from .simulate import DivergenceError, metrics, run
from .closed_forms import closed_form_ahat1, closed_form_ahat2, closed_form_chi1, closed_form_chi2

_P = DuffingParams()
_M1 = (10.0, 18.0, 15.0, 6.0)
_M2 = (1.0, 5.0, 13.0, 22.0, 26.0, 22.0, 13.0, 5.0)
_CFG1 = MappingConfig(2, _M1, 0.1, (False, True))
_CFG2 = MappingConfig(4, _M2, 0.1, (False, True, False, True))


def _duffing_pairs():
    a1, a2 = duffing_coeffs(_P)
    return [(a1, _M1), (a2, _M2)]


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
        # admissible a: roots +-i*w_j; Hurwitz m: real roots in (-3, -0.3)
        poly = [1.0]
        for w in freqs:
            poly = np.convolve(poly, [1.0, 0.0, w * w]).tolist()
        a = poly[::-1][:-1]
        mpoly = [1.0]
        for _ in range(2 * n):
            mpoly = np.convolve(mpoly, [1.0, rng.uniform(0.3, 3.0)]).tolist()
        m = mpoly[::-1][:-1]
        out.append((tuple(a), tuple(m)))
    return out


def criterion_1(seed, ctx):
    worst = 0.0
    for a, m in _duffing_pairs() + _random_pairs(seed, 100):
        spec = hurwitz_pair(m)
        res = sylvester_residual(spec, q_matrix(a, m), a)
        worst = max(worst, res)
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
    for i, cfg, est_t, chi_t, m in ((1, _CFG1, closed_form_ahat1, closed_form_chi1, _M1),
                                    (2, _CFG2, closed_form_ahat2, closed_form_chi2, _M2)):
        for _ in range(1000):
            eta = tuple(rng.uniform(-2.0, 2.0) for _ in range(2 * cfg.n))
            a_gen = estimate_coeffs(eta, cfg)
            a_tab = est_t(eta, cfg.epsilon)
            for x, y in zip(a_gen.a, a_tab.a):
                worst = max(worst, _rel(x, y))
            worst = max(worst, _rel(_chi_of(eta, a_gen, cfg), chi_t(eta, a_tab, m)))
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
    for trial in range(10000):
        n = 2 + trial % 3
        if trial % 100 == 99:
            th = zeros(n, n)
        elif trial % 10 == 9:
            rows = [[rng.uniform(-2.0, 2.0) for _ in range(n)] for _ in range(n - 1)]
            rows.append(list(rows[0]))  # duplicated row: exactly singular
            th = Matrix(rows)
        else:
            th = Matrix([[rng.uniform(-2.0, 2.0) for _ in range(n)]
                         for _ in range(n)])
        o, d = _inverse_and_det(th, eps)
        if not all(math.isfinite(x) for x in o.data):
            return ("regularized-inverse", False,
                    "non-finite output entry at trial %d" % trial)
        if d * d >= eps * eps:
            n_exact += 1
            # the columns of Theta^-1 solve Theta x = e_c, from one factorization
            for c, col in enumerate(solve_columns(th, identity(n).to_lists())):
                for r in range(n):
                    worst_inv = max(worst_inv, abs(o.at(r, c) - col[r]))
    zero_ok = all(x == 0.0 for n in (2, 4)
                  for x in regularized_inverse(zeros(n, n), eps).data)
    passed = worst_inv <= 1e-9 and zero_ok
    return ("regularized-inverse", passed,
            "all 10000 outputs finite; %d inputs had det^2 >= eps^2, max "
            "deviation from the true inverse %.3g (tol 1e-9); O(0) = 0 %s"
            % (n_exact, worst_inv, "exactly" if zero_ok else "VIOLATED"))


def criterion_5(seed, ctx):
    eps = 0.1
    qualifying = 0
    worst = 0.0
    period = 2.0 * math.pi / _P.sigma
    for j in range(100):
        v = exo_flow((1.0, 1.0), _P.sigma, period * j / 100.0)
        u_ss = regulator_solution(v, _P)[2]
        for i, cfg, target in ((1, _CFG1, _P.sigma * v[1]), (2, _CFG2, u_ss)):
            spec = hurwitz_pair(cfg.m)
            theta = steady_state_theta(v, _P, i, spec)
            if abs(determinant(hankel(theta))) >= eps:
                qualifying += 1
            worst = max(worst, abs(chi(theta, cfg) - target))
    chain_ok = worst <= 1e-6

    # filter half: driven by the true steady-state input from eta(0) = 0.
    # The filter is linear, so one RK4 step of it is exactly
    # eta+ = A eta + B (w(t), w(t + h/2), w(t + h)), where w is the input;
    # A and B are read off by applying the step to unit vectors.  The inputs
    # are evaluated a chunk of steps at a time: all 50k at once would hold
    # them in memory for nothing.  w(t + h) of one step is w(t) of the next,
    # since t advances by the same t += h.
    h = 1e-3
    n_steps = 50000
    chunk = 1000
    worst_gap = 0.0
    for i, cfg in ((1, _CFG1), (2, _CFG2)):
        spec = hurwitz_pair(cfg.m)
        M = np.array(spec.M.to_lists())
        N = np.array([row[0] for row in spec.N.to_lists()])

        def step(eta, w0, w_half, w1):
            k1 = M @ eta + N * w0
            k2 = M @ (eta + 0.5 * h * k1) + N * w_half
            k3 = M @ (eta + 0.5 * h * k2) + N * w_half
            k4 = M @ (eta + h * k3) + N * w1
            return eta + h / 6.0 * (k1 + 2 * k2 + 2 * k3 + k4)

        def w(t):
            return steady_state_xi(exo_flow((1.0, 1.0), _P.sigma, t), _P, i)[0]

        dim = 2 * cfg.n
        A = np.column_stack([step(e, 0.0, 0.0, 0.0) for e in np.eye(dim)])
        B = np.column_stack([step(np.zeros(dim), *e) for e in np.eye(3)])
        eta = np.zeros(dim)
        t = 0.0
        w_t = w(t)
        for done in range(0, n_steps, chunk):
            inputs = []
            for _ in range(min(chunk, n_steps - done)):
                w_next = w(t + h)
                inputs.append((w_t, w(t + 0.5 * h), w_next))
                w_t = w_next
                t += h
            for b in np.array(inputs) @ B.T:
                eta = A @ eta + b
        v = exo_flow((1.0, 1.0), _P.sigma, t)
        theta = np.array(steady_state_theta(v, _P, i, spec))
        worst_gap = max(worst_gap, float(np.linalg.norm(eta - theta)))
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


def _default_run(ctx, mode):
    key = "run-" + mode
    if key not in ctx:
        cfg = with_overrides(ScenarioConfig(), mode=mode)
        try:
            log = run(cfg)
            ctx[key] = (cfg, log, None)
        except DivergenceError as exc:
            ctx[key] = (cfg, exc.partial, exc.time)
    return ctx[key]


def criterion_6(seed, ctx):
    cfg, log, died = _default_run(ctx, "nonadaptive")
    if died is not None:
        return ("tracking-convergence", False,
                "stock scenario escapes in finite time: |state| > 1e9 at "
                "t = %.3f, so no trailing window exists (bound: trailing"
                "-20%% sup|e| <= 1e-2)" % died)
    rep = metrics(log, cfg)
    sup_e = rep["trailing_sup_e"]
    return ("tracking-convergence", sup_e <= 1e-2,
            "trailing-20%% sup|e| = %.3g (tol 1e-2)" % sup_e)


def criterion_7(seed, ctx):
    cfg, log, died = _default_run(ctx, "nonadaptive")
    if died is not None:
        return ("coefficient-estimation", False,
                "same stock run as criterion 6: diverged at t = %.3f before "
                "any trailing window (bounds: |a11 - 0.25| <= 0.02, "
                "|a21 - 0.5625| <= 0.05, |a23 - 2.5| <= 0.1)" % died)
    rep = metrics(log, cfg)
    e11, e21, e23 = (rep["trailing_err_a11"], rep["trailing_err_a21"],
                     rep["trailing_err_a23"])
    passed = e11 <= 0.02 and e21 <= 0.05 and e23 <= 0.1
    return ("coefficient-estimation", passed,
            "trailing estimate errors: |a11 - 0.25| = %.3g (tol 0.02), "
            "|a21 - 0.5625| = %.3g (tol 0.05), |a23 - 2.5| = %.3g (tol 0.1)"
            % (e11, e21, e23))


def criterion_8(seed, ctx):
    cfg, log, died = _default_run(ctx, "adaptive")
    kh = log.column("khat")
    monotone = all(b >= a - 1e-15 for a, b in zip(kh, kh[1:]))
    if died is not None:
        return ("adaptive-variant", False,
                "adaptive stock run escapes at t = %.3f (gain was "
                "nondecreasing up to the escape: %s, last value %.3g)"
                % (died, monotone, kh[-1]))
    rep = metrics(log, cfg)
    sup_e = rep["trailing_sup_e"]
    finite = math.isfinite(kh[-1])
    passed = sup_e <= 1e-2 and monotone and finite
    return ("adaptive-variant", passed,
            "trailing-20%% sup|e| = %.3g (tol 1e-2); gain nondecreasing: %s; "
            "final gain %.6g" % (sup_e, monotone, kh[-1]))


def criterion_9(seed, ctx):
    base = ScenarioConfig()
    diverged = 0
    worst = 0.0
    worst_at = None
    total = 0
    for sg in (0.1, 0.5, 1.0, 2.0):
        for c2 in (-2.0, 0.0, 2.0):
            total += 1
            cfg = with_overrides(base, sigma=sg, c2=c2)
            try:
                log = run(cfg)
            except DivergenceError:
                diverged += 1
                continue
            sup_e = metrics(log, cfg)["trailing_sup_e"]
            if sup_e > worst:
                worst, worst_at = sup_e, (sg, c2)
    passed = diverged == 0 and worst <= 5e-2
    if diverged:
        detail = ("%d/%d grid runs escape in finite time (bound requires 0 "
                  "divergences and trailing sup|e| <= 5e-2)" % (diverged, total))
    else:
        detail = ("all %d runs complete; worst trailing sup|e| = %.3g at "
                  "sigma=%g, c2=%g (tol 5e-2)" % (total, worst, *worst_at))
    return ("robustness-sweep", passed, detail)


def criterion_10(seed, ctx):
    parts = []

    # (a) step halving moves criterion 6's metric by < 10%
    cfg, log, died = _default_run(ctx, "nonadaptive")
    half = with_overrides(cfg, h=cfg.h / 2.0)
    try:
        log_h = run(half)
        died_h = None
    except DivergenceError as exc:
        log_h, died_h = exc.partial, exc.time
    if died is not None or died_h is not None:
        parts.append((False,
                      "step-halving: metric undefined, runs diverge at "
                      "t = %s (h) and t = %s (h/2)"
                      % ("%.3f" % died if died is not None else "none",
                         "%.4f" % died_h if died_h is not None else "none")))
    else:
        m_full = metrics(log, cfg)["trailing_sup_e"]
        m_half = metrics(log_h, half)["trailing_sup_e"]
        shift = abs(m_full - m_half) / max(abs(m_full), 1e-300)
        parts.append((shift < 0.10,
                      "step-halving shift %.3g (tol < 0.10)" % shift))

    # (b) exosystem norm drift over 100 s
    v = (1.0, 1.0)
    h = 1e-3
    s = _P.sigma
    for step in range(100000):
        k1 = exo_derivative(v, s)
        k2 = exo_derivative((v[0] + 0.5 * h * k1[0], v[1] + 0.5 * h * k1[1]), s)
        k3 = exo_derivative((v[0] + 0.5 * h * k2[0], v[1] + 0.5 * h * k2[1]), s)
        k4 = exo_derivative((v[0] + h * k3[0], v[1] + h * k3[1]), s)
        v = (v[0] + h / 6.0 * (k1[0] + 2.0 * k2[0] + 2.0 * k3[0] + k4[0]),
             v[1] + h / 6.0 * (k1[1] + 2.0 * k2[1] + 2.0 * k3[1] + k4[1]))
    drift = abs(math.hypot(*v) - math.sqrt(2.0)) / math.sqrt(2.0)
    parts.append((drift <= 1e-8, "exosystem norm drift %.3g over 100 s "
                  "(tol 1e-8)" % drift))

    # (c) byte-exact determinism on the stock scenario
    ctx.pop("run-nonadaptive", None)
    _, log2, died2 = _default_run(ctx, "nonadaptive")
    same = log2.to_csv() == log.to_csv() and died2 == died
    parts.append((same, "repeated run byte-exact: %s" % same))

    passed = all(ok for ok, _ in parts)
    return ("numerical-hygiene", passed, "; ".join(d for _, d in parts))


_CRITERIA = (criterion_1, criterion_2, criterion_3, criterion_4, criterion_5,
             criterion_6, criterion_7, criterion_8, criterion_9, criterion_10)
# criteria 1-5 touch no kernel and share nothing, so they run in worker
# processes; these are their indices, longest first, so that the last one
# to start is short
_POOLED = (3, 4, 2, 1, 0)
# two workers beside the calling process: on two CPUs `outreg check` took
# a median 2.65 s with one worker, 1.62 s with two and 1.83 s with three
_WORKERS = 2

_cache = {}


def _timed(fn, seed, ctx):
    t0 = time.perf_counter()
    name, passed, detail = fn(seed, ctx)
    return name, passed, detail, time.perf_counter() - t0


def run_all(seed: int = 0):
    """Run all ten criteria; returns [(name, passed, detail, seconds)].

    Criteria 1-5 run in worker processes, each with a fresh context, while
    6-10 run here with one shared context: 6, 7 and 10 reuse one cached
    run, and every kernel step is integrated in this process.

    The workers are forked, so call this from a process that has started
    no threads.  Spawned workers would each import numpy and this module
    again: on two CPUs `outreg check` took 2.35 s that way (forkserver
    2.12 s, fork 1.80 s) and its peak RSS grew by 1.3 MB.
    """
    if seed in _cache:
        return _cache[seed]
    # imported here: importing this module should not pay for the pool
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    workers = min(_WORKERS, os.cpu_count() or 1)
    with ProcessPoolExecutor(max_workers=workers,
                             mp_context=multiprocessing.get_context("fork")) as pool:
        pooled = {i: pool.submit(_timed, _CRITERIA[i], seed, {}) for i in _POOLED}
        ctx = {}
        here = [_timed(fn, seed, ctx) for fn in _CRITERIA[len(_POOLED):]]
        results = [pooled[i].result() for i in range(len(_POOLED))] + here
    _cache[seed] = results
    return results
