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
from operator import mul

from .duffing import (
    DuffingParams,
    duffing_coeffs,
    exo_derivative,
    exo_flow,
    regulator_solution,
    steady_state_q,
    steady_state_theta,
    steady_state_xi,
)
from .internal_model import (admissible_from_frequencies, hurwitz_pair, q_matrix,
                             sylvester_residual, xi_matrix)
from .linalg import (Matrix, determinant, identity, mat_mul, mat_pow, mat_vec,
                     solve_columns, transpose, zeros)
from .mapping import (MappingConfig, _chi_of, _inverse_and_det, chi, estimate_coeffs,
                      hankel, regularized_inverse)
from .scenario import ScenarioConfig, with_overrides
from .simulate import DivergenceError, metrics, run
from .closed_forms import closed_form_ahat1, closed_form_ahat2, closed_form_chi1, closed_form_chi2

# the stock benchmark point, as ScenarioConfig() defines it
_STOCK = ScenarioConfig()
_P = DuffingParams(_STOCK.c1, _STOCK.c2, _STOCK.c3, _STOCK.sigma)
_M1, _M2 = _STOCK.m1, _STOCK.m2
_CFG1 = MappingConfig(2, _M1, _STOCK.epsilon, _STOCK.mask1)
_CFG2 = MappingConfig(4, _M2, _STOCK.epsilon, _STOCK.mask2)


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
        # admissible a: roots +-i*w_j; Hurwitz m: real roots in (-3, -0.3),
        # the constant-first product of 2n factors (s + r)
        a = admissible_from_frequencies(freqs).a
        m = [1.0]
        for _ in range(2 * n):
            r = rng.uniform(0.3, 3.0)
            m = [r * c + d for c, d in zip(m + [0.0], [0.0] + m)]
        out.append((a, tuple(m[:-1])))
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


def _rk4_map(spec, h):
    """One RK4 step of the filter eta' = M eta + N w as a linear map.

    The step is linear in eta and in (w(t), w(t + h/2), w(t + h)), so it is
    exactly eta+ = A eta + B (w(t), w(t + h/2), w(t + h)).  Returns A and
    the three columns of B, read off by applying the step to unit vectors.
    """
    N = [row[0] for row in spec.N.to_lists()]
    dim = len(N)

    def f(x, w):
        return [mx + n * w for mx, n in zip(mat_vec(spec.M, x), N)]

    def step(eta, w0, w_half, w1):
        k1 = f(eta, w0)
        k2 = f([e + 0.5 * h * k for e, k in zip(eta, k1)], w_half)
        k3 = f([e + 0.5 * h * k for e, k in zip(eta, k2)], w_half)
        k4 = f([e + h * k for e, k in zip(eta, k3)], w1)
        return [e + h / 6.0 * (a + 2.0 * b + 2.0 * c + d)
                for e, a, b, c, d in zip(eta, k1, k2, k3, k4)]

    A = transpose(Matrix([step(e, 0.0, 0.0, 0.0) for e in identity(dim).to_lists()]))
    return A, [step([0.0] * dim, *u) for u in identity(3).to_lists()]


def _chunk_map(spec, h, steps):
    """Rows of (A^L, G), L = steps, with eta_{k+L} = A^L eta_k + G (w_0, w_1/2, ..., w_L).

    w_j is the input at the start of step j of the chunk and w_j+1/2 at its
    midpoint.  Step j contributes A^(L-1-j) B (w_j, w_j+1/2, w_j+1); w_j+1
    ends step j and starts step j + 1, so its column of G is the sum of both
    contributions.  The columns are built from the last step backwards.
    """
    A, (b0, b1, b2) = _rk4_map(spec, h)
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
    eps = 0.1
    qualifying = 0
    worst = 0.0
    period = 2.0 * math.pi / _P.sigma
    comps = [(1, _CFG1, hurwitz_pair(_CFG1.m)), (2, _CFG2, hurwitz_pair(_CFG2.m))]
    qs = [steady_state_q(_P, i, spec) for i, _, spec in comps]
    for j in range(100):
        v = exo_flow((1.0, 1.0), _P.sigma, period * j / 100.0)
        u_ss = regulator_solution(v, _P)[2]
        for (i, cfg, spec), q, target in zip(comps, qs, (_P.sigma * v[1], u_ss)):
            theta = steady_state_theta(v, _P, i, spec, q)
            if abs(determinant(hankel(theta))) >= eps:
                qualifying += 1
            worst = max(worst, abs(chi(theta, cfg) - target))
    chain_ok = worst <= 1e-6

    # filter half: both filters driven by the true steady-state input from
    # eta(0) = 0, advanced a chunk of steps at a time by the exact linear map
    # of _chunk_map.  The exosystem is evaluated once per time point for
    # both components, and the time grid is the one of stepwise RK4: the
    # midpoint t + 0.5 h, then t += h.
    h = 1e-3
    n_steps = 50000
    chunk = 250
    maps = [_chunk_map(spec, h, chunk) for _, _, spec in comps]
    etas = [[0.0] * (2 * cfg.n) for _, cfg, _ in comps]
    t = 0.0
    v = exo_flow((1.0, 1.0), _P.sigma, t)
    w_t = [steady_state_xi(v, _P, i)[0] for i, _, _ in comps]
    for _ in range(n_steps // chunk):
        points = []
        for _ in range(chunk):
            points.append(t + 0.5 * h)
            t += h
            points.append(t)
        vs = [exo_flow((1.0, 1.0), _P.sigma, s) for s in points]
        for c, (i, _, _) in enumerate(comps):
            w = [w_t[c]] + [steady_state_xi(v, _P, i)[0] for v in vs]
            w_t[c] = w[-1]
            eta = etas[c]
            etas[c] = [sum(map(mul, a_row, eta)) + sum(map(mul, g_row, w))
                       for a_row, g_row in zip(*maps[c])]
    v = exo_flow((1.0, 1.0), _P.sigma, t)
    worst_gap = max(math.dist(eta, steady_state_theta(v, _P, i, spec, q))
                    for eta, (i, _, spec), q in zip(etas, comps, qs))
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
        cfg = with_overrides(_STOCK, mode=mode)
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
    diverged = 0
    worst = 0.0
    worst_at = None
    total = 0
    for sg in (0.1, 0.5, 1.0, 2.0):
        for c2 in (-2.0, 0.0, 2.0):
            total += 1
            cfg = with_overrides(_STOCK, sigma=sg, c2=c2)
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
    no threads.  Spawned workers would each import this module and its
    imports again: on two CPUs `outreg check` took 2.35 s that way
    (forkserver 2.12 s, fork 1.80 s) and its peak RSS grew by 1.3 MB, when
    that import still included numpy.
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
