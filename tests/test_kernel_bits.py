"""Pin the kernel twins' output bits: the one statement of twin parity.

Each case is a scenario config, run through conftest.run_twin as
simulate.integrate packs it, and each digest hashes the struct-packed
records, diverged_at and y_final of that run.  Both twins run every case
against the same digest, so they agree bit for bit wherever the compiled
twin can be built, and the pure-Python pins hold even where nothing can be
compiled.  The digests were taken from the loop-form kernel that mirrored
the compiled twin statement by statement, so any rewrite of either twin
that changes a single bit of any value (a reassociated sum, a dropped 0.0
seed that flips a signed zero) fails here.  Every nan is hashed as one
canonical quiet nan: its position is pinned, its sign and payload are not
part of the twins' contract.
"""

import hashlib
import itertools
import struct

import pytest
from conftest import pack_bits, run_twin

from outreg import _kernel_py
from outreg.scenario import ScenarioConfig, steady_start, with_overrides
from outreg.simulate import _kernel_args


# sha256 over the packed records, diverged_at and y_final of each case
DIGESTS = {
    "nonadaptive":
        "c9df4d6c2fa56c132b0c193e7d20dcf6290085da060d129364bd57121e587d25",
    "adaptive":
        "52b3d11bd70c29063c37d9aed3e20c91dd917651894712eed4c811abb7f576c5",
    "open_loop":
        "a52a0ea9c580a9c10d758f16c19b13a40159c9c1bfb1c08edaa8f6a5677ba0fb",
    "disturbed":
        "881978b42f8b4c5f1c850e3c67a524c506b0e98f1ea3df4d736b7dcfaf710be3",
    "cold":
        "69f4226d265837d5276e27b3b816da1a3c710208cab4806beb8c4fb753ac928b",
    "overflow":
        "238234f19bb1e8c1374e4e76333df5e5203827f4a8abbe2666edc5b76c0bec19",
    "cold_adaptive":
        "cb0e1061a816a2b60a8799b1bd9d15ba2e3d50779448e195ada0bb2e8b8f10dc",
    "signed_zero":
        "7d00a742f44d68e12854c2e22e1d5692be9b1dc99e366cdd487447fb82f034d9",
    # sha256 over the 64 per-run digests, in product((0, 1)) order
    "masks":
        "805b81da753ff44b409ffdf32c072dc98cb88ffff3cf8299edbf5e404891d11f",
}


def _cases():
    """name -> (cfg, y0) of each run case; y0 None starts from the state
    simulate packs from cfg."""
    stock = ScenarioConfig()
    # 2000 steps from the steady orbit, a row at each
    steady = with_overrides(steady_start(stock), t_end=2.0, stride=1)
    return {
        "nonadaptive": (steady, None),
        "adaptive": (with_overrides(steady, mode="adaptive"), None),
        "open_loop": (with_overrides(steady, mode="open_loop"), None),
        "disturbed": (with_overrides(steady, disturbance_amp=0.05, disturbance_freq=7.0), None),
        # the stock cold start until it escapes
        "cold": (with_overrides(stock, stride=1), None),
        # khat grows from the cold start, so the gain rate and its use in u
        # shape every row; on the steady orbit khat stays below 1e-20
        "cold_adaptive": (with_overrides(stock, mode="adaptive", stride=1), None),
        # an RK4 stage overflows on the first step
        "overflow": (with_overrides(stock, t_end=0.005, stride=1),
                     [1e9, 0.0, 1.0, 1.0] + [0.0] * 13),
    }


def _digest(out):
    records, diverged_at, y_final = out
    h = hashlib.sha256()
    # the (rows, 12) view flattened row-major: every value, in row order
    h.update(pack_bits(records.cast("B").cast("d")))
    h.update(pack_bits([diverged_at]))
    h.update(pack_bits(y_final))
    return h.hexdigest()


def _python_bits(name, diverged_at):
    out = run_twin(_kernel_py, *_cases()[name])
    assert out[1] == pytest.approx(diverged_at, abs=1e-12)
    assert _digest(out) == DIGESTS[name]


def _masks(kern, steady_cfg):
    # 20 steps from the steady start under each of the 64 mask pairs: nonzero
    # filter states, so every Hankel minor a kept column reads is nonzero and
    # a swapped or skipped one changes the bits
    cfg = with_overrides(steady_cfg, t_end=0.02, stride=1)
    h = hashlib.sha256()
    for mask1 in itertools.product((False, True), repeat=2):
        for mask2 in itertools.product((False, True), repeat=4):
            out = run_twin(kern, with_overrides(cfg, mask1=mask1, mask2=mask2))
            h.update(_digest(out).encode())
    return h.hexdigest()


@pytest.mark.parametrize("mode", ["nonadaptive", "adaptive", "open_loop"])
def test_steady_bits(mode):
    _python_bits(mode, -1.0)


def test_disturbed_bits():
    _python_bits("disturbed", -1.0)


def test_cold_start_bits():
    _python_bits("cold", 0.117)


def test_cold_adaptive_bits():
    _python_bits("cold_adaptive", 0.056)


def test_overflow_bits():
    # the run escapes on its first step and its final state holds nans.  Where
    # both operands of an add or multiply are nan, the result keeps one
    # operand's sign, and which one depends on the machine code: it differs
    # between C compilers and, within CPython 3.11, between the generic float
    # ops and the specialized ones a warm function switches to.  The
    # canonical nan in _digest keeps this digest independent of both.
    _python_bits("overflow", ScenarioConfig().h)


@pytest.mark.parametrize("case", [n for n in DIGESTS if n not in ("signed_zero", "masks")])
def test_compiled_twin_bits(ckernel, case):
    assert _digest(run_twin(ckernel, *_cases()[case])) == DIGESTS[case]


def test_mask_bits(steady_cfg):
    assert _masks(_kernel_py, steady_cfg) == DIGESTS["masks"]


def test_compiled_twin_mask_bits(ckernel, steady_cfg):
    assert _masks(ckernel, steady_cfg) == DIGESTS["masks"]


def test_signed_zero_bits():
    # filter states of +0.0 and -0.0 leave every sum's sign to its 0.0 seed,
    # so dropping any seed, or reordering a sum of zeros, flips a hashed bit
    cfg = ScenarioConfig()
    (c1, c2, c3, sigma, m1, m2, eps, _, _, rho, kc, k0, mode,
     dist_amp, dist_freq) = _kernel_args(cfg, "nonadaptive")
    m1, m2, rho, kc = ([float(v) for v in xs] for xs in (m1, m2, rho, kc))
    h = hashlib.sha256()
    for signs in itertools.product((0.0, -0.0), repeat=8):
        y = [-0.0, -0.0, 0.0, -0.0, *signs[:4], *signs, 0.0]
        for mask1 in itertools.product((0, 1), repeat=2):
            for mask2 in itertools.product((0, 1), repeat=4):
                dy, aux, ahat1, ahat2 = [0.0] * 17, [0.0] * 8, [0.0] * 4, [0.0] * 4
                _kernel_py._deriv(0.0, y, dy, aux, c1, c2, c3, sigma, m1, m2, eps,
                                  list(mask1), list(mask2), rho, kc, k0, mode,
                                  dist_amp, dist_freq, ahat1, ahat2)
                h.update(struct.pack("<33d", *dy, *aux, *ahat1, *ahat2))
    assert h.hexdigest() == DIGESTS["signed_zero"]
