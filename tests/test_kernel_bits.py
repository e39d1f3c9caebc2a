"""Pin the kernel twins' output bits.

Each case hashes the struct-packed records, diverged_at and y_final of one
run.  The digests were taken from the loop-form kernel that mirrored the
compiled twin statement by statement, so any rewrite of either twin that
changes a single bit of any value (a reassociated sum, a dropped 0.0 seed
that flips a signed zero) fails here.  Every nan is hashed as one
canonical quiet nan: its position is pinned, its sign and payload are not
part of the twins' contract.  The pure-Python cases need no compiler; the
compiled twin runs the same cases against the same digests wherever it can
be built.
"""

import hashlib
import itertools
import struct

import pytest

from outreg import _kernel_py
from outreg.scenario import ScenarioConfig
from outreg.simulate import _initial_state, _kernel_args


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
    "signed_zero":
        "7d00a742f44d68e12854c2e22e1d5692be9b1dc99e366cdd487447fb82f034d9",
    # sha256 over the 64 per-run digests, in product((0, 1)) order
    "masks":
        "805b81da753ff44b409ffdf32c072dc98cb88ffff3cf8299edbf5e404891d11f",
}


_QNAN = struct.pack("<Q", 0x7FF8000000000000)


def _pack(vals):
    return b"".join(_QNAN if v != v else struct.pack("<d", v) for v in vals)


def _digest(out):
    records, diverged_at, y_final = out
    h = hashlib.sha256()
    # the (rows, 12) view flattened row-major: every value, in row order
    h.update(_pack(records.cast("B").cast("d")))
    h.update(_pack([diverged_at]))
    h.update(_pack(y_final))
    return h.hexdigest()


def _run(kern, cfg, y0, n_steps, stride, mode="nonadaptive", dist=None):
    args = list(_kernel_args(cfg, mode))
    if dist is not None:
        args[-2:] = dist
    return kern.run_closed_loop(y0, cfg.h, n_steps, stride, *args)


def _masks(kern, steady_cfg):
    # 20 steps from the steady start under each of the 64 mask pairs: nonzero
    # filter states, so every Hankel minor a kept column reads is nonzero and
    # a swapped or skipped one changes the bits
    args = list(_kernel_args(steady_cfg, "nonadaptive"))
    h = hashlib.sha256()
    for mask1 in itertools.product((0, 1), repeat=2):
        for mask2 in itertools.product((0, 1), repeat=4):
            args[7:9] = mask1, mask2
            out = kern.run_closed_loop(_initial_state(steady_cfg), steady_cfg.h, 20, 1, *args)
            h.update(_digest(out).encode())
    return h.hexdigest()


def _case(kern, name, steady_cfg):
    if name == "overflow":
        cfg = ScenarioConfig()
        return _run(kern, cfg, [1e9, 0.0, 1.0, 1.0] + [0.0] * 13, 5, 1)
    if name == "cold":
        cfg = ScenarioConfig()
        return _run(kern, cfg, _initial_state(cfg), cfg.n_steps, 1)
    if name == "disturbed":
        return _run(kern, steady_cfg, _initial_state(steady_cfg), 2000, 1, dist=(0.05, 7.0))
    return _run(kern, steady_cfg, _initial_state(steady_cfg), 2000, 1, name)


@pytest.mark.parametrize("mode", ["nonadaptive", "adaptive", "open_loop"])
def test_steady_bits(steady_cfg, mode):
    out = _case(_kernel_py, mode, steady_cfg)
    assert out[1] == -1.0
    assert _digest(out) == DIGESTS[mode]


def test_disturbed_bits(steady_cfg):
    out = _case(_kernel_py, "disturbed", steady_cfg)
    assert out[1] == -1.0
    assert _digest(out) == DIGESTS["disturbed"]


def test_cold_start_bits(steady_cfg):
    out = _case(_kernel_py, "cold", steady_cfg)
    assert out[1] == pytest.approx(0.117, abs=1e-12)
    assert _digest(out) == DIGESTS["cold"]


@pytest.mark.parametrize("case", ["nonadaptive", "adaptive", "open_loop", "disturbed", "cold",
                                  "overflow"])
def test_compiled_twin_bits(ckernel, steady_cfg, case):
    assert _digest(_case(ckernel, case, steady_cfg)) == DIGESTS[case]


def test_mask_bits(steady_cfg):
    assert _masks(_kernel_py, steady_cfg) == DIGESTS["masks"]


def test_compiled_twin_mask_bits(ckernel, steady_cfg):
    assert _masks(ckernel, steady_cfg) == DIGESTS["masks"]


def test_overflow_bits(steady_cfg):
    # the run escapes on its first step and its final state holds nans.  Where
    # both operands of an add or multiply are nan, the result keeps one
    # operand's sign, and which one depends on the machine code: it differs
    # between C compilers and, within CPython 3.11, between the generic float
    # ops and the specialized ones a warm function switches to.  The
    # canonical nan in _digest keeps this digest independent of both.
    out = _case(_kernel_py, "overflow", steady_cfg)
    assert out[1] == pytest.approx(ScenarioConfig().h)
    assert _digest(out) == DIGESTS["overflow"]


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
