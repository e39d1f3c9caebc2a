import os
import pickle
import warnings

import pytest

from outreg.controller import MAX_GAIN_DEGREE, GainSyntaxError, Polynomial
from outreg.scenario import (
    MAX_RECORDS,
    MAX_STEPS,
    ScenarioConfig,
    ScenarioError,
    load_scenario,
    loads,
    serialize,
    with_overrides,
)


def test_empty_text_gives_defaults():
    cfg = loads("")
    assert cfg == ScenarioConfig()
    assert cfg.c1 == -2.0 and cfg.sigma == 0.5
    assert cfg.x0 == (1.0, -1.0) and cfg.v0 == (1.0, 1.0)
    assert cfg.m1 == (10.0, 18.0, 15.0, 6.0)
    assert cfg.rho.coeffs == (10.0, 0.0, 0.0, 0.0, 4.0)
    assert cfg.mode == "nonadaptive"
    assert cfg.n_steps == 100000


def test_single_override_keeps_defaults():
    cfg = loads("plant.sigma = 1.0\n")
    assert cfg.sigma == 1.0
    assert cfg.c1 == -2.0 and cfg.h == 1e-3


def test_comments_and_blanks_ignored():
    cfg = loads("# a comment\n\nplant.c2 = 0.5  # trailing comment\n\n")
    assert cfg.c2 == 0.5


def test_round_trip_defaults():
    cfg = ScenarioConfig()
    assert loads(serialize(cfg)) == cfg


def test_round_trip_modified():
    cfg = with_overrides(
        ScenarioConfig(),
        sigma=1.25,
        c2=-0.75,
        x0=(0.25, -0.125),
        eta2_0=(0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8),
        epsilon=0.05,
        mask2=(True, False, False, True),
        rho=Polynomial((3.0, 0.0, 2.0)),
        k0=2.0,
        h=5e-4,
        t_end=20.0,
        stride=5,
        disturbance_amp=0.05,
        disturbance_freq=7.0,
        mode="adaptive",
    )
    assert loads(serialize(cfg)) == cfg


def test_serialize_defaults_pinned():
    # the canonical text of the stock scenario, byte for byte
    assert serialize(ScenarioConfig()) == (
        "plant.c1 = -2.0\n"
        "plant.c2 = 1.5\n"
        "plant.c3 = 0.5\n"
        "plant.sigma = 0.5\n"
        "init.x = 1.0, -1.0\n"
        "init.v = 1.0, 1.0\n"
        "init.eta1 = 0.0, 0.0, 0.0, 0.0\n"
        "init.eta2 = 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0\n"
        "init.khat = 0.0\n"
        "model.m1 = 10.0, 18.0, 15.0, 6.0\n"
        "model.m2 = 1.0, 5.0, 13.0, 22.0, 26.0, 22.0, 13.0, 5.0\n"
        "mapping.epsilon = 0.1\n"
        "mapping.mask1 = 0, 1\n"
        "mapping.mask2 = 0, 1, 0, 1\n"
        "gains.rho = 10 + 4*s^4\n"
        "gains.k = 1 + s^2\n"
        "gains.k0 = 1.0\n"
        "sim.h = 0.001\n"
        "sim.t_end = 100.0\n"
        "sim.stride = 10\n"
        "sim.disturbance_amp = 0.0\n"
        "sim.disturbance_freq = 0.0\n"
        "mode = nonadaptive\n")


def test_default_file_is_every_key_at_its_default():
    path = os.path.join(os.path.dirname(__file__), "..", "scenarios", "default.scn")
    assert load_scenario(path) == ScenarioConfig()
    with open(path, encoding="utf-8") as fh:
        keys = [ln.split("=")[0].strip() for ln in fh
                if ln.split("#")[0].strip()]
    # serialize writes every key of the grammar once, in table order
    assert keys == [ln.split(" = ")[0] for ln in serialize(ScenarioConfig()).splitlines()]


def test_errors_listed_in_line_order():
    with pytest.raises(ScenarioError) as info:
        loads("plant.c9 = 1\nsim.h = fast\nsim.h = 1\njunk\nmode = turbo\n")
    assert info.value.violations == (
        "line 1: unknown key 'plant.c9'",
        "line 2: sim.h: not a number: 'fast'",
        "line 3: duplicate key 'sim.h'",
        "line 4: expected key = value, got 'junk'",
        "line 5: mode: must be one of nonadaptive/adaptive/open_loop, got 'turbo'",
    )


def test_unknown_key_rejected():
    with pytest.raises(ScenarioError, match="unknown key"):
        loads("plant.c9 = 1\n")


def test_duplicate_key_rejected():
    with pytest.raises(ScenarioError, match="duplicate"):
        loads("plant.c1 = 1\nplant.c1 = 2\n")


def test_parse_errors_carry_line_numbers():
    with pytest.raises(ScenarioError, match="line 2"):
        loads("plant.c1 = -1\nthis is not an assignment\n")
    with pytest.raises(ScenarioError, match="not a number"):
        loads("plant.c1 = banana\n")


@pytest.mark.parametrize("line", ["init.x = nan, 0", "init.v = inf, 1",
                                  "gains.k0 = nan", "mapping.epsilon = inf"])
def test_non_finite_numbers_rejected(line):
    key = line.split(" =")[0]
    with pytest.raises(ScenarioError, match="line 2: %s: .*finite" % key):
        loads("plant.c1 = -1\n" + line + "\n")


def test_wrong_vector_length():
    with pytest.raises(ScenarioError, match="expected 4 values"):
        loads("model.m1 = 1, 2, 3\n")


def test_non_hurwitz_filter_rejected():
    with pytest.raises(ScenarioError, match="M1 not Hurwitz"):
        loads("model.m1 = -1, 0, 0, 0\n")


def test_all_violations_reported_together():
    try:
        loads("sim.h = -1\nmapping.epsilon = 0\n")
    except ScenarioError as exc:
        text = str(exc)
        assert "sim.h" in text and "mapping.epsilon" in text
    else:
        pytest.fail("expected ScenarioError")


def test_hard_limits():
    for bad in ("sim.h = 0", "sim.t_end = -5", "sim.stride = 0", "mapping.epsilon = -0.1"):
        with pytest.raises(ScenarioError):
            loads(bad + "\n")
    with pytest.raises(ScenarioError, match="mode"):
        loads("mode = turbo\n")


def test_zero_step_horizon_rejected():
    with pytest.raises(ScenarioError, match=r"^sim.t_end: 1.0 rounds to 0 steps of sim.h = 10.0$"):
        loads("sim.h = 10\nsim.t_end = 1\n")
    with pytest.raises(ScenarioError, match="rounds to 0 steps"):
        with_overrides(ScenarioConfig(), t_end=0.0004)
    assert with_overrides(ScenarioConfig(), t_end=0.0006).n_steps == 1


def test_record_count_capped():
    # stride 1 keeps n_steps + 1 records
    at_cap = "sim.h = 1\nsim.stride = 1\nsim.t_end = %d\n" % (MAX_RECORDS - 1)
    assert loads(at_cap).n_steps == MAX_RECORDS - 1
    with pytest.raises(ScenarioError, match=r"^sim: %d steps at sim.stride = 1 keep %d "
                       r"records, more than %d$" % (MAX_RECORDS, MAX_RECORDS + 1, MAX_RECORDS)):
        loads("sim.h = 1\nsim.stride = 1\nsim.t_end = %d\n" % MAX_RECORDS)
    with pytest.raises(ScenarioError, match="overflows"):
        with_overrides(ScenarioConfig(), h=1e-300, t_end=1e10)
    # a stride that keeps the records few lifts the cap
    assert with_overrides(ScenarioConfig(), t_end=1e4, stride=100).n_steps == 10 ** 7


def test_step_count_capped():
    # a stride that keeps few records no longer hides an endless run
    with pytest.raises(ScenarioError, match=r"^sim: sim.t_end = 1000000000.0 at sim.h = 0.001 "
                       r"is 1000000000000 steps, more than %d$" % MAX_STEPS):
        with_overrides(ScenarioConfig(), t_end=1e9, stride=10 ** 9)
    at_cap = "sim.h = 1\nsim.stride = %d\nsim.t_end = %d\n" % (MAX_STEPS, MAX_STEPS)
    assert loads(at_cap).n_steps == MAX_STEPS
    with pytest.raises(ScenarioError, match="is %d steps, more than" % (MAX_STEPS + 1)):
        loads("sim.h = 1\nsim.stride = %d\nsim.t_end = %d\n" % (MAX_STEPS, MAX_STEPS + 1))
    # the largest run made here, criterion 10 at h/2, stays well inside
    assert with_overrides(ScenarioConfig(), h=5e-4).n_steps == 200_000 < MAX_STEPS


def test_open_loop_mode_accepted():
    assert loads("mode = open_loop\n").mode == "open_loop"


def test_range_checks_warn_only():
    with pytest.warns(UserWarning, match="c1"):
        cfg = loads("plant.c1 = 3\n")
    assert cfg.c1 == 3.0
    with pytest.warns(UserWarning, match="k0"):
        cfg = loads("gains.k0 = 0.5\n")
    assert cfg.k0 == 0.5


def test_gain_syntax_error_is_config_error():
    with pytest.raises(ScenarioError, match="gains.rho"):
        loads("gains.rho = 10 + 4*x^4\n")


def test_gain_degree_capped_at_parse_time():
    assert loads("gains.rho = 10 + s^%d\n" % MAX_GAIN_DEGREE).rho.coeffs[-1] == 1.0
    # each would otherwise build a coefficient list that long before the run
    for power in (str(MAX_GAIN_DEGREE + 1), "1000000", "1000000000", "1" + "0" * 5000):
        with pytest.raises(ScenarioError, match=r"^line 2: gains.rho: term '\+s\^%s' has "
                           r"degree above %d" % (power, MAX_GAIN_DEGREE)):
            loads("plant.c1 = -1\ngains.rho = 10 + s^%s\n" % power)
    with pytest.raises(GainSyntaxError, match="degree above"):
        Polynomial.parse("1 + s^0000000065")


def test_load_scenario_reads_file(tmp_path):
    p = tmp_path / "s.scn"
    p.write_text("plant.sigma = 2.0\nmode = adaptive\n")
    cfg = load_scenario(p)
    assert cfg.sigma == 2.0 and cfg.mode == "adaptive"


def test_steady_start_file_is_the_derived_start(steady_cfg):
    # steady_start.scn pastes the start as literals; they must equal the
    # derivation in conftest.steady_cfg bit for bit
    cfg = load_scenario(os.path.join(os.path.dirname(__file__), "..", "scenarios",
                                     "steady_start.scn"))
    assert cfg.x0 == steady_cfg.x0
    assert cfg.eta1_0 == steady_cfg.eta1_0
    assert cfg.eta2_0 == steady_cfg.eta2_0


def test_with_overrides_revalidates():
    with pytest.raises(ScenarioError):
        with_overrides(ScenarioConfig(), h=-1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with_overrides(ScenarioConfig(), sigma=1.0)  # inside all boxes: silent


@pytest.mark.parametrize("over, key", [({"sigma": float("nan")}, "plant.sigma"),
                                       ({"t_end": float("inf")}, "sim.t_end"),
                                       ({"h": float("-inf")}, "sim.h"),
                                       ({"x0": (float("nan"), 0.0)}, "init.x")])
def test_with_overrides_rejects_non_finite(over, key):
    with pytest.raises(ScenarioError, match="^%s: .*finite" % key) as info:
        with_overrides(ScenarioConfig(), **over)
    assert len(info.value.violations) == 1


def test_scenario_error_survives_pickling():
    err = ScenarioError(["plant.sigma: must be finite, got nan", "sim.h: must be > 0"])
    back = pickle.loads(pickle.dumps(err))
    assert type(back) is ScenarioError
    assert back.violations == err.violations
    assert str(back) == str(err)
