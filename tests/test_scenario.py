import math
import os
import pickle
import warnings

import pytest

from outreg.cli import main
from outreg.scenario import (
    MAX_GAIN_DEGREE,
    MAX_RECORDS,
    MAX_STEPS,
    GainSyntaxError,
    Polynomial,
    ScenarioConfig,
    ScenarioError,
    load_scenario,
    loads,
    serialize,
    steady_start,
    with_overrides,
)

SCENARIOS = os.path.join(os.path.dirname(__file__), "..", "scenarios")


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
    path = os.path.join(SCENARIOS, "default.scn")
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


@pytest.mark.parametrize("line, err", [
    ("plant.c2 = 1_5", "not a number: '1_5'"),
    ("gains.k0 = 1_0", "not a number: '1_0'"),
    ("sim.stride = \u0661\u0660", "not an integer: '\u0661\u0660'"),
    ("init.x = 1, \u0663", "not a number list: '1, \u0663'"),
    ("plant.sigma = 0.\u0665", "not a number: '0.\u0665'"),
])
def test_numbers_are_ascii_decimals(line, err):
    # float() and int() would read these as 15, 10, 10, (1, 3) and 0.5
    key = line.split(" =")[0]
    with pytest.raises(ScenarioError) as info:
        loads("plant.c1 = -1\n" + line + "\n")
    assert info.value.violations == ("line 2: %s: %s" % (key, err),)


def test_wrong_vector_length():
    with pytest.raises(ScenarioError, match="expected 4 values"):
        loads("model.m1 = 1, 2, 3\n")


def test_non_hurwitz_filter_rejected():
    with pytest.raises(ScenarioError, match="M1 not Hurwitz"):
        loads("model.m1 = -1, 0, 0, 0\n")


def test_all_violations_reported_together():
    with pytest.raises(ScenarioError) as info:
        loads("sim.h = -1\nmapping.epsilon = 0\n")
    assert info.value.violations == ("line 1: sim.h: must be > 0, got -1.0",
                                     "line 2: mapping.epsilon: must be > 0, got 0.0")


def test_hard_limits():
    for bad in ("sim.h = 0", "sim.t_end = -5", "sim.stride = 0", "mapping.epsilon = -0.1"):
        with pytest.raises(ScenarioError):
            loads(bad + "\n")
    with pytest.raises(ScenarioError, match="mode"):
        loads("mode = turbo\n")


def test_zero_step_horizon_rejected():
    # a file's run length is violated on the last line of its keys
    with pytest.raises(ScenarioError,
                       match=r"^line 2: sim.t_end: 1.0 rounds to 0 steps of sim.h = 10.0$"):
        loads("sim.h = 10\nsim.t_end = 1\n")
    with pytest.raises(ScenarioError, match="rounds to 0 steps"):
        with_overrides(ScenarioConfig(), t_end=0.0004)
    assert with_overrides(ScenarioConfig(), t_end=0.0006).n_steps == 1


def test_record_count_capped():
    # stride 1 keeps n_steps + 1 records
    at_cap = "sim.h = 1\nsim.stride = 1\nsim.t_end = %d\n" % (MAX_RECORDS - 1)
    assert loads(at_cap).n_steps == MAX_RECORDS - 1
    with pytest.raises(ScenarioError, match=r"^line 3: sim: %d steps at sim.stride = 1 keep %d "
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
        with_overrides(ScenarioConfig(), t_end=1e9, stride=MAX_STEPS)
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


@pytest.mark.parametrize("expr", ["1/0", "10 + 4/0*s^4", "1/0." + "0" * 400 + "1",
                                  "9" * 400, "9" * 308 + " + " + "9" * 308,
                                  "1/0." + "0" * 320 + "1"],
                         ids=["1/0", "4/0", "den-underflows", "inf-term", "sum-overflows",
                              "quotient-overflows"])
def test_gain_zero_denominator_and_non_finite_coefficient_rejected(expr):
    # each once raised ZeroDivisionError or parsed to an inf coefficient
    # that serialize wrote and loads then refused
    with pytest.raises(ScenarioError, match=r"^line 2: gains.rho: gain expression .* has a "
                       "zero denominator or a coefficient that is not finite$"):
        loads("plant.c1 = -1\ngains.rho = %s\n" % expr)


def test_load_scenario_reads_file(tmp_path):
    p = tmp_path / "s.scn"
    p.write_text("plant.sigma = 2.0\nmode = adaptive\n")
    cfg = load_scenario(p)
    assert cfg.sigma == 2.0 and cfg.mode == "adaptive"


def test_init_steady_derives_the_start_at_the_files_own_point():
    stock = loads("init = steady\n")
    assert stock == steady_start(ScenarioConfig())
    assert stock.x0 == (1.0, 0.5) and stock.eta1_0 != (0.0,) * 4
    # the file's plant and init.v feed the derivation wherever they stand;
    # init.v and init.khat may sit beside it
    cfg = loads("init = steady\nplant.sigma = 1\ninit.v = 0.3, -1.2\ninit.khat = 2\n")
    assert cfg == steady_start(with_overrides(ScenarioConfig(), sigma=1.0, v0=(0.3, -1.2),
                                              khat0=2.0))
    assert cfg.x0 == (0.3, -1.2) and cfg.khat0 == 2.0


def test_overrides_keep_the_loaded_start():
    stock = loads("init = steady\n")
    moved = with_overrides(stock, sigma=1.0)
    assert moved.x0 == stock.x0 and moved.eta2_0 == stock.eta2_0
    assert moved.x0 != loads("plant.sigma = 1\ninit = steady\n").x0


def test_init_errors_carry_line_numbers():
    with pytest.raises(ScenarioError) as info:
        loads("init = cold\n")
    assert info.value.violations == ("line 1: init: must be steady, got 'cold'",)
    # both orders, listed in line order among the parse errors
    with pytest.raises(ScenarioError) as info:
        loads("init.x = 1, 0\nsim.h = fast\ninit = steady\ninit.v = 1, 1\n"
              "init.eta2 = 0, 0, 0, 0, 0, 0, 0, 0\ninit = steady\n")
    assert info.value.violations == (
        "line 1: init.x: not allowed with init = steady (line 3)",
        "line 2: sim.h: not a number: 'fast'",
        "line 5: init.eta2: not allowed with init = steady (line 3)",
        "line 6: duplicate key 'init'",
    )
    with pytest.raises(ScenarioError, match=r"^line 2: init.eta1: not allowed with init = "
                       r"steady \(line 1\)$"):
        loads("init = steady\ninit.eta1 = 0, 0, 0, 0\n")


def test_non_finite_derived_start_is_a_config_error():
    # each input is finite, but u_ss = c2*v1^3 overflows to inf, then nan
    with pytest.raises(ScenarioError, match=r"^line 2: init: derived init.eta2: values must be "
                       r"finite, got \(nan, ") as info:
        loads("init.v = 1e200, 1e200\ninit = steady\n")
    assert len(info.value.violations) == 1


def test_singular_q_is_a_config_error(monkeypatch):
    from outreg import duffing
    from outreg.linalg import SingularMatrixError

    def singular(a, m):
        raise SingularMatrixError("numerically singular: pivot ratio 1e+13 exceeds 1e+12")

    monkeypatch.setattr(duffing, "q_matrix", singular)
    with pytest.raises(ScenarioError) as info:
        loads("plant.c1 = -1\ninit = steady\n")
    assert info.value.violations == (
        "line 2: init: numerically singular: pivot ratio 1e+13 exceeds 1e+12",)


def test_init_steady_warns_as_often_as_the_file_without_it():
    def warned(text):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            loads(text)
        return [str(w.message) for w in caught]

    assert warned("plant.sigma = 2.5\ninit = steady\n") == warned("plant.sigma = 2.5\n") == [
        "sigma = 2.5 is outside the benchmark box [0.1, 2]"]


@pytest.mark.parametrize("name", sorted(os.listdir(SCENARIOS)))
def test_scenario_files_load_silently_and_round_trip(name):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        cfg = load_scenario(os.path.join(SCENARIOS, name))
    assert loads(serialize(cfg)) == cfg


@pytest.mark.parametrize("over, message", [
    ({"k0": 0.5}, "k0 = 0.5 is below the k0 >= 1 design bound"),
    ({"k": Polynomial((1.0, 1.0))}, "cannot prove k(s) >= 1 for all s: '1 + s'"),
    ({"c1": 3.0}, "c1 = 3.0 is outside the benchmark box [-2, 2]"),
    ({"sigma": 2.5}, "sigma = 2.5 is outside the benchmark box [0.1, 2]"),
    ({"rho": Polynomial((0.0, 0.0, 1.0))}, "cannot prove rho(s) >= 1 for all s: 's^2'")])
def test_box_and_gain_warnings_name_the_validating_line(over, message):
    # each warning points at its line in validate(), not at the module of
    # whatever validate calls
    import outreg.scenario

    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with_overrides(ScenarioConfig(), **over)
    assert [(str(w.message), w.filename) for w in caught] == [
        (message, outreg.scenario.__file__)]


def test_with_overrides_revalidates():
    with pytest.raises(ScenarioError):
        with_overrides(ScenarioConfig(), h=-1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with_overrides(ScenarioConfig(), sigma=1.0)  # inside all boxes: silent


@pytest.mark.parametrize("over, key", [({"sigma": float("nan")}, "plant.sigma"),
                                       ({"t_end": float("inf")}, "sim.t_end"),
                                       ({"h": float("-inf")}, "sim.h"),
                                       ({"x0": (float("nan"), 0.0)}, "init.x"),
                                       ({"rho": Polynomial((1.0, float("inf")))}, "gains.rho"),
                                       ({"k": Polynomial((float("nan"),))}, "gains.k"),
                                       ({"c2": float("nan")}, "plant.c2")])
def test_with_overrides_rejects_non_finite(over, key):
    with pytest.raises(ScenarioError, match="^%s: .*finite" % key) as info:
        with_overrides(ScenarioConfig(), **over)
    assert len(info.value.violations) == 1


_WRONG_LENGTHS = [
    ("init.x", "x0", (1.0,), "1.0", "expected 2 values, got 1"),
    ("init.v", "v0", (1.0, 1.0, 1.0), "1, 1, 1", "expected 2 values, got 3"),
    ("init.eta1", "eta1_0", (0.0,) * 8, ", ".join(["0"] * 8), "expected 4 values, got 8"),
    ("init.eta2", "eta2_0", (0.0,) * 4, "0, 0, 0, 0", "expected 8 values, got 4"),
    ("model.m1", "m1", (2.0, 3.0), "2, 3", "expected 4 values, got 2"),
    ("model.m2", "m2", (1.0,) * 9, ", ".join(["1"] * 9), "expected 8 values, got 9"),
    ("mapping.mask1", "mask1", (True,), "1", "expected 2 entries, got 1"),
    ("mapping.mask2", "mask2", (False, True, False), "0, 1, 0", "expected 4 entries, got 3"),
]


@pytest.mark.parametrize("key, field, val, text, message", _WRONG_LENGTHS,
                         ids=[case[0] for case in _WRONG_LENGTHS])
def test_wrong_vector_length_is_reported_first_and_alone(key, field, val, text, message):
    # as the parser words it, beside the other field's violation (h = -1),
    # and without the checks that assume the length (here the Hurwitz test
    # of m1 = (2, 3) and the step count)
    with pytest.raises(ScenarioError) as info:
        with_overrides(ScenarioConfig(), h=-1.0, **{field: val})
    assert info.value.violations == ("%s: %s" % (key, message), "sim.h: must be > 0, got -1.0")
    with pytest.raises(ScenarioError) as info:
        loads("%s = %s\n" % (key, text))
    assert info.value.violations == ("line 1: %s: %s" % (key, message),)


# (field, value, the violation, or None where validate accepts the value)
_TYPED_VALUES = [
    ("c1", "1", "plant.c1: not a number: '1'"),
    ("k0", True, "gains.k0: not a number: True"),
    ("h", None, "sim.h: not a number: None"),
    ("sigma", 1, None),  # an int is a number
    ("x0", [1.0, -1.0], "init.x: not a number list: [1.0, -1.0]"),
    ("x0", [1.0], "init.x: not a number list: [1.0]"),
    ("x0", (1, -1), None),
    ("m1", (10.0, 18.0, "15", 6.0), "model.m1: not a number list: (10.0, 18.0, '15', 6.0)"),
    ("eta1_0", (0.0, 0.0, None, 0.0), "init.eta1: not a number list: (0.0, 0.0, None, 0.0)"),
    ("eta2_0", (0.0,) * 7 + (False,), "init.eta2: not a number list: %r" % ((0.0,) * 7 + (False,),)),
    ("mask1", (2, "no"), "mapping.mask1: mask entries must be 0/1, got (2, 'no')"),
    ("mask2", [False, True, False, True],
     "mapping.mask2: mask entries must be 0/1, got [False, True, False, True]"),
    ("mask1", (True, True), None),
    ("stride", 2.5, "sim.stride: not an integer: 2.5"),
    ("stride", True, "sim.stride: not an integer: True"),
    ("stride", 5, None),
    ("rho", "10", "gains.rho: not a Polynomial: '10'"),
    ("k", (1.0, 0.0, 1.0), "gains.k: not a Polynomial: (1.0, 0.0, 1.0)"),
    # each rule below is written once, so an override meets it as a file does
    ("rho", Polynomial((10.0,) + (0.0,) * MAX_GAIN_DEGREE + (1.0,)),
     "gains.rho: degree %d is above %d" % (MAX_GAIN_DEGREE + 1, MAX_GAIN_DEGREE)),
    ("c1", 10 ** 400, "plant.c1: must be finite, got 1" + "0" * 400),
    # repr of an int this long raises ValueError
    ("c1", 10 ** 5000, "plant.c1: must be finite, got <int too long to print>"),
    ("stride", 10 ** 20, "sim.stride: must be <= %d, got 1%s" % (MAX_STEPS, "0" * 20)),
    ("rho", Polynomial((10.0, 0.0, 1e-7)), None),  # written 10 + 0.0000001*s^2
]
_WRONG_TYPES = [case for case in _TYPED_VALUES if case[2] is not None]


def _case_id(field, val, message):
    # repr names neither 10**5000 (it raises) nor the degree-65 gain briefly
    if type(val) is int and val > 10 ** 18:
        return "%s=10**%d" % (field, round(math.log10(val)))
    if type(val) is Polynomial and len(val.coeffs) > MAX_GAIN_DEGREE:
        return "%s=degree %d" % (field, len(val.coeffs) - 1)
    return "%s=%r" % (field, val)


@pytest.mark.parametrize("field, val, message", _WRONG_TYPES,
                         ids=[_case_id(*case) for case in _WRONG_TYPES])
def test_wrong_value_type_is_reported_first_and_alone(field, val, message):
    # as a file's value would be worded, beside the other field's violation
    # (epsilon = -1) in key order, and without the checks that assume a
    # legal value (here the field's own range and the step count of
    # t_end = 1e-5, which rounds to 0 steps)
    with pytest.raises(ScenarioError) as info:
        with_overrides(ScenarioConfig(), epsilon=-1.0, t_end=1e-5, **{field: val})
    other = "mapping.epsilon: must be > 0, got -1.0"
    first = ScenarioConfig._fields.index(field) < ScenarioConfig._fields.index("epsilon")
    assert info.value.violations == ((message, other) if first else (other, message))


def test_every_accepted_value_keeps_the_record_contract():
    # a config validate accepts hashes and round-trips through its text
    accepted = 0
    for field, val, message in _TYPED_VALUES:
        try:
            cfg = with_overrides(ScenarioConfig(), **{field: val})
        except ScenarioError as exc:
            assert exc.violations == (message,)
            continue
        assert message is None, (field, val)
        assert hash(cfg) == hash(loads(serialize(cfg)))
        assert loads(serialize(cfg)) == cfg
        accepted += 1
    assert accepted == len(_TYPED_VALUES) - len(_WRONG_TYPES)


_BOTH_PATHS = [
    ("plant.c2", "c2", "nan", math.nan),
    ("init.v", "v0", "1, inf", (1.0, math.inf)),
    ("model.m1", "m1", "10, 18, 15", (10.0, 18.0, 15.0)),
    ("mapping.mask2", "mask2", "0, 1", (False, True)),
    ("mode", "mode", "turbo", "turbo"),
    ("sim.h", "h", "-1", -1.0),
    ("sim.t_end", "t_end", "0", 0.0),
    ("sim.stride", "stride", "0", 0),
    ("mapping.epsilon", "epsilon", "0", 0.0),
    ("plant.sigma", "sigma", "-1", -1.0),
    ("model.m2", "m2", "-1, 0, 0, 0, 0, 0, 0, 0", (-1.0,) + (0.0,) * 7),
]


@pytest.mark.parametrize("key, field, text, val", _BOTH_PATHS, ids=[c[0] for c in _BOTH_PATHS])
def test_a_file_and_an_override_meet_the_same_rule(key, field, text, val):
    # the same bad value read from a file and passed as an override gives
    # the same violation, the file's with its line number
    with pytest.raises(ScenarioError) as from_file:
        loads("plant.c1 = -1\n%s = %s\n" % (key, text))
    with pytest.raises(ScenarioError) as from_override:
        with_overrides(ScenarioConfig(), **{field: val})
    assert len(from_override.value.violations) == 1
    assert from_file.value.violations == tuple(
        "line 2: " + v for v in from_override.value.violations)


_GRID_CELLS = [
    ("x0=1:2:3", "x0", (1.0, 2.0, 3.0)),
    ("m1=10:18:15", "m1", (10.0, 18.0, 15.0)),
    ("eta2_0=0:0", "eta2_0", (0.0, 0.0)),
    ("x0=1", "x0", 1.0),
    ("sigma=1:2", "sigma", (1.0, 2.0)),
]


@pytest.mark.parametrize("cell, field, val", _GRID_CELLS, ids=[c[0] for c in _GRID_CELLS])
def test_a_grid_cell_meets_the_same_rule(tmp_path, capsys, cell, field, val):
    # a sweep grid cell of the wrong length or kind is the override's
    # violation, named by its grid point, and nothing is written
    with pytest.raises(ScenarioError) as from_override:
        with_overrides(ScenarioConfig(), **{field: val})
    (violation,) = from_override.value.violations
    out = tmp_path / "sw"
    assert main(["sweep", "--grid", cell, "--jobs", "1", "--out", str(out)]) == 2
    assert capsys.readouterr().err == "config error:\ngrid point %s: %s\n" % (cell, violation)
    assert not out.exists()


def test_nonpositive_sigma_is_a_plant_violation():
    # and beside it no box warning fires, even for a plant outside the box
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for build, where, got in (
                (lambda: with_overrides(ScenarioConfig(), sigma=0.0), "", "0.0"),
                (lambda: with_overrides(ScenarioConfig(), sigma=-3.0, c1=3.0), "", "-3.0"),
                (lambda: loads("plant.c1 = 3\nplant.sigma = -1\n"), "line 2: ", "-1.0")):
            with pytest.raises(ScenarioError) as info:
                build()
            assert info.value.violations == ("%splant.sigma: must be > 0, got %s" % (where, got),)


def test_warnings_come_only_without_violations():
    # neither a field's violation nor the run length's lets a warning through
    outside = {"c3": 2.5, "k0": 0.5, "k": Polynomial((0.0,))}
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(ScenarioError, match="^sim.h: must be > 0, got -1.0$"):
            with_overrides(ScenarioConfig(), h=-1.0, **outside)
        with pytest.raises(ScenarioError, match="^sim.t_end: 1e-05 rounds to 0 steps"):
            with_overrides(ScenarioConfig(), t_end=1e-5, **outside)
        assert caught == []
        with_overrides(ScenarioConfig(), **outside)
    assert [str(w.message) for w in caught] == [
        "c3 = 2.5 is outside the benchmark box [-2, 2]",
        "cannot prove k(s) >= 1 for all s: '0'",
        "k0 = 0.5 is below the k0 >= 1 design bound"]


def test_scenario_error_survives_pickling():
    err = ScenarioError(["plant.sigma: must be finite, got nan", "sim.h: must be > 0"])
    back = pickle.loads(pickle.dumps(err))
    assert type(back) is ScenarioError
    assert back.violations == err.violations
    assert str(back) == str(err)
