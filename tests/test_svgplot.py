import math
import os
import re
import subprocess
import sys
import xml.etree.ElementTree as ET

import pytest

import outreg
from outreg import svgplot
from outreg.simulate import CSV_HEADER, SimLog, run
from outreg.scenario import serialize, with_overrides


@pytest.fixture
def short_log(steady_cfg):
    return run(with_overrides(steady_cfg, t_end=5.0))


def _parse(svg):
    # raises if not well-formed XML
    return ET.fromstring(svg)


def _log(t, **cols):
    """A SimLog with time column t, the given columns, and 0 elsewhere."""
    names = CSV_HEADER.split(",")[1:]
    return SimLog([t[i], *(cols[n][i] if n in cols else 0.0 for n in names)]
                  for i in range(len(t)))


def test_plots_deterministic_and_well_formed(short_log):
    for fn in (svgplot.trajectory_svg, svgplot.error_svg,
               svgplot.estimates_svg, svgplot.khat_svg):
        one = fn(short_log)
        two = fn(short_log)
        assert one == two
        root = _parse(one)
        assert root.tag.endswith("svg")
        assert 'viewBox="0 0 760 440"' in one


def test_series_labels_present(short_log):
    assert "x1" in svgplot.trajectory_svg(short_log)
    assert "Tracking error" in svgplot.error_svg(short_log)
    est = svgplot.estimates_svg(short_log)
    for label in ("a11", "a21", "a23"):
        assert label in est
    assert "khat" in svgplot.khat_svg(short_log)


def test_line_chart_thins_long_series():
    n = 120000
    xs = tuple(float(i) for i in range(n))
    ys = tuple(float(i % 11) for i in range(n))
    svg = svgplot.line_chart(_log(xs, e=ys), ("e",), "big", "y")
    _parse(svg)
    # every plotted point contributes one "x,y" token to the polyline
    body = svg.split("polyline")[1]
    assert body.count(",") <= 2100
    # the final sample survives thinning
    assert svg.count("points=") == 1


def test_constant_series_padded_axes():
    svg = svgplot.line_chart(_log((0.0, 1.0, 2.0), e=(5.0, 5.0, 5.0)), ("e",), "flat", "y")
    _parse(svg)
    assert not re.search(r"\b(nan|inf)\b", svg, re.IGNORECASE)


@pytest.mark.parametrize("lo, hi", [
    (0.0, 5e-324),    # the step underflowed to 0: log10 domain error
    (-1e308, 1e308),  # hi - lo overflowed to inf
])
def test_degenerate_span_ticks_are_finite(lo, hi):
    ticks = svgplot._nice_ticks(lo, hi)
    assert ticks and all(math.isfinite(t) and lo <= t <= hi for t in ticks)


def test_one_subnormal_span_chart():
    # _bounds leaves a column that spans one subnormal unpadded
    svg = svgplot.line_chart(_log((0.0, 1.0), e=(0.0, 5e-324)), ("e",), "tiny", "y")
    _parse(svg)
    assert not re.search(r"\b(nan|inf)\b", svg, re.IGNORECASE)


def test_overflowing_span_chart():
    # hi - lo overflows a double, so _bounds scales the column down
    svg = svgplot.line_chart(_log((0.0, 1.0), e=(-1e308, 1e308)), ("e",), "huge", "y")
    line = _parse(svg).find("{http://www.w3.org/2000/svg}polyline")
    assert not re.search(r"\b(nan|inf)\b", svg, re.IGNORECASE)
    # both vertices land inside the plot frame
    for point in line.get("points").split():
        x, y = map(float, point.split(","))
        assert 64 <= x <= 744 and 34 <= y <= 394


def test_chart_without_a_finite_value():
    # the y axis falls back to [0, 1] and the polyline has no vertex
    svg = svgplot.line_chart(_log((0.0, 1.0), e=(math.nan, -math.inf)), ("e",), "none", "y")
    line = _parse(svg).find("{http://www.w3.org/2000/svg}polyline")
    assert not re.search(r"\b(nan|inf)\b", svg, re.IGNORECASE)
    assert line.get("points") == ""
    assert ">0.5</text>" in svg


def test_empty_series_rejected():
    with pytest.raises(ValueError):
        svgplot.line_chart(SimLog([]), ("e",), "t", "y")
    with pytest.raises(ValueError):
        svgplot.line_chart(_log((0.0, 1.0), e=(1.0, 2.0)), (), "t", "y")


def test_one_ulp_axis_terminates(tmp_path, steady_cfg):
    # khat moves by one ulp in this run, so the khat plot's y axis spans one
    # ulp and the tick step is below half an ulp of 1.0: v += step left v
    # unchanged and the tick loop appended forever.  The run happens in a
    # child capped at 1 GB of address space, so a regression fails on
    # MemoryError or the timeout instead of exhausting the machine.
    cfg = with_overrides(steady_cfg, x0=(1.0, 0.5000004), khat0=1.0,
                         mode="adaptive", t_end=0.001)
    scn = tmp_path / "ulp.scn"
    scn.write_text(serialize(cfg))
    out_dir = tmp_path / "out"
    code = ("import resource\n"
            "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))\n"
            "from outreg import svgplot\n"
            "from outreg.cli import main\n"
            "print(svgplot._nice_ticks(1.0, 1.0000000000000002))\n"
            "assert main(['run', '--scenario', %r, '--out', %r]) == 0\n"
            % (str(scn), str(out_dir)))
    src = os.path.dirname(os.path.dirname(outreg.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, timeout=60)
    assert out.returncode == 0, out.stderr
    # one tick, just below the axis, so the chart draws none
    assert out.stdout == "[0.9999999999999999]\n"
    log = SimLog.from_csv((out_dir / "log.csv").read_text())
    assert log.column("khat") == [1.0, 1.0000000000000002]
    root = _parse((out_dir / "plot_khat.svg").read_text())
    assert root.tag.endswith("svg")
