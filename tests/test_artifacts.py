"""Pin the bytes of every file `outreg run` and `outreg sweep` write.

Two short runs from the steady start: an adaptive one at stride 1 (the dense
log, four plots) and a nonadaptive one at stride 10.  A third run is the
stock cold start at stride 1, which escapes at t = 0.117: it pins a partial
log and a metrics.json with null fields, and exits 3.  Each artifact is
hashed as written; metrics.json is hashed without its "backend" line, the
only byte that depends on which kernel twin ran.  One short sweep over a
scalar and a vector axis pins summary.csv, and the four charts of two more
logs pin what those runs never reach: thinning, and non-finite values.
Any change to the record path, the CSV or SVG formatting, the metrics or the
grid parser that moves one byte fails here.
"""

import hashlib
import math
import re

import pytest
from conftest import STEADY_SCN

from outreg import svgplot
from outreg.cli import EXIT_DIVERGED, EXIT_OK, main
from outreg.scenario import ScenarioConfig, serialize, with_overrides
from outreg.simulate import SimLog, run

# name: (start on the steady orbit?, overrides, exit status)
CASES = {
    "adaptive_stride1": (True, {"mode": "adaptive", "stride": 1, "t_end": 0.5}, EXIT_OK),
    "nonadaptive_stride10": (True, {"mode": "nonadaptive", "stride": 10, "t_end": 2.0},
                             EXIT_OK),
    "cold_stride1": (False, {"stride": 1}, EXIT_DIVERGED),
}

DIGESTS = {
    "adaptive_stride1": {
        "log.csv": "662d75447682275208e08f1f79d2d3b0110710f7649ca590c4142da0a38c2708",
        "metrics.json": "05accb82c84cf92b68fafedb214a54fc21ae21df6cac81fd5ca8249ef179e71d",
        "plot_error.svg": "34561c9e16044d83c5a7254180931cc569f3fb3d5866d9a384c6e6d4066115ff",
        "plot_estimates.svg": "8fd8c770f0d8baa4f933264a92070b881ab7b126c6eb70c4a289b3836e638ca0",
        "plot_khat.svg": "2ba9c8d626af0f37f1141cade8b428ea80a349ef973ae70780e9169d9de9c238",
        "plot_trajectory.svg": "221937342831be9e69827556d3be4cc0f89ada1723e49b8e7a75442928e5ce99",
    },
    "cold_stride1": {
        "log.csv": "6e1f8b5394e0505a3d8eeeb8295ef70153e0f27a9966aea52b645d39054b5f40",
        "metrics.json": "768b214a2cc97e05eac70792b1089ea3d1ee90b1a4497a6bf698e76eb9e8dc89",
        "plot_error.svg": "b82ae196c944735775659bfbff65e7f4c2ec3216ca0b9784c23acd5c3a9b103d",
        "plot_estimates.svg": "13ff4e45caa3744f0c8d05d915ecdb42345659efb2d1111a698796341e6e2a9b",
        "plot_trajectory.svg": "4f88a81de1c2f4cc2b64aa761d1201367fb4375fe18f687753bf05730308acd2",
    },
    "nonadaptive_stride10": {
        "log.csv": "7fa2d806c22217c3deb43810a626d8bd12ff25720b7ddc9770f4d6133b364a9d",
        "metrics.json": "9c9da52179b0fbba30185a62c6515932099050e421793a35eea0321f78b7375d",
        "plot_error.svg": "5c8a4e7ca906e33610333efe2d035be6ac2b6586b720340da92e51770f69ed47",
        "plot_estimates.svg": "b0872f72e626c4a5de3a51e4f5bb108655450585df5bb34acdf100e0fcbd3e57",
        "plot_trajectory.svg": "f5a61a8528f4d3ad095f6a495c1c9f6f6b36b6a8b57cab63ecb56cf106d6893e",
    },
}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("case", sorted(CASES))
def test_run_artifacts_pinned(tmp_path, steady_cfg, case):
    scn = tmp_path / "case.scn"
    steady, overrides, status = CASES[case]
    base = steady_cfg if steady else ScenarioConfig()
    scn.write_text(serialize(with_overrides(base, **overrides)))
    out = tmp_path / "out"
    assert main(["run", "--scenario", str(scn), "--out", str(out)]) == status
    got = {}
    for path in sorted(out.iterdir()):
        data = path.read_bytes()
        if path.name == "metrics.json":
            data = b"".join(ln for ln in data.splitlines(keepends=True)
                            if not ln.startswith(b'  "backend": '))
        got[path.name] = _sha(data)
    assert got == DIGESTS[case]


SWEEP_SUMMARY_DIGEST = "6dc385fd90697b40c4da1b824e97b733cb03f3e300ae85e7751313370ea48ecb"


def test_sweep_summary_pinned(tmp_path):
    out = tmp_path / "sw"
    # half the points escape within the horizon, so the sweep exits 3
    assert main(["sweep", "--scenario", STEADY_SCN, "--tend", "1", "--jobs", "1",
                 "--grid", "sigma=0.5,1;c2=0,2;x0=1:0.5,1:0", "--out", str(out)]) == 3
    assert _sha((out / "summary.csv").read_bytes()) == SWEEP_SUMMARY_DIGEST


# The four charts of two logs `outreg run` never writes in the cases above:
# a dense log past svgplot._MAX_POINTS rows, so every series is thinned, and
# a hand-built log whose estimate columns hold nan and +-inf after row 0
# (x2 holds a nan too), so the y range and the vertices meet non-finite
# values.
def _nonfinite_log():
    nan, inf = math.nan, math.inf
    a21 = (0.5, nan, inf, 0.75, -inf, 1.0)
    a23 = (-1.0, -inf, 2.0, nan, inf, 0.0)
    x2 = (0.0, 0.25, nan, -0.5, 0.125, 1.0)
    return SimLog((0.25 * i, 1.0 - 0.1 * i, x2[i], 0.01 * i, 0.0, -0.5 * i, 1.0 + i,
                   a21[i], a23[i], 1.0, 2.0, 0.001 * i) for i in range(6))


SVG_DIGESTS = {
    "dense": {
        "trajectory_svg": "76f538654fc7cfdffa4aa761f049f676ae7fe46c0bba850e2ae51bb6eb5d5486",
        "error_svg": "3b6d93e5c1cae776f588ada0d000c5ad5f8fcce6d76fbca822e81019bbd1d933",
        "estimates_svg": "840f1e9e293c8d09875b32d58f21af59d9041924f6cbbfec7abef91b6b967faf",
        "khat_svg": "fc2b33dcaed8aee5164c5d5bd1452df9010554d6233eb231d2599564ad44b620",
    },
    "nonfinite": {
        "trajectory_svg": "3eeb33d079705906bfa8afde81e6b80a262d04aeb43d5a8040204ecbb103fa20",
        "error_svg": "2d3ec2b5fc408357ceb19243432726dccfe0e1af8b7701a9d4b308cd3fa32887",
        "estimates_svg": "31a66cc84d4368e918db0fd41611d952af0cc7b7e815ce2da77696a7656b3a7a",
        "khat_svg": "0376c2fe8ef4ad8e0505c0fd261b1676bca170154f5bc55d3b091aa965749d3b",
    },
}


def test_svg_charts_pinned(steady_cfg):
    logs = {"dense": run(with_overrides(steady_cfg, mode="adaptive", stride=1, t_end=2.5)),
            "nonfinite": _nonfinite_log()}
    assert len(logs["dense"]) == 2501 > svgplot._MAX_POINTS
    got = {name: {fn.__name__: _sha(fn(log).encode())
                  for fn in (svgplot.trajectory_svg, svgplot.error_svg,
                             svgplot.estimates_svg, svgplot.khat_svg)}
           for name, log in logs.items()}
    assert got == SVG_DIGESTS


def test_nonfinite_values_draw_no_vertex():
    # the y range comes from the finite values, and a row whose value is not
    # finite drops out of that column's polyline only
    log = _nonfinite_log()
    for fn in (svgplot.trajectory_svg, svgplot.error_svg,
               svgplot.estimates_svg, svgplot.khat_svg):
        assert not re.search(r"\b(nan|inf)\b", fn(log), re.IGNORECASE), fn.__name__
    polylines = re.findall(r'<polyline points="([^"]*)"', svgplot.estimates_svg(log))
    assert [len(p.split()) for p in polylines] == [6, 3, 3]
    trajectory = re.findall(r'<polyline points="([^"]*)"', svgplot.trajectory_svg(log))
    assert [len(p.split()) for p in trajectory] == [6, 5]
