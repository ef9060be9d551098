import hashlib
import math

import pytest

from quadray import QuadraticMap
from quadray.cli import run_command
from quadray.scene import (Viewport, julia_point_cloud, markers_svg,
                           point_cloud_svg, polyline_svg, render_scene)


def vp():
    return Viewport(-2.0, 2.0, -2.0, 2.0)


def test_empty_scene_is_valid_svg():
    svg = render_scene([])
    assert svg.startswith("<svg")
    assert svg.rstrip().endswith("</svg>")


def test_render_is_deterministic():
    def scene():
        return render_scene(markers_svg([1.0 + 0j], ["beta"], vp())
                            + polyline_svg([0j, 1.0 + 1.0j, 2.5 + 0.5j], vp(), "#1f77b4", ""))
    assert scene() == scene()


def test_marker_layer_single_point():
    svg = render_scene(markers_svg([1.0 + 0j], ["m"], vp()))
    assert svg.count("<circle") == 1
    # viewport maps 1+0i to (480, 320) in a 640x640 canvas
    assert 'cx="480.000"' in svg and 'cy="320.000"' in svg


def test_polyline_clipped_to_viewport():
    svg = render_scene(polyline_svg([0j, 10.0 + 0j], vp(), "#1f77b4", ""))
    # the segment must stop at the right viewport edge (x = 640)
    assert "640.000,320.000" in svg


def test_point_cloud_outside_viewport_dropped():
    svg = render_scene(point_cloud_svg([0.5 + 0.5j, 30.0 + 0j], vp()))
    assert svg.count("M") == 1


def test_julia_cloud_on_unit_circle():
    pts = julia_point_cloud(QuadraticMap(0.0), count=500, seed=3)
    assert len(pts) == 500
    assert all(abs(abs(z) - 1.0) < 1e-6 for z in pts)


def test_julia_cloud_seeded_reproducible():
    a = julia_point_cloud(QuadraticMap(-1.0), count=200, seed=5)
    b = julia_point_cloud(QuadraticMap(-1.0), count=200, seed=5)
    assert a == b


def test_basilica_rays_meet_alpha():
    # inverse-iteration cloud plus the 1/3 and 2/3 rays: both polylines end
    # within marker radius of the alpha fixed point (a 4px marker spans
    # ~0.028 complex units in the default 4.4-unit / 640px viewport)
    from quadray import Angle, trace_ray
    qmap = QuadraticMap(-1.0)
    alpha = (1.0 - math.sqrt(5.0)) / 2.0
    marker_radius = 4.0 * 4.4 / 640.0
    ends = []
    for num in (1, 2):
        trace = trace_ray(qmap, Angle(num, 3), g_min=1e-10)
        ends.append(trace.samples[-1][1])
    assert all(abs(e - alpha) < marker_radius for e in ends)


#: the bench's basilica render: Julia cloud, the period-2 and period-3 ray
#: cycles, and the markers of the cycles of period dividing 4
BENCH_ANGLES = "22/63,25/63,37/63,11/63,44/63,50/63,3/7,6/7,5/7,1/7,2/7,4/7"


@pytest.mark.parametrize("argv, name, sha256", [
    pytest.param(["render", "--preset", "basilica", "--layers", "julia,rays,orbits",
                  "--marker-period", "4", "--g-min", "1e-8", "--angles", BENCH_ANGLES],
                 "scene.svg",
                 "1d84a5313c51c0b16047fa9b8a08e4259310e70027dbf53aca3641071d9e5a00",
                 id="render-bench"),
    pytest.param(["render", "--preset", "basilica", "--layers", "julia,rays",
                  "--angles", "1/3,2/3", "--points", "3000", "--seed", "5",
                  "--g-min", "1e-5"],
                 "scene.svg",
                 "26e68ad42fa568e90889b7338977829a4538722c08c0007a725491cec1008a6a",
                 id="render-criterion-10"),
    pytest.param(["pressure", "--c", "0,0", "--t", "0:2:0.5", "--n", "10"],
                 "pressure.svg",
                 "acd52a7201895f37ca902339c19fd55b130e3d761685475207cf874bf8354428",
                 id="pressure-criterion-10"),
])
def test_svg_bytes_are_pinned(tmp_path, argv, name, sha256):
    # a change to the drawing code must not move a committed SVG silently:
    # criterion 10 only replays a run against itself
    assert run_command(argv + ["--output-dir", str(tmp_path)]) == 0
    assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == sha256
