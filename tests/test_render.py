"""SVG output: structure, framing, and byte determinism."""

from importlib.resources import files

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from geodeform.configurations import Configuration
from geodeform.core import Circle, Point
from geodeform.render import _bounds, _escape, render, render_svg
from geodeform.script import evaluate, parse

SHAPES = files("geodeform") / "shapes"


def base_shape(name):
    """The figure of the shipped program `shapes/<name>.geo`."""
    return evaluate(parse((SHAPES / f"{name}.geo").read_text(encoding="utf-8")))[0]


def simple_config(objects, edges=()):
    return Configuration(dict(objects), {}, tuple(edges))


def test_empty_configuration_is_an_error():
    with pytest.raises(ValueError):
        render_svg(simple_config({}))


def test_document_shell():
    svg = render_svg(simple_config({"A": Point(0, 0), "B": Point(1, 1)}))
    assert svg.startswith('<?xml version="1.0" encoding="UTF-8"?>')
    assert '<svg xmlns="http://www.w3.org/2000/svg"' in svg
    assert svg.rstrip().endswith("</svg>")


def test_viewbox_framing():
    """Unit diagonal: 5 percent padding on a span of 1 gives a 110 px
    square frame starting at (-5, -105)."""
    svg = render_svg(simple_config({"A": Point(0, 0), "B": Point(1, 1)}))
    assert 'viewBox="-5.0000 -105.0000 110.0000 110.0000"' in svg
    assert 'width="110.0000"' in svg
    assert 'height="110.0000"' in svg


def test_hexagon_figure_structure():
    """The decorated hexagon draws its outer ring (6), the inner triangle
    (3) and the center spokes (3), plus one marker per point."""
    svg = render_svg(base_shape("regular_hexagon"))
    assert svg.count("<line ") == 12
    assert svg.count('class="point"') == 7
    assert svg.count("<text ") == 7


def test_point_markers_are_white_dots():
    svg = render_svg(simple_config({"A": Point(0, 0), "B": Point(1, 0)}))
    assert svg.count('r="2.0000" fill="white" stroke="black"') == 2


def test_edges_draw_segments():
    cfg = simple_config({"A": Point(0, 0), "B": Point(2, 0), "C": Point(1, 1)},
                        edges=[("A", "B"), ("B", "C")])
    svg = render_svg(cfg)
    assert svg.count("<line ") == 2
    assert 'x1="0.0000" y1="0.0000" x2="200.0000" y2="0.0000"' in svg


def test_y_axis_points_up():
    svg = render_svg(simple_config({"A": Point(0, 0), "B": Point(0, 2)},
                                   edges=[("A", "B")]))
    # the higher point has the smaller (more negative) svg y
    assert 'y2="-200.0000"' in svg


def test_circle_objects_are_outlined():
    svg = render_svg(base_shape("triangle_with_incircle"))
    assert '<circle fill="none"' in svg or 'fill="none" stroke="black"' in svg


def test_negative_zero_scrubbed():
    svg = render_svg(simple_config({"A": Point(-1e-9, 1.0),
                                    "B": Point(1.0, -1e-9)}))
    assert "-0.0000" not in svg


def test_labels_escaped():
    svg = render_svg(simple_config({"P&Q": Point(0, 0), "R<S": Point(1, 1)}))
    assert "P&amp;Q" in svg
    assert "R&lt;S" in svg


@pytest.mark.parametrize("label", ["a<&>b", "&lt;", ">&gt", "x&amp;y"])
def test_labels_escaped_as_saxutils_does(label):
    """The local escape writes the bytes xml.sax.saxutils.escape wrote."""
    from xml.sax.saxutils import escape

    svg = render_svg(simple_config({label: Point(0, 0)}))
    assert f'font-family="serif">{escape(label)}</text>' in svg


def test_byte_determinism():
    a = render_svg(base_shape("crown"))
    b = render_svg(base_shape("crown"))
    assert a == b


def test_render_writes_the_same_bytes(tmp_path):
    cfg = base_shape("hexagonal_star")
    out = tmp_path / "fig.svg"
    render(cfg, out)
    assert out.read_text(encoding="utf-8") == render_svg(cfg)


def test_every_shape_renders():
    names = [entry.name.removesuffix(".geo") for entry in SHAPES.iterdir()
             if entry.name.endswith(".geo")]
    assert len(names) == 10
    for name in names:
        svg = render_svg(base_shape(name))
        assert svg.count('class="point"') >= 3, name


@pytest.mark.parametrize("size", [1e308, 1e307])
def test_a_frame_that_overflows_is_an_error(size):
    """At 1e308 the figure's span overflows; at 1e307 the span is finite
    but its coordinates overflow at 100 px per unit.  Neither is drawn
    with `inf` in its attributes."""
    figure = simple_config({"A": Point(-1.5 * size, 0.0),
                            "B": Point(1.5 * size, 0.0),
                            "C": Point(0.0, size)}, [("A", "B")])
    with pytest.raises(ValueError, match="too large to draw"):
        render_svg(figure)


def test_a_large_frame_that_fits_is_drawn():
    svg = render_svg(simple_config({"A": Point(-1e300, 0.0),
                                    "B": Point(1e300, 0.0)}))
    assert "inf" not in svg and "nan" not in svg


# ---------------------------------------------------------------------------
# the writer against a per-value oracle

def _fmt(value):
    out = f"{value:.4f}"
    return "0.0000" if out == "-0.0000" else out


def oracle_svg(config):
    """The SVG as the writer that formatted each number on its own wrote
    it, frame check aside."""
    xmin, ymin, xmax, ymax = _bounds(config)
    span = max(xmax - xmin, ymax - ymin)
    if span == 0.0:
        span = 1.0
    pad = 0.05 * span
    px0 = (xmin - pad) * 100.0
    py0 = -(ymax + pad) * 100.0
    width = (xmax - xmin + 2.0 * pad) * 100.0
    height = (ymax - ymin + 2.0 * pad) * 100.0

    def to_px(p):
        return p.x * 100.0, -p.y * 100.0

    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        '<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{_fmt(width)}" height="{_fmt(height)}" '
        f'viewBox="{_fmt(px0)} {_fmt(py0)} {_fmt(width)} {_fmt(height)}">',
    ]
    for a, b in config.edges:
        xa, ya = to_px(config.point(a))
        xb, yb = to_px(config.point(b))
        parts.append(f'<line x1="{_fmt(xa)}" y1="{_fmt(ya)}" '
                     f'x2="{_fmt(xb)}" y2="{_fmt(yb)}" '
                     'stroke="black" stroke-width="1"/>')
    for obj in config.objects.values():
        if isinstance(obj, Circle):
            cx, cy = to_px(obj.center)
            parts.append(f'<circle cx="{_fmt(cx)}" cy="{_fmt(cy)}" '
                         f'r="{_fmt(obj.radius * 100.0)}" '
                         'fill="none" stroke="black" stroke-width="1"/>')
    for label, obj in config.objects.items():
        if not isinstance(obj, Point):
            continue
        x, y = to_px(obj)
        parts.append(f'<circle class="point" cx="{_fmt(x)}" cy="{_fmt(y)}" '
                     f'r="{_fmt(2.0)}" '
                     'fill="white" stroke="black" stroke-width="1"/>')
        parts.append(f'<text x="{_fmt(x + 4.0)}" y="{_fmt(y - 4.0)}" '
                     f'font-size="10" font-family="serif">'
                     f'{_escape(label)}</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


# near 0 in pixels (-0.0000 unfixed), near -4 and 4 pixels (the label's
# offsets), and large
_COORD = st.one_of(
    st.floats(-5e-7, 0.0), st.floats(-5e-5, 5e-5), st.sampled_from([-0.0]),
    st.floats(-0.04 - 1e-6, -0.04 + 1e-6), st.floats(0.04 - 1e-6, 0.04 + 1e-6),
    st.floats(-1e300, 1e300), st.floats(-1e3, 1e3))
_RADIUS = st.one_of(st.floats(0.0, 5e-7), st.floats(0.0, 1e3))
_LABELS = ["A", "B'", "-0.0000", "a<&>b", "x&amp;y", "\u00e9", "P-0.0000"]


@st.composite
def _figures(draw):
    labels = draw(st.lists(st.sampled_from(_LABELS), min_size=1, max_size=6,
                           unique=True))
    objects = {label: (Circle(Point(draw(_COORD), draw(_COORD)),
                              draw(_RADIUS)) if draw(st.booleans())
                       else Point(draw(_COORD), draw(_COORD)))
               for label in labels}
    points = [label for label, obj in objects.items()
              if isinstance(obj, Point) and label.isascii()]
    edges = (draw(st.lists(st.tuples(st.sampled_from(points),
                                     st.sampled_from(points)), max_size=4))
             if points else [])
    # the constructor takes ASCII labels only; a caller can still put any
    # label in the dict it holds, and the writer keeps it as given
    config = Configuration({k: v for k, v in objects.items() if k.isascii()},
                           {}, tuple(edges))
    config.objects.update(objects)
    return config


@settings(max_examples=400, derandomize=True, database=None, deadline=None)
@given(_figures())
def test_the_writer_matches_the_per_value_oracle(config):
    assert render_svg(config) == oracle_svg(config)


def test_a_label_is_written_as_given_in_utf8(tmp_path):
    config = simple_config({"A": Point(-1e-9, 0.0)})
    config.objects["-0.0000 \u00e9"] = Point(1.0, 2e-7)
    path = tmp_path / "fig.svg"
    render(config, str(path))
    data = path.read_bytes()
    assert data == oracle_svg(config).encode("utf-8")
    assert '"serif">-0.0000 \u00e9</text>'.encode("utf-8") in data
