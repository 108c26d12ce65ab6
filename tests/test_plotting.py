import math
import xml.etree.ElementTree as ET

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from camcurves.plotting import curve_plot_svg


def test_title_and_label_are_escaped():
    svg = curve_plot_svg([(10.0, 0.5), (100.0, 0.7)], [], title="ACC fit (A&B <x>)", y_label="P&R")
    texts = [el.text for el in ET.fromstring(svg).iter("{http://www.w3.org/2000/svg}text")]
    assert "ACC fit (A&B <x>)" in texts
    assert "P&R" in texts


def test_markup_characters_are_escaped_and_quotes_kept():
    svg = curve_plot_svg([(10.0, 0.5), (100.0, 0.7)], [], title="a<&>b \"q\" 'q'", y_label="<&>")
    assert '>a&lt;&amp;&gt;b "q" \'q\'</text>' in svg
    assert ">&lt;&amp;&gt;</text>" in svg


SVG = "{http://www.w3.org/2000/svg}"

# a scatter as the CLI passes it: integer sizes (as floats) spanning more than one
# value, each with a metric value in [0, 1]
scatters = st.lists(
    st.tuples(st.integers(1, 10**7).map(float), st.floats(0.0, 1.0)), min_size=1, max_size=30
).filter(lambda scatter: len({n for n, _ in scatter}) > 1)


def frame_of(root):
    """The plot frame's left, top, right and bottom."""
    frame = next(r for r in root.iter(f"{SVG}rect") if r.get("fill") == "none")
    left, top = float(frame.get("x")), float(frame.get("y"))
    return left, top, left + float(frame.get("width")), top + float(frame.get("height"))


@settings(max_examples=60, deadline=None)
@given(
    scatters,
    st.lists(st.floats(0.0, 1.0), max_size=40),
    st.text(st.characters(whitelist_categories=("L", "N", "P", "S", "Zs")), max_size=20),
)
def test_every_mark_lies_in_the_frame_and_equal_inputs_give_equal_bytes(scatter, values, title):
    # the curve is evaluated on a log-spaced grid between the smallest and largest
    # sizes, as `curve-plot` does
    sizes = [n for n, _ in scatter]
    grid = np.exp(np.linspace(np.log(min(sizes)), np.log(max(sizes)), len(values)))
    curve = list(zip(grid.tolist(), values))
    svg = curve_plot_svg(scatter, curve, title, "ACC")
    assert curve_plot_svg(list(scatter), list(curve), title, "ACC") == svg
    root = ET.fromstring(svg)
    left, top, right, bottom = frame_of(root)

    def inside(x, y):
        return left <= float(x) <= right and top <= float(y) <= bottom

    circles = list(root.iter(f"{SVG}circle"))
    assert len(circles) == len(scatter)
    assert all(inside(c.get("cx"), c.get("cy")) for c in circles)
    lines = root.iter(f"{SVG}polyline")
    vertices = [point.split(",") for line in lines for point in line.get("points").split()]
    assert len(vertices) == len(curve)
    assert all(inside(x, y) for x, y in vertices)
    ticks = [t for t in root.iter(f"{SVG}line") if float(t.get("y2")) > bottom]
    assert len(ticks) == len(set(sizes))
    assert all(left <= float(t.get("x1")) == float(t.get("x2")) <= right for t in ticks)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.floats(1.0, 1e7), min_size=2, max_size=20).filter(
        lambda sizes: math.log(max(sizes)) > math.log(min(sizes))
    )
)
@example([1.5, 10.7])
def test_a_curve_alone_is_ticked_inside_the_frame(sizes):
    # with no scatter the axis is ticked at the integers nearest inside the
    # curve's ends, which need not be integers
    svg = curve_plot_svg([], [(n, 0.5) for n in sorted(sizes)], "t", "ACC")
    root = ET.fromstring(svg)
    left, _, right, bottom = frame_of(root)
    ticks = [t for t in root.iter(f"{SVG}line") if float(t.get("y2")) > bottom]
    assert all(left <= float(t.get("x1")) == float(t.get("x2")) <= right for t in ticks)
