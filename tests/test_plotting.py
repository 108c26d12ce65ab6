import xml.etree.ElementTree as ET

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
