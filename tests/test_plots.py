import xml.etree.ElementTree as ET

import pytest

from prefetchlab.plots import svg_line_chart


@pytest.mark.parametrize("series", [
    pytest.param({"flat": [(1.0, 0.0), (2.0, 0.0), (3.0, 0.0)]}, id="constant-zero"),
    pytest.param({"point": [(4.0, 0.25)]}, id="one-point"),
    pytest.param({"none": []}, id="empty-series"),
    pytest.param({}, id="no-series"),
])
def test_degenerate_line_chart_is_finite_and_reproducible(tmp_path, series):
    paths = [tmp_path / "a.svg", tmp_path / "b.svg"]
    for path in paths:
        svg_line_chart(series, path, "title", "x", "y")
    raw = paths[0].read_bytes()
    assert raw == paths[1].read_bytes()
    assert b"nan" not in raw.lower() and b"inf" not in raw.lower()
    ET.fromstring(raw)  # well-formed
