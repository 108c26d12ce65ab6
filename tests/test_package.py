import camcurves


def test_every_exported_name_resolves_once():
    names = camcurves.__all__
    assert len(names) == len(set(names))
    missing = [name for name in names if not hasattr(camcurves, name)]
    assert missing == []
