import roughassim


def test_all_names_resolve_once():
    names = roughassim.__all__
    assert len(names) == len(set(names))
    missing = [name for name in names if not hasattr(roughassim, name)]
    assert missing == []
