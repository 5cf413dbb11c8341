import mpekit


def test_every_public_name_resolves_once():
    assert len(set(mpekit.__all__)) == len(mpekit.__all__)
    missing = [name for name in mpekit.__all__ if not hasattr(mpekit, name)]
    assert missing == []
