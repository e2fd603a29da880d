"""The package's public surface."""

import insarmap as im


def test_every_exported_name_resolves():
    missing = [name for name in im.__all__ if not hasattr(im, name)]
    assert missing == []
    namespace = {}
    exec("from insarmap import *", namespace)
    assert set(im.__all__) <= set(namespace)
