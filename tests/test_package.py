"""Package surface: the lazy export map."""

import treeharmonics


def test_every_exported_name_resolves():
    # the export map is resolved only on access, so a stale entry would
    # otherwise fail only in the caller that first asks for it
    namespace = {}
    exec("from treeharmonics import *", namespace)
    assert set(treeharmonics.__all__) <= set(namespace)
