"""The package's public surface: what ``from netsize import *`` exports."""

import netsize


def test_every_exported_name_is_listed_once_and_resolves():
    assert len(netsize.__all__) == len(set(netsize.__all__))
    assert [name for name in netsize.__all__ if not hasattr(netsize, name)] == []
