"""The package's export list names only what the package defines: a
class or function deleted from a module must leave ``__all__`` too."""

from collections import Counter

import delsub


def test_every_export_resolves_once():
    repeated = [name for name, count in Counter(delsub.__all__).items() if count > 1]
    assert repeated == []
    missing = [name for name in delsub.__all__ if not hasattr(delsub, name)]
    assert missing == []
