import sys
from collections import Counter

import pytest


class SkeinEdits(list):
    """Edited diagrams in order, with ``counts`` per edit name."""

    def __init__(self):
        super().__init__()
        self.counts = Counter()

    def clear(self):
        super().clear()
        self.counts.clear()


@pytest.fixture
def skein_edits(monkeypatch):
    """Every diagram the skein recursion builds from here on, in order;
    ``counts`` tallies the ``switch_crossing`` and ``smooth_crossing`` calls.

    ``kch.homfly`` looks up ``switch_crossing`` and ``smooth_crossing`` in its
    own namespace; the package exports the function ``homfly`` under the
    module's name, so the module comes from ``sys.modules``.
    """
    module = sys.modules["kch.homfly"]
    edits = SkeinEdits()
    for name in ("switch_crossing", "smooth_crossing"):
        def recorded(diagram, index, original=getattr(module, name), name=name):
            edited = original(diagram, index)
            edits.append(edited)
            edits.counts[name] += 1
            return edited

        monkeypatch.setattr(module, name, recorded)
    return edits
