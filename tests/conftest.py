import sys

import pytest


@pytest.fixture
def skein_edits(monkeypatch):
    """Every diagram the skein recursion builds from here on, in order.

    ``kch.homfly`` looks up ``switch_crossing`` and ``smooth_crossing`` in its
    own namespace; the package exports the function ``homfly`` under the
    module's name, so the module comes from ``sys.modules``.
    """
    module = sys.modules["kch.homfly"]
    edits = []
    for name in ("switch_crossing", "smooth_crossing"):
        def recorded(diagram, index, original=getattr(module, name)):
            edited = original(diagram, index)
            edits.append(edited)
            return edited

        monkeypatch.setattr(module, name, recorded)
    return edits
