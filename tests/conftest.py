import sys
from collections import Counter

import pytest

# ``kch.homfly`` and friends come from ``sys.modules``: the package exports the
# function ``homfly`` under the module's name.


@pytest.fixture
def skein_counters(monkeypatch):
    """The library's skein counters, zeroed for one test."""
    counters = Counter()
    monkeypatch.setattr(sys.modules["kch.homfly"], "SKEIN_COUNTERS", counters)
    return counters


@pytest.fixture
def packed_counters(monkeypatch):
    """The packed kernel's counters, zeroed for one test."""
    import kch._packed

    counters = Counter()
    monkeypatch.setattr(kch._packed, "PACKED_COUNTERS", counters)
    return counters


@pytest.fixture
def groebner_counters(monkeypatch):
    """The Groebner kernel's counters, zeroed for one test."""
    import kch.groebner

    counters = Counter()
    monkeypatch.setattr(kch.groebner, "GROEBNER_COUNTERS", counters)
    return counters


@pytest.fixture
def skein_edits(monkeypatch):
    """Every diagram the skein recursion smooths and every smoothing it
    builds from here on, in order, as diagrams of the raw parts (unchecked).

    The recursion smooths through ``kch.pd._smoothed``, which ``kch.homfly``
    imports; the recorder replaces it there.  A diagram smoothed along a
    switch chain carries the chain's switches so far, so the recorded parts
    include every switched intermediate that the recursion reads.
    """
    module, pd = sys.modules["kch.homfly"], sys.modules["kch.pd"]
    assert module._smoothed is pd._smoothed
    edits = []

    def recorded(crossings, signs, circles, index):
        parts = pd._smoothed(crossings, signs, circles, index)
        edits.append(pd._make(tuple(crossings), tuple(signs), circles))
        edits.append(pd._make(*parts))
        return parts

    monkeypatch.setattr(module, "_smoothed", recorded)
    return edits
