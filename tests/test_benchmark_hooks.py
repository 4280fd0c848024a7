"""The benchmark's layer hooks find the functions they wrap.

`perfbench/run.py`'s `instrument()` wraps package functions by name through
`Tracer.patch`, which skips a missing attribute without a word: a renamed or
deleted function would then read 0 in every per-layer metric.  This test
lists the names it asks for and the ones the package lacks.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import run  # noqa: E402
from tracer import Tracer  # noqa: E402

# route markers the benchmark still wraps although the package dropped
# their functions (ROADMAP item 2 removes them from perfbench/run.py)
DEAD_ROUTE_MARKERS = {"resultant._macaulay_ratio", "resultant._resultant_by_substitution"}


def test_only_the_dead_route_markers_are_missing(monkeypatch):
    pkg = run.load_package()
    asked = []
    patch = Tracer.patch

    def observe(self, owner, attr, make_wrapper):
        asked.append((owner, attr))
        return patch(self, owner, attr, make_wrapper)

    monkeypatch.setattr(Tracer, "patch", observe)
    tracer = Tracer()
    try:
        run.instrument(tracer, pkg)
    finally:
        tracer.restore()
    names = {f"{owner.__name__.rsplit('.', 1)[-1]}.{attr}": owner for owner, attr in asked}
    assert len(names) == len(asked)
    assert "spectra.nqz_spectral_radius" in names
    assert "SymmetricHypermatrix.contract" in names
    missing = {name for name, owner in names.items() if name.rsplit(".", 1)[1] not in vars(owner)}
    assert missing == DEAD_ROUTE_MARKERS
