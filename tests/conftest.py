import pytest

import wta.dynamics


@pytest.fixture
def paired_builds(monkeypatch) -> list:
    """The entry count of each closure wta.dynamics._paired_kernel builds
    while the test runs, in order."""
    built = []
    paired = wta.dynamics._paired_kernel

    def probe(src, w):
        built.append(src.size)
        return paired(src, w)

    monkeypatch.setattr(wta.dynamics, "_paired_kernel", probe)
    return built
