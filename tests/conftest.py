from pathlib import Path

import pytest

from enhq import (
    affine_family,
    build_fock_rep,
    build_halfline_rep,
    build_spin_rep,
    canonical_family,
)


@pytest.fixture(scope="session", autouse=True)
def kernel_cache(tmp_path_factory):
    """A fresh cache for the compiled step loop: the suite builds its own kernel."""
    with pytest.MonkeyPatch.context() as m:
        m.setenv("XDG_CACHE_HOME", str(tmp_path_factory.mktemp("cache")))
        yield


@pytest.fixture(scope="session")
def fock200():
    return build_fock_rep(200)


@pytest.fixture(scope="session")
def canonical200(fock200):
    return canonical_family(fock200)


@pytest.fixture(scope="session")
def halfline4000():
    return build_halfline_rep(1e-5, 60.0, 4000)


@pytest.fixture(scope="session")
def affine_beta2(halfline4000):
    return affine_family(halfline4000, 2.0)


@pytest.fixture(scope="session")
def spin_half():
    return build_spin_rep(0.5)


@pytest.fixture(scope="session")
def pool():
    """The 40 starts ``(p0, q0, horizon)`` of perfbench's hydrogen_contrast workload, with its
    classical and enhanced hydrogen."""
    with pytest.MonkeyPatch.context() as m:
        m.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
        import workloads
        items = workloads.HydrogenContrast._pool()
        params = workloads.HydrogenContrast()
        params.setup(None)
    return items, params.classical, params.enhanced
