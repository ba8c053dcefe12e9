import pytest

from logladder import _kernels_py, build_ladder


@pytest.fixture(scope="session")
def ladder10_40():
    return build_ladder(10.0, 40)


@pytest.fixture(scope="session")
def ladder10_20():
    return build_ladder(10.0, 20)


@pytest.fixture(scope="session")
def ladder3_40():
    return build_ladder(3.0, 40)


@pytest.fixture(params=["compiled", "python"])
def on_backend(request, monkeypatch):
    """Run the library on one kernel twin, whichever LOGLADDER_BACKEND chose.

    Every module that calls kernels reads its module-level ``kernels`` at
    call time, so patching those names switches the whole value layer.
    """
    if request.param == "compiled":
        twin = pytest.importorskip("logladder._kernels",
                                   reason="compiled kernels not built")
    else:
        twin = _kernels_py
    for module in ("arith", "engine", "euler", "ladder", "tables"):
        monkeypatch.setattr(f"logladder.{module}.kernels", twin)
    return request.param
