"""The package's public names: each one resolves and is listed once, and the
helpers that only tests and demos called stay out of the library."""

import emdenseries
from emdenseries import ExprState, Series, kernels, series

from conftest import REPO_ROOT

# module-level helpers retired from the library, and the methods that went
# with them
RETIRED = {
    series: ("add_scaled", "multi_product", "monomial", "cauchy_product", "_check_pair",
             "derivative_transform"),
    kernels: ("batch_transform",),
}
RETIRED_METHODS = {
    Series: ("truncate",),
    kernels.Kernel: ("coefficients", "next_index"),
    kernels.SinCosKernel: ("coefficients",),
    ExprState: ("prefix",),
}


def test_every_public_name_resolves_once():
    names = emdenseries.__all__
    assert len(names) == len(set(names))
    for name in names:
        assert getattr(emdenseries, name) is not None, name


def test_retired_helpers_are_gone():
    retired = {name for names in RETIRED.values() for name in names}
    assert retired.isdisjoint(emdenseries.__all__)
    for module, names in RETIRED.items():
        for name in names:
            assert not hasattr(emdenseries, name), name
            assert not hasattr(module, name), f"{module.__name__}.{name}"
    for cls, names in RETIRED_METHODS.items():
        for name in names:
            assert not hasattr(cls, name), f"{cls.__name__}.{name}"


def test_readme_lists_every_public_name():
    text = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
    section = text.split("## Library API", 1)[1].split("\n## ", 1)[0]
    missing = [n for n in emdenseries.__all__ if n != "__version__" and f"`{n}`" not in section]
    assert missing == []
