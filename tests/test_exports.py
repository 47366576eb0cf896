from __future__ import annotations

import inspect

import pytest

import fanodescent
from fanodescent import coeffs, descent, exact, theorems

MODULES = (exact, coeffs, descent, theorems)


def test_package_exports_every_module_list_once():
    expected = [name for module in MODULES for name in module.__all__] + ["__version__"]
    assert fanodescent.__all__ == expected
    assert len(set(fanodescent.__all__)) == len(fanodescent.__all__)
    for module in MODULES:
        for name in module.__all__:
            assert getattr(fanodescent, name) is getattr(module, name), name
    assert fanodescent.__version__ == "0.1.0"
    # Two of the names that the package once left out: a gate conclusion and a chain ending.
    assert fanodescent.N_LOWER_GE_M == "N_lower_ge_m"
    assert fanodescent.DIMENSION_ZERO == "dimension_zero"


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_module_lists_hold_every_public_name_defined_there(module):
    defined = [
        name
        for name, value in vars(module).items()
        if not name.startswith("_")
        and (
            (inspect.isclass(value) or inspect.isfunction(value))
            and value.__module__ == module.__name__
            or type(value) in (str, int, tuple)
        )
    ]
    assert defined
    assert sorted(set(defined) - set(module.__all__)) == []
