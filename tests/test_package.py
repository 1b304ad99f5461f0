"""The package's public names are exactly its modules' public names."""

from __future__ import annotations

import importlib
import pkgutil

import mwedetect


def _public_modules():
    """Each public module of the package that declares ``__all__``."""
    for info in pkgutil.iter_modules(mwedetect.__path__):
        module = importlib.import_module(f"mwedetect.{info.name}")
        if not info.name.startswith("_") and hasattr(module, "__all__"):
            yield module


def test_all_has_no_duplicates():
    assert len(mwedetect.__all__) == len(set(mwedetect.__all__))


def test_every_module_name_is_the_same_object_on_the_package():
    modules = list(_public_modules())
    assert {module.__name__ for module in modules} >= {
        "mwedetect.corpus",
        "mwedetect.definitions",
        "mwedetect.embeddings",
        "mwedetect.errors",
        "mwedetect.pairs",
        "mwedetect.pipeline",
        "mwedetect.scoring",
    }
    for module in modules:
        for name in module.__all__:
            assert name in mwedetect.__all__, (module.__name__, name)
            assert getattr(mwedetect, name) is getattr(module, name), (module.__name__, name)


def test_package_adds_only_its_version():
    names = {name for module in _public_modules() for name in module.__all__}
    assert set(mwedetect.__all__) == names | {"__version__"}


def test_names_documented_as_library_api_import_from_the_package():
    from mwedetect import (  # noqa: F401
        DefinitionRows,
        definition_sums,
        lexeme_ids,
        resolve_definitions,
        row_cosines,
    )
