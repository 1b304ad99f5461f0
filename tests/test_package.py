"""The package's public names are exactly its modules' public names, and the
README's library examples run."""

from __future__ import annotations

import importlib
import pkgutil
import re
import shutil

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


def test_readme_python_examples_run(data_dir, tmp_path, monkeypatch):
    readme = (data_dir.parent.parent / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"```python\n(.*?)```", readme, re.DOTALL)
    assert len(blocks) == 3
    shutil.copytree(data_dir, tmp_path, dirs_exist_ok=True)
    # The README's placeholder names for the bundled inputs.
    for name, source in (
        ("vectors.txt", "toy_embeddings.txt"),
        ("definitions.tsv", "toy_definitions.tsv"),
        ("corpus.txt", "toy_corpus.txt"),
    ):
        shutil.copy(tmp_path / source, tmp_path / name)
    monkeypatch.chdir(tmp_path)
    for block in blocks:
        exec(compile(block, "README.md", "exec"), {})
