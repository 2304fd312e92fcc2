from __future__ import annotations

import os
from pathlib import Path

import pytest

from divsearch.indexing import EntityRecord, IndexBundle, IndexConfig, build_index, parse_corpus

DATA_DIR = Path(__file__).parent / "data"
GOLDEN_INDEX_DIR = DATA_DIR / "toy_index"
SRC_DIR = Path(__file__).resolve().parent.parent / "src"


@pytest.fixture(scope="session", autouse=True)
def children_import_src():
    """`python -m divsearch` child processes import the package under test.

    The `pythonpath` setting in pyproject.toml reaches only this process.
    """
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("PYTHONPATH", str(SRC_DIR), prepend=os.pathsep)
        yield


@pytest.fixture(scope="session")
def toy_xml() -> bytes:
    return (DATA_DIR / "toy.xml").read_bytes()


@pytest.fixture(scope="session")
def toy_config() -> IndexConfig:
    return IndexConfig(entity_labels=frozenset({"paper"}))


@pytest.fixture(scope="session")
def toy_corpus(toy_xml: bytes, toy_config: IndexConfig) -> list[EntityRecord]:
    return parse_corpus(toy_xml, toy_config)


@pytest.fixture(scope="session")
def toy_index(toy_corpus: list[EntityRecord], toy_config: IndexConfig) -> IndexBundle:
    return build_index(toy_corpus, toy_config)


@pytest.fixture()
def toy_xml_path() -> Path:
    return DATA_DIR / "toy.xml"
