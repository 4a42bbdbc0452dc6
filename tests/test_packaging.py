"""Packaging metadata: ``pyproject.toml`` names the package setuptools
builds, at the version the package reports, with nothing new to
install."""

from __future__ import annotations

import tomllib
from pathlib import Path

import repro

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def test_pyproject_names_the_package_at_its_version():
    metadata = tomllib.loads(PYPROJECT.read_text())
    project = metadata["project"]
    assert project["name"] == "repro"
    assert project["version"] == repro.__version__
    assert project["requires-python"] == ">=3.11"
    assert project["dependencies"] == ["numpy"]
    assert project["optional-dependencies"] == {"native": ["cffi"]}
    assert metadata["tool"]["setuptools"]["packages"]["find"] == {
        "where": ["src"]
    }
