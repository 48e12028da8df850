"""Bundled example networks, shipped as package data under ``cases/``."""

from __future__ import annotations

from importlib import resources
from pathlib import Path

from .netmodel import InputError, Network, read_case

_EXTENSIONS = (".json", ".m")


def _case_dir():
    return resources.files(__package__) / "cases"


def case_names() -> list[str]:
    """Bundled case file names (with extension), sorted."""
    return sorted(
        entry.name for entry in _case_dir().iterdir()
        if entry.name.endswith(_EXTENSIONS)
    )


def case_path(name: str) -> Path:
    """Filesystem path of a bundled case; the extension may be omitted."""
    candidates = [name] if "." in name else [name + ext for ext in _EXTENSIONS]
    for candidate in candidates:
        entry = _case_dir() / candidate
        if entry.is_file():
            return Path(str(entry))
    raise InputError(f"no bundled case named '{name}'; have {case_names()}")


def load_case(name: str) -> Network:
    """Parse a bundled case by file name (see :func:`netmodel.read_case`)."""
    return read_case(case_path(name))
