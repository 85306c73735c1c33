"""Readers for the JSON and JSON Lines files the engine reads.

Each reader takes the error class to raise, and the message starts with the
file's path (and, in a JSON Lines file, the line), so a bad file names
itself wherever it is read.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Callable

_PARSE_ERRORS = (ValueError, KeyError, TypeError, AttributeError)


def _reason(exc: Exception) -> str:
    return f"missing key {exc}" if isinstance(exc, KeyError) else str(exc)


def read_text(path: str | Path, error: type[Exception]) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except FileNotFoundError:
        raise error(f"{path}: missing") from None
    except (OSError, ValueError) as exc:  # unreadable, or not UTF-8
        raise error(f"{path}: {exc}") from None


def read_json(path: str | Path, parse: Callable[[Any], Any], error: type[Exception]) -> Any:
    """``parse`` of the file's JSON value; a failure names the file."""
    text = read_text(path, error)
    try:
        return parse(json.loads(text))
    except _PARSE_ERRORS as exc:
        raise error(f"{path}: {_reason(exc)}") from None


def read_lines(path: str | Path, parse: Callable[[Any], Any], error: type[Exception]) -> list:
    """``parse`` of each non-blank JSON line; a line that fails names the file and line."""
    out = []
    for number, line in enumerate(read_text(path, error).splitlines(), start=1):
        if line.strip():
            try:
                out.append(parse(json.loads(line)))
            except _PARSE_ERRORS as exc:
                raise error(f"{path}: line {number}: {_reason(exc)}") from None
    return out
