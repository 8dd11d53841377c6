"""Field readers for input documents: a field that is missing or has the
wrong shape is a :class:`ValidationError` naming its path, such as
``mission.tasks[0].requires``.  Paths are relative to the document checked;
a caller that embeds one document in another adds its own prefix."""

from __future__ import annotations

from typing import Any


class ValidationError(Exception):
    def __init__(self, fieldname: str, reason: str):
        super().__init__(f"{fieldname}: {reason}")
        self.field = fieldname
        self.reason = reason


def _require(doc: dict, key: str, location: str) -> Any:
    if key not in doc:
        raise ValidationError(f"{location}.{key}", "missing required field")
    return doc[key]


def _read_int(value: Any, fieldname: str) -> int:
    try:
        return int(value)
    except (TypeError, ValueError):
        raise ValidationError(fieldname, f"expected an integer, got {value!r}") from None


def _read_float(value: Any, fieldname: str) -> float:
    try:
        return float(value)
    except (TypeError, ValueError):
        raise ValidationError(fieldname, f"expected a number, got {value!r}") from None


def _mapping(value: Any, fieldname: str) -> dict:
    """A document section; absent or null reads as empty."""
    if value is None:
        return {}
    if not isinstance(value, dict):
        raise ValidationError(fieldname, "must be a mapping")
    return value


def _list(value: Any, fieldname: str) -> list:
    """A list-valued field; absent or null reads as empty."""
    if value is None:
        return []
    if not isinstance(value, list):
        raise ValidationError(fieldname, "must be a list")
    return value
