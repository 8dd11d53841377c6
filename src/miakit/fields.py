"""Input errors and readers for input files and fields.  Every exception
miakit raises for bad input is a :class:`MiakitError`; a field that is
missing or has the wrong shape is a :class:`ValidationError` naming its
path, such as ``mission.tasks[0].requires``.  Paths are relative to the
document or spec that reads the field; a caller that embeds one in another
adds its own prefix with :func:`within`."""

from __future__ import annotations

from contextlib import contextmanager
from typing import Any, Iterator


class MiakitError(ValueError):
    """Bad input: a document, file or argument miakit cannot use."""


class ValidationError(MiakitError):
    def __init__(self, fieldname: str, reason: str):
        super().__init__(f"{fieldname}: {reason}")
        self.field = fieldname
        self.reason = reason

    def under(self, prefix: str) -> "ValidationError":
        """This error, its field moved under ``prefix`` (``prefix.field``)."""
        self.field = f"{prefix}.{self.field}"
        self.args = (f"{self.field}: {self.reason}",)
        return self


@contextmanager
def within(prefix: str) -> Iterator[None]:
    """A :class:`ValidationError` raised inside names its field under ``prefix``."""
    try:
        yield
    except ValidationError as exc:
        raise exc.under(prefix)


def read_text(path: str) -> str:
    """The text of the UTF-8 file at ``path``; other bytes are a
    :class:`ValidationError` naming the path."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError:
        raise ValidationError(path, "not UTF-8 text") from None


def _require(doc: dict, key: str, location: str = "") -> Any:
    if key not in doc:
        raise ValidationError(f"{location}.{key}" if location else key, "missing required field")
    return doc[key]


def _read_int(value: Any, fieldname: str) -> int:
    try:
        return int(value)
    except (TypeError, ValueError, OverflowError):
        raise ValidationError(fieldname, f"expected an integer, got {value!r}") from None


def _read_float(value: Any, fieldname: str) -> float:
    try:
        return float(value)
    except (TypeError, ValueError, OverflowError):
        raise ValidationError(fieldname, f"expected a number, got {value!r}") from None


def _read_key(value: Any, fieldname: str) -> str:
    """An id, or a name another entry refers to: a scalar, never null, and
    never a boolean, which YAML reads from ``on``, ``yes`` or ``true`` alike."""
    if value is None or isinstance(value, (list, dict, set)):
        raise ValidationError(fieldname, f"must be a scalar, got {value!r}")
    if isinstance(value, bool):
        raise ValidationError(fieldname, f"YAML reads this id as {value!r}; quote it")
    return str(value)


def _read_keys(value: Any, fieldname: str) -> tuple:
    """A list of keys (see :func:`_read_key`); absent or null reads as empty."""
    return tuple(_read_key(v, f"{fieldname}[{i}]") for i, v in enumerate(_list(value, fieldname)))


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
