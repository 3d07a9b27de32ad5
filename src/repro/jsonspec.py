"""One JSON form for the run specs.

Fault plans, burst-buffer tiers and open-loop workloads are frozen
dataclasses that subclass :class:`JsonSpec`, so each loads, checks, saves
and hashes the same way, and a malformed document fails at load with a
:class:`~repro.errors.ConfigError` naming the spec and the field.
"""

from __future__ import annotations

import hashlib
import json
import reprlib
import sys
import typing
from dataclasses import fields

from .errors import ConfigError

__all__ = ["JsonSpec"]


class JsonSpec:
    """Mixin for a frozen dataclass that a run reads from JSON.  Its field
    types may be ``int``, ``float``, ``str``, ``Optional[X]``,
    ``Tuple[X, ...]``, ``Tuple[X, Y]`` and another :class:`JsonSpec`."""

    def to_dict(self) -> dict:
        """Fields in declaration order; a nested spec becomes an object and
        a tuple a list."""
        return {f.name: _plain(getattr(self, f.name)) for f in fields(self)}

    @classmethod
    def from_dict(cls, doc):
        """The spec a JSON document describes; an absent key takes the
        dataclass default.  An unknown key, a value of the wrong type (a
        bool is not a number, a float is not an int), a NaN or infinite
        number, or a value the constructor rejects raises
        :class:`ConfigError`.  A number in a ``float`` field is kept as
        given."""
        name = cls.__name__
        if not isinstance(doc, dict):
            raise _bad(name, "a JSON object", doc)
        unknown = set(doc) - {f.name for f in fields(cls)}
        if unknown:
            raise ConfigError(f"unknown {name} fields: {sorted(unknown)}")
        hints = typing.get_type_hints(cls)
        kwargs = {key: _check(hints[key], value, f"{name}.{key}") for key, value in doc.items()}
        try:
            return cls(**kwargs)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"{name}: {exc}") from exc

    @classmethod
    def load(cls, path: str):
        """The spec in the JSON file at *path*, as :meth:`from_dict`; a file
        that cannot be read or decoded raises :class:`ConfigError`."""
        try:
            with open(path, encoding="utf-8") as fh:
                doc = json.load(fh)
        except (OSError, ValueError) as exc:
            raise ConfigError(f"{path}: not a readable JSON document ({exc})") from exc
        return cls.from_dict(doc)

    def save(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")

    def signature(self) -> str:
        """SHA-256 over compact, sorted JSON: part of the trial-cache key."""
        blob = json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def _plain(value):
    if isinstance(value, JsonSpec):
        return value.to_dict()
    if isinstance(value, tuple):
        return [_plain(v) for v in value]
    return value


_EXPECTED = {int: "an integer", float: "a finite number", str: "a string"}


def _check(hint, value, where: str):
    """*value* as the type *hint*, or a :class:`ConfigError` naming *where*."""
    args = typing.get_args(hint)
    if typing.get_origin(hint) is typing.Union:  # Optional[X]
        return None if value is None else _check(args[0], value, where)
    if typing.get_origin(hint) is tuple:
        if not isinstance(value, (list, tuple)):
            raise _bad(where, "a list", value)
        if args[-1] is Ellipsis:
            args = args[:1] * len(value)
        elif len(args) != len(value):
            raise _bad(where, f"a list of {len(args)}", value)
        return tuple(_check(arg, v, f"{where}[{i}]") for i, (arg, v) in enumerate(zip(args, value)))
    if isinstance(hint, type) and issubclass(hint, JsonSpec):
        if not isinstance(value, dict):
            raise _bad(where, "an object", value)
        return hint.from_dict(value)
    ok = isinstance(value, (int, float) if hint is float else hint) and not isinstance(value, bool)
    # abs() <= max also rejects NaN, and compares an int too large for a float exactly.
    if not ok or (hint is float and not abs(value) <= sys.float_info.max):
        raise _bad(where, _EXPECTED[hint], value)
    return value


def _bad(where: str, what: str, value) -> ConfigError:
    return ConfigError(f"{where}: expected {what}, got {reprlib.repr(value)}")
