"""Checked key access for the JSON artifacts read back from disk.

A schema, model or matrix file that lacks a key, or holds a value of the
wrong JSON type under it, is a data error naming that key rather than a
``KeyError`` or a value silently iterated as the wrong type.
"""

from __future__ import annotations

from typing import Any

# the Python types a JSON value may decode to, and how to name them
_KINDS = {
    dict: (dict, "an object"),
    list: (list, "an array"),
    str: (str, "a string"),
    int: (int, "an integer"),
    float: ((int, float), "a number"),
}


def is_number(value: Any) -> bool:
    """Whether ``value`` is a decoded JSON number (an int or a float, not a bool)."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def json_field(data: Any, key: str, kind: type, artifact: str) -> Any:
    """``data[key]``, which must be a JSON value of ``kind`` (dict, list,
    str, int or float; a float field also takes an integer)."""
    if not isinstance(data, dict) or key not in data:
        raise ValueError(f"{artifact}: missing key {key!r}")
    value = data[key]
    accepted, name = _KINDS[kind]
    if not isinstance(value, accepted) or isinstance(value, bool):
        raise ValueError(f"{artifact}: {key!r} is not {name}")
    return value
