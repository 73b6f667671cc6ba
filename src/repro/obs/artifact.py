"""One contract for every artifact file: atomic write, checked read, shape check.

Every file the program writes goes through :func:`write_text`: a uniquely
named temp file beside the target, moved into place with
:func:`os.replace`, so no crash or refusal leaves a torn file.
:func:`read_json` turns an unreadable, non-JSON or invalid file into a
:class:`~repro.errors.ConfigurationError`.  A shape spec is a ``dict``
of required keys (nested freely) or a leaf below; :func:`check` never
raises.  A ``bool`` is never a number, and every number must be finite.
"""

from __future__ import annotations

import json
import math
import os
import reprlib
import secrets
from pathlib import Path
from typing import Any, Callable, Mapping, Union

from repro.errors import ConfigurationError

__all__ = [
    "ANY", "BOOL", "COUNT", "FINITE", "NAME", "NON_NEGATIVE", "OBJECT", "STR",
    "check", "list_of", "map_of", "number", "one_of", "read_json", "refuse",
    "write_json", "write_text",
]

#: A leaf appends the problems of ``value`` (named ``where``) to a list.
Leaf = Callable[[Any, str, list], None]
Spec = Union[Mapping[str, "Spec"], Leaf]
Validator = Callable[[Any], list]

#: JSON styles, all with sorted keys: reports; traces and cache entries;
#: line-oriented artifacts (the document is then a sequence of rows).
_STYLES: dict[str, Callable[[Any], str]] = {
    "pretty": lambda doc: json.dumps(doc, indent=2, sort_keys=True) + "\n",
    "compact": lambda doc: json.dumps(doc, sort_keys=True),
    "jsonl": lambda rows: "".join(json.dumps(r, sort_keys=True) + "\n" for r in rows),
}


def write_text(path: str | os.PathLike[str], text: str) -> Path:
    """Atomically replace ``path`` with ``text`` (UTF-8), creating parents.

    On any failure the temp file is removed and the target left as it was.
    """
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    tmp = target.with_name(f"{target.name}.{secrets.token_hex(6)}.tmp")
    # "x": never another writer's file; permissions as for any new file
    fh = open(tmp, "x", encoding="utf-8")
    try:
        with fh:
            fh.write(text)
        os.replace(tmp, target)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    return target


def write_json(
    path: str | os.PathLike[str], doc: Any, style: str = "pretty", *,
    validate: Validator | None = None, what: str = "document",
) -> Path:
    """Atomically write ``doc`` as ``pretty``, ``compact`` or ``jsonl`` JSON.

    A document ``validate`` finds problems in is refused with
    :class:`ConfigurationError`: an invalid artifact is worse than none.
    """
    if validate is not None:
        refuse(validate(doc), f"refusing to write invalid {what}")
    return write_text(path, _STYLES[style](doc))


def read_json(
    path: str | os.PathLike[str], *, lines: bool = False,
    validate: Validator | None = None, what: str = "document",
) -> Any:
    """Parse a JSON file (with ``lines``, each non-blank line), checked.

    Raises :class:`ConfigurationError` on an unreadable file, invalid
    JSON, or problems ``validate`` reports.
    """
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, ValueError) as exc:
        raise ConfigurationError(f"cannot read {what} {path}: {exc}") from exc
    if not lines:
        doc = _loads(text, str(path))
    else:
        numbered = enumerate(text.splitlines(), 1)
        doc = [_loads(ln, f"{path} line {n}") for n, ln in numbered if ln.strip()]
    if validate is not None:
        refuse(validate(doc), f"invalid {what} {path}")
    return doc


def _loads(text: str, where: str) -> Any:
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise ConfigurationError(f"{where} is not valid JSON: {exc}") from exc


def refuse(problems: list[str], message: str) -> None:
    """Raise :class:`ConfigurationError` naming the first few problems, if any."""
    if problems:
        raise ConfigurationError(f"{message}: {'; '.join(problems[:5])}")


def check(value: Any, spec: Spec, where: str = "") -> list[str]:
    """The problems of ``value`` against ``spec`` (empty: it conforms).

    ``where`` names ``value`` in messages (default ``document``); keys
    extend it as ``a.b``, list items as ``a[0]``, map entries as ``a['k']``.
    """
    problems: list[str] = []
    _walk(value, spec, where, problems)
    return problems


def _walk(value: Any, spec: Spec, where: str, problems: list[str]) -> None:
    if not isinstance(spec, Mapping):
        spec(value, where, problems)
    elif not isinstance(value, dict):
        problems.append(f"{where or 'document'} must be a JSON object")
    else:
        for key, sub in spec.items():
            if key in value:
                _walk(value[key], sub, f"{where}.{key}" if where else key, problems)
            else:
                problems.append(f"{where + ': ' if where else ''}missing key {key!r}")


def _leaf(phrase: str, ok: Callable[[Any], Any]) -> Leaf:
    def leaf(value: Any, where: str, problems: list[str]) -> None:
        if not ok(value):
            problems.append(f"{where or 'document'} must be {phrase}")

    leaf.__doc__ = f"Accept {phrase}."
    return leaf


def number(
    minimum: float | None = None, *, integer: bool = False, nullable: bool = False
) -> Leaf:
    """A finite number (an ``int`` if ``integer``), at least ``minimum``.

    ``nullable`` also accepts ``None``.
    """
    kinds = int if integer else (int, float)
    phrase = "an integer" if integer else "a finite number"
    if minimum is not None:
        phrase += f" >= {minimum!r}"

    def ok(value: Any) -> bool:
        if value is None or isinstance(value, bool) or not isinstance(value, kinds):
            return value is None and nullable
        finite = not isinstance(value, float) or math.isfinite(value)
        return finite and (minimum is None or value >= minimum)

    return _leaf(phrase + (" or null" if nullable else ""), ok)


def one_of(*choices: Any) -> Leaf:
    """Exactly one of ``choices``, type included (``True`` is not ``1``)."""

    def leaf(value: Any, where: str, problems: list[str]) -> None:
        if not any(type(value) is type(c) and value == c for c in choices):
            problems.append(
                f"unknown {where or 'document'} {reprlib.repr(value)} "
                f"(expected {' or '.join(map(repr, choices))})"
            )

    return leaf


def _each(kind: type, phrase: str, item: Spec, nonempty: bool) -> Leaf:
    def leaf(value: Any, where: str, problems: list[str]) -> None:
        if not isinstance(value, kind):
            problems.append(f"{where or 'document'} must be {phrase}")
            return
        if nonempty and not value:
            problems.append(f"{where or 'document'} is empty")
        for key, entry in value.items() if kind is dict else enumerate(value):
            _walk(entry, item, f"{where}[{key!r}]", problems)

    return leaf


def list_of(item: Spec, *, nonempty: bool = False) -> Leaf:
    """A list whose every item conforms to ``item``."""
    return _each(list, "a list", item, nonempty)


def map_of(item: Spec, *, nonempty: bool = False) -> Leaf:
    """A JSON object with any keys, whose every value conforms to ``item``."""
    return _each(dict, "a JSON object", item, nonempty)


ANY = _leaf("anything", lambda value: True)
STR = _leaf("a string", lambda value: isinstance(value, str))
NAME = _leaf("a non-empty string", lambda value: isinstance(value, str) and value)
BOOL = _leaf("a boolean", lambda value: isinstance(value, bool))
OBJECT = _leaf("a JSON object", lambda value: isinstance(value, dict))
COUNT = number(0, integer=True)
FINITE = number()
NON_NEGATIVE = number(0)
