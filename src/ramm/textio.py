"""The JSON-lines format, and strict readers of text inputs, which may be
harvested files: a malformed one raises a named error that names it."""

import json
import typing
from pathlib import Path

from .errors import FormatError


def read_text(path, error=FormatError) -> str:
    """The text of `path`, decoded strictly as UTF-8; other bytes raise `error`."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise error(f"{path}: UnicodeDecodeError: {exc}") from None


def read_lines(path) -> list[str]:
    """The lines of `path` (see read_text), the entries of a vocabulary: a
    line that repeats an earlier one raises FormatError naming file and lines."""
    first: dict[str, int] = {}
    for number, line in enumerate(lines := read_text(path).splitlines(), 1):
        if first.setdefault(line, number) != number:
            raise FormatError(f"{path} line {number}: {line!r} repeats line {first[line]}")
    return lines


def read_jsonl(path, cls=None, check=None) -> list:
    """The records of `path`, one per non-blank line: a JSON object, or `cls(**object)`
    with each field of exactly its annotated type (`true` is no int), passed to
    `check` if given. The first bad line raises FormatError naming file and line."""
    types = typing.get_type_hints(cls) if cls else {}
    records = []
    for number, line in enumerate(read_text(path).splitlines(), 1):
        if not line.strip():
            continue
        try:
            obj = json.loads(line)
            if type(obj) is not dict:
                raise TypeError(f"a JSON {type(obj).__name__}, not an object")
            for name, value in obj.items():
                if name in types and type(value) is not types[name]:
                    raise TypeError(f"{name} is {value!r}, not {types[name].__name__}")
            records.append(cls(**obj) if cls else obj)
            if check:
                check(records[-1])
        except (ValueError, KeyError, TypeError, AttributeError, RecursionError) as exc:
            raise FormatError(f"{path} line {number}: {type(exc).__name__}: {exc}") from None
    return records


def write_jsonl(path, records) -> None:
    """Each record, a dict or a dataclass, as one JSON line with sorted keys."""
    Path(path).write_text("".join(json.dumps(getattr(r, "__dict__", r), sort_keys=True) + "\n"
                                  for r in records), encoding="utf-8")
