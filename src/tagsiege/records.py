"""The one on-disk record format of every file the package reads or writes.

Records are compact JSON with sorted keys, so equal values give equal bytes.
A JSONL file holds one object per line; blank lines are skipped. Readers hand
each object to a caller's conversion and report anything malformed (invalid
JSON, a value that is not an object, or a KeyError, TypeError or ValueError
raised by the conversion) as a `ParseError` naming the file and line, which
the CLI turns into exit code 2.
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import Callable, Iterable, Iterator, TypeVar

from .errors import ParseError

T = TypeVar("T")


def dumps(obj) -> str:
    """Compact JSON with sorted keys."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def typed(value, kind: type):
    """`value` if it is a `kind`, else TypeError: for the fields that `int()`
    or `float()` would not check (a null text, a string for a list)."""
    if not isinstance(value, kind):
        raise TypeError(f"expected {kind.__name__}, got {type(value).__name__}")
    return value


def integer(value) -> int:
    """`value` if it is a JSON integer, else TypeError: a float, a string or
    a bool (which `isinstance(value, int)` alone would let through) is not
    silently truncated or cast."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError(f"expected an integer, got {type(value).__name__} {value!r}")
    return value


def number(value) -> float:
    """`value` as a float if it is a finite JSON number, else TypeError: a
    string or a bool (which `float()` would cast) and the NaN or Infinity
    that Python's json reads are not passed on."""
    try:
        finite = (not isinstance(value, bool) and isinstance(value, (int, float))
                  and math.isfinite(value))
    except OverflowError:  # an integer beyond float range
        finite = False
    if not finite:
        raise TypeError(f"expected a finite number, got {type(value).__name__} {value!r}")
    return float(value)


def _decode(text: str, convert: Callable[[dict], T], path: str, line: int) -> T:
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        # a whole file (line 0) reports the line the decoder stopped on
        raise ParseError(f"invalid JSON: {exc.msg}", path, line or exc.lineno) from exc
    if not isinstance(obj, dict):
        raise ParseError(f"expected a JSON object, got {type(obj).__name__}", path, line)
    try:
        return convert(obj)
    except KeyError as exc:
        raise ParseError(f"missing key {exc}", path, line) from exc
    except (TypeError, ValueError) as exc:
        raise ParseError(f"bad record: {exc}", path, line) from exc


def write_jsonl(path: str | Path, records: Iterable[dict]) -> Path:
    """Write one `dumps` line per record, creating the file's directory."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w") as fh:
        for rec in records:
            fh.write(dumps(rec) + "\n")
    return path


def read_jsonl(path: str | Path, convert: Callable[[dict], T]) -> Iterator[tuple[int, T]]:
    """(line number, convert(object)) for every non-blank line."""
    with Path(path).open() as fh:
        for lineno, raw in enumerate(fh, start=1):
            if raw.strip():
                yield lineno, _decode(raw, convert, str(path), lineno)


def read_json(path: str | Path, convert: Callable[[dict], T]) -> T:
    """convert(object) of a one-object JSON file; errors in the object report line 0."""
    return _decode(Path(path).read_text(), convert, str(path), 0)
