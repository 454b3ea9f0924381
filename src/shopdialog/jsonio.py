"""JSON and JSON Lines file I/O for every pipeline stage.

Files are UTF-8.  A read that cannot open, decode or parse its input raises
MalformedFile naming the path, and for JSON Lines the 1-based line number.
JSON Lines are read one line at a time, each decoded on its own with JSON whitespace
allowed around it.  A config file whose contents do not fit its schema raises
ValidationError naming the path; `check_fields` is the one check of a config object's field names
and types, which it words through `JSON_TYPES`.
A write replaces its target only once it is done, and one that cannot create or replace it
raises ShopDialogError naming the path.
"""

from __future__ import annotations

import contextlib
import json
import os
from typing import Callable, Iterable, Iterator, TextIO, TypeVar

from .errors import MalformedFile, ShopDialogError, ValidationError

T = TypeVar("T")
# One encoder and one decoder for every JSON Lines record, built once, not per call as json.dumps
# and json.loads do.  Records are trees (no cycle check), written with no whitespace between tokens.
encode_line = json.JSONEncoder(ensure_ascii=False, check_circular=False, separators=(",", ":")).encode
_decode_line = json.JSONDecoder().raw_decode


def read_json(path) -> object:
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise MalformedFile(f"cannot read {path}: {exc}") from exc
    except ValueError as exc:  # JSONDecodeError or UnicodeDecodeError
        raise MalformedFile(f"cannot parse {path}: {exc}") from exc


def read_json_with(path, build: Callable[[object], T]) -> T:
    """Build a config from a JSON file; a schema violation names the path.  The KeyError, TypeError
    and ValueError catch is a safety net for a fault no check words, such as a template's stray "{"."""
    raw = read_json(path)
    try:
        return build(raw)
    except KeyError as exc:
        raise ValidationError(f"{path}: missing field {exc}") from exc
    except (TypeError, ValueError, ValidationError) as exc:
        raise ValidationError(f"{path}: {exc}") from exc


# The name of each JSON type, keyed by the Python type a JSON value of it decodes to.
JSON_TYPES = {str: "a string", int: "an integer", float: "a number", bool: "true or false",
              list: "a list", dict: "an object"}


def check_fields(obj, where: str, fields: dict[str, type], required: tuple[str, ...] | None = None) -> None:
    """Raise ValidationError unless `obj` is an object whose fields are among `fields`, include every
    one of `required` (by default all of `fields`), and each hold the JSON type `fields` maps it to:
    a bool is neither an integer nor a number, and a number may be an integer."""
    if not isinstance(obj, dict):
        raise ValidationError(f"{where} must be {JSON_TYPES[dict]}")
    extra = obj.keys() - fields
    if extra:
        raise ValidationError(f"{where}: unknown fields {sorted(extra)}")
    missing = (fields.keys() if required is None else set(required)) - obj.keys()
    if missing:
        raise ValidationError(f"{where}: missing fields {sorted(missing)}")
    for field, value in obj.items():
        kind = fields[field]
        if type(value) is not kind and not (kind is float and type(value) is int):
            raise ValidationError(f"{where}: {field} must be {JSON_TYPES[kind]}, got {value!r}")


def string_list(value, where: str) -> list[str]:
    """`value` if it is a list of strings; a bare string would iterate as characters."""
    if not isinstance(value, list) or not all(isinstance(v, str) for v in value):
        raise ValidationError(f"{where} must be a list of strings")
    return value


@contextlib.contextmanager
def replacing(path) -> Iterator[TextIO]:
    """A text file "<path>.tmp" that is renamed over `path` when the block ends, or removed if it
    raises. An OSError in opening, closing or renaming it (not in the block) names `path`; a
    "<path>.tmp" that cannot be opened is left as it was."""
    tmp = f"{path}.tmp"
    opened = in_block = False
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            opened = in_block = True
            yield fh
            in_block = False
        os.replace(tmp, path)
        opened = False
    except OSError as exc:
        if in_block:
            raise
        raise ShopDialogError(f"cannot write {path}: {exc.strerror}") from exc
    finally:
        if opened:  # the block, the close or the rename raised
            os.remove(tmp)


def write_json(path, payload, sort_keys: bool = False) -> None:
    with replacing(path) as fh:
        fh.write(json.dumps(payload, indent=2, ensure_ascii=False, sort_keys=sort_keys) + "\n")


def count_records(path) -> int:
    """How many records `read_jsonl` reads from `path` if none is malformed."""
    try:
        with open(path, encoding="utf-8") as fh:
            return sum(1 for line in fh if not line.isspace())
    except (OSError, UnicodeDecodeError) as exc:
        raise MalformedFile(f"cannot read {path}: {exc}") from exc


def read_jsonl(path) -> Iterator[tuple[int, dict]]:
    """Yield (line_no, record) for every non-blank line; each record must be an object."""
    try:
        with open(path, encoding="utf-8") as fh:
            for line_no, line in enumerate(fh, 1):
                if line.isspace():  # blank by str.isspace(), as count_records also counts
                    continue
                text = line.strip(" \t\n\r")  # the whitespace json.loads skips
                try:
                    record, end = _decode_line(text)
                except json.JSONDecodeError:
                    end = -1
                if end != len(text):
                    try:  # fails as a whole-line parse does, with its exact message
                        record = json.loads(line)
                    except json.JSONDecodeError as exc:
                        raise MalformedFile(f"{path}:{line_no}: {exc}") from exc
                if not isinstance(record, dict):
                    raise MalformedFile(f"{path}:{line_no}: not a JSON object")
                yield line_no, record
    except (OSError, UnicodeDecodeError) as exc:
        raise MalformedFile(f"cannot read {path}: {exc}") from exc


def write_jsonl(path, records: Iterable[dict]) -> int:
    """Write each record as one line in place of `path`; returns the number written."""
    count = 0
    with replacing(path) as fh:
        for count, record in enumerate(records, 1):
            fh.write(encode_line(record) + "\n")
    return count
