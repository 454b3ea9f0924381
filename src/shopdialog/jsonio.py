"""JSON and JSON Lines file I/O for every pipeline stage.

Files are UTF-8.  A read that cannot open, decode or parse its input raises
MalformedFile naming the path, and for JSON Lines the 1-based line number.
"""

from __future__ import annotations

import json
from typing import Iterable, Iterator

from .errors import MalformedFile


def read_json(path) -> object:
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise MalformedFile(f"cannot read {path}: {exc}") from exc
    except ValueError as exc:  # JSONDecodeError or UnicodeDecodeError
        raise MalformedFile(f"cannot parse {path}: {exc}") from exc


def write_json(path, payload, sort_keys: bool = False) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(payload, indent=2, ensure_ascii=False, sort_keys=sort_keys) + "\n")


def read_jsonl(path) -> Iterator[tuple[int, dict]]:
    """Yield (line_no, record) for every non-blank line; each record must be an object."""
    try:
        with open(path, encoding="utf-8") as fh:
            for line_no, line in enumerate(fh, 1):
                if not line.strip():
                    continue
                try:
                    record = json.loads(line)
                except json.JSONDecodeError as exc:
                    raise MalformedFile(f"{path}:{line_no}: {exc}") from exc
                if not isinstance(record, dict):
                    raise MalformedFile(f"{path}:{line_no}: not a JSON object")
                yield line_no, record
    except (OSError, UnicodeDecodeError) as exc:
        raise MalformedFile(f"cannot read {path}: {exc}") from exc


def write_jsonl(path, records: Iterable[dict]) -> int:
    """Write one compact JSON object per line; returns the number written."""
    count = 0
    with open(path, "w", encoding="utf-8") as fh:
        for record in records:
            fh.write(json.dumps(record, ensure_ascii=False) + "\n")
            count += 1
    return count
