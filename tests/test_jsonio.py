"""`read_jsonl` decodes each line on its own; it must accept, reject and word its errors
exactly as a `json.loads` of every whole line does."""

import json
import re

import pytest

from shopdialog.errors import MalformedFile
from shopdialog.jsonio import read_jsonl


def reference_read_jsonl(path):
    """One `json.loads` per non-blank line, the reader's behaviour by definition."""
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


def outcome(reader, path) -> str:
    """The records read, or the error text; repr() makes NaN compare equal to itself."""
    try:
        return repr(list(reader(path)))
    except MalformedFile as exc:
        return f"MalformedFile: {exc}"


CASES = {
    "plain": '{"a": 1}\n{"b": [2, "x"]}\n',
    "spaces-and-tabs": ' \t{"a": 1} \t\n\t\t{"b": 2}\n   \n',
    "crlf": '{"a": 1}\r\n{"b": 2}\r\n\r\n',
    "lone-cr": '{"a": 1}\r{"b": 2}\r',
    "no-final-newline": '{"a": 1}\n{"b": 2}',
    "blank-lines": '\n{"a": 1}\n\n \t \n{"b": 2}\n\n',
    "form-feed-after": '{"a": 1}\f\n',
    "form-feed-before": '\f{"a": 1}\n',
    "vertical-tab-after": '{"a": 1}\v\n',
    "vertical-tab-before": '  \v{"a": 1}\n',
    "form-feed-only-line": '{"a": 1}\n\f\n{"b": 2}\n',
    "nbsp-around": "\u00a0{\"a\": 1}\u00a0\n",
    "nbsp-only-line": '{"a": 1}\n\u00a0\u2003\n',
    "bom": '\ufeff{"a": 1}\n',
    "bom-after-space": ' \ufeff{"a": 1}\n',
    "nan-and-infinity": '{"a": NaN, "b": Infinity, "c": -Infinity}\n',
    "two-objects": '{"a": 1}{"b": 2}\n',
    "two-objects-spaced": '{"a": 1} \t{"b": 2}\n',
    "trailing-text": '{"a": 1} x\n',
    "split-object": '{"a":\n1}\n',
    "array-line": '{"a": 1}\n[1, 2]\n',
    "string-line": '"a"\n',
    "number-line": '  12  \n',
    "truncated": '{"a": 1\n',
    "unicode": '{"a": "café \\u00e9 \U0001f600"}\n',
    "nested": '{"a": {"b": [{"c": null}, true, false, -1.5e3]}}\n',
}


@pytest.mark.parametrize("text", CASES.values(), ids=CASES.keys())
def test_read_jsonl_matches_a_loads_per_line(tmp_path, text):
    path = tmp_path / "in.jsonl"
    path.write_bytes(text.encode("utf-8"))  # bytes, so "\r\n" and "\r" reach the reader
    expected = outcome(reference_read_jsonl, path)
    assert outcome(read_jsonl, path) == expected


@pytest.mark.parametrize("name, message", [
    ("form-feed-after", "Extra data"), ("vertical-tab-before", "Expecting value"),
    ("bom", "Unexpected UTF-8 BOM"), ("two-objects", "Extra data"),
    ("split-object", "Expecting value"),
])
def test_read_jsonl_rejects_with_the_loads_message(tmp_path, name, message):
    """The reference itself fails on these, so the comparison above covers real errors."""
    path = tmp_path / "in.jsonl"
    path.write_bytes(CASES[name].encode("utf-8"))
    with pytest.raises(MalformedFile, match="^" + re.escape(f"{path}:1: {message}")):
        list(read_jsonl(path))
