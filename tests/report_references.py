"""Report writers that only the tests use, beside `curvlab.report`.

`canonical_json` is the two-pass route that `curvlab.report.canonical_json`
replaced: convert the payload with `jsonable`, then lay it out with
`json.dumps`.  With `indent` set, json encodes in pure Python, which is why
the library writes the same text in one walk of its own.
"""
from __future__ import annotations

import json

from curvlab.report import jsonable


def canonical_json(obj) -> str:
    """Sorted-key, indented JSON text with a trailing newline."""
    return json.dumps(jsonable(obj), sort_keys=True, indent=2,
                      ensure_ascii=False) + "\n"
