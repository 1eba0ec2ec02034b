"""Bit-stable emission: 17-significant-digit floats, LF-only CSV/JSON, run records.

Identical inputs must produce byte-identical files, so all float formatting
goes through one function and all structures are written with fixed field
order and no environment-dependent content.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import math
import os
from pathlib import Path

RUN_RECORD_NAME = "run_record.json"


def fmt_float(value: float) -> str:
    """17 significant digits: enough to round-trip any IEEE double exactly.

    Refuses inf and nan, which neither JSON nor a scenario file can hold.
    """
    if not math.isfinite(value):
        raise ValueError(f"not a finite number: {value!r}")
    return f"{value:.17g}"


def _to_json(value, indent: int, path: str) -> str:
    """value as indented JSON; path names it in a refusal ("a.b[2].c")."""
    pad = " " * indent
    child_pad = " " * (indent + 2)
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        try:
            return fmt_float(value)
        except ValueError as exc:
            raise ValueError(f"{path or 'value'}: {exc}") from None
    if isinstance(value, str):
        return json.dumps(value)
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        items = ",\n".join(
            child_pad + _to_json(v, indent + 2, f"{path}[{i}]") for i, v in enumerate(value)
        )
        return "[\n" + items + "\n" + pad + "]"
    if isinstance(value, dict):
        if not value:
            return "{}"
        items = ",\n".join(
            f"{child_pad}{json.dumps(str(k))}: "
            + _to_json(v, indent + 2, f"{path}.{k}" if path else str(k))
            for k, v in value.items()
        )
        return "{\n" + items + "\n" + pad + "}"
    raise TypeError(f"cannot serialize {type(value).__name__}")


def json_text(value) -> str:
    """Deterministic JSON document, insertion-ordered keys, LF line endings.

    A non-finite float raises ValueError naming its key path.
    """
    return _to_json(value, 0, "") + "\n"


def csv_text(header: list[str], lines: list[str]) -> str:
    """CSV with a mandatory header row; each line is its pre-formatted cells
    joined by commas. No cell holds a comma, so the commas count the cells.
    """
    commas = len(header) - 1
    for line in lines:
        if line.count(",") != commas:
            raise ValueError(f"row width {line.count(',') + 1} != header width {len(header)}")
    return "\n".join([",".join(header), *lines]) + "\n"


def sha256_hex(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def write_outputs(out_dir: Path, files: dict[str, str]) -> None:
    """Single-writer emission of pre-rendered texts, LF regardless of platform.

    Refuses, before writing anything, a target that exists and is not a
    regular file. Every text goes to a temporary file inside out_dir first;
    the temporaries then replace their targets, RUN_RECORD_NAME last, so a
    manifest is only ever written after every file it lists. On any failure
    the temporary files are removed.
    """
    out_dir.mkdir(parents=True, exist_ok=True)
    for name in files:
        target = out_dir / name
        if os.path.lexists(target) and not target.is_file():
            raise FileExistsError(f"{target} exists and is not a regular file")
    order = sorted(files, key=lambda name: name == RUN_RECORD_NAME)
    pending: dict[str, Path] = {}
    try:
        for name in order:
            temporary = out_dir / f".gravclock-{os.urandom(8).hex()}.tmp"
            with open(temporary, "x", encoding="utf-8", newline="\n") as handle:
                pending[name] = temporary
                handle.write(files[name])
        for name in order:
            os.replace(pending[name], out_dir / name)
            del pending[name]
    finally:
        for temporary in pending.values():
            with contextlib.suppress(OSError):
                temporary.unlink(missing_ok=True)


def run_record(scenario_text: str, version: str, files: dict[str, str]) -> dict:
    """Manifest tying outputs to the scenario digest and tool version."""
    return {
        "scenario_sha256": sha256_hex(scenario_text),
        "version": version,
        "outputs": [
            {"name": name, "sha256": sha256_hex(text), "bytes": len(text.encode("utf-8"))}
            for name, text in files.items()
        ],
    }
