"""Bit-stable emission: 17-significant-digit floats, LF-only CSV/JSON, run records.

Identical inputs must produce byte-identical files, so all float formatting
goes through one function and all structures are written with fixed field
order and no environment-dependent content.
"""

from __future__ import annotations

import contextlib
import hashlib
import math
import os
from json.encoder import encode_basestring_ascii as _quote

RUN_RECORD_NAME = "run_record.json"
# O_BINARY (Windows) keeps LF as LF; os.open fds are non-inheritable (PEP 446).
_CREATE_NEW = os.O_WRONLY | os.O_CREAT | os.O_EXCL | getattr(os, "O_BINARY", 0)


def fmt_float(value: float) -> str:
    """17 significant digits: enough to round-trip any IEEE double exactly.

    Refuses inf and nan, which neither JSON nor a scenario file can hold.
    """
    if not math.isfinite(value):
        raise ValueError(f"not a finite number: {value!r}")
    return f"{value:.17g}"


class _Refusal(ValueError):
    """fmt_float's refusal inside a document; keys collects its key path as the
    recursion unwinds: innermost first, dict keys as str, list indices as int."""

    def __init__(self, message: str):
        super().__init__(message)
        self.keys: list[int | str] = []


def _to_json(value, indent: int) -> str:
    """value as indented JSON; strings and keys are quoted as json.dumps does."""
    if isinstance(value, float):
        try:
            return fmt_float(value)
        except ValueError as exc:
            raise _Refusal(str(exc)) from None
    if isinstance(value, str):
        return _quote(value)
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    if value is None:
        return "null"
    inner = indent + 2
    child_pad = " " * inner
    items: list[str] = []
    if isinstance(value, dict):
        if not value:
            return "{}"
        try:
            for key, item in value.items():
                items.append(f"{child_pad}{_quote(str(key))}: {_to_json(item, inner)}")
        except _Refusal as refusal:
            refusal.keys.append(str(key))
            raise
        return "{\n" + ",\n".join(items) + "\n" + " " * indent + "}"
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        try:
            for item in value:
                items.append(child_pad + _to_json(item, inner))
        except _Refusal as refusal:
            refusal.keys.append(len(items))
            raise
        return "[\n" + ",\n".join(items) + "\n" + " " * indent + "]"
    raise TypeError(f"cannot serialize {type(value).__name__}")


def json_text(value) -> str:
    """Deterministic JSON document, insertion-ordered keys, LF line endings.

    A non-finite float raises ValueError naming its key path ("a.b[2].c").
    """
    try:
        return _to_json(value, 0) + "\n"
    except _Refusal as refusal:
        path = ""
        for key in reversed(refusal.keys):
            if isinstance(key, int):
                path += f"[{key}]"
            else:
                path = f"{path}.{key}" if path else key
        raise ValueError(f"{path or 'value'}: {refusal}") from None


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


def write_outputs(out_dir: str, files: dict[str, str]) -> None:
    """Single-writer emission of pre-rendered texts, LF regardless of platform.

    Refuses, before writing anything, a target that exists and is not a
    regular file. Every text goes to a temporary file inside out_dir first;
    the temporaries then replace their targets, RUN_RECORD_NAME last, so a
    manifest is only ever written after every file it lists. On any failure
    the temporary files are removed.
    """
    os.makedirs(out_dir or os.curdir, exist_ok=True)
    targets = {name: os.path.join(out_dir, name) for name in files}
    for target in targets.values():
        if os.path.lexists(target) and not os.path.isfile(target):
            raise FileExistsError(f"{target} exists and is not a regular file")
    order = sorted(files, key=lambda name: name == RUN_RECORD_NAME)
    pending: dict[str, str] = {}
    try:
        for name in order:
            temporary = os.path.join(out_dir, f".gravclock-{os.urandom(8).hex()}.tmp")
            fd = os.open(temporary, _CREATE_NEW, 0o666)
            pending[name] = temporary
            try:
                data = memoryview(files[name].encode("utf-8"))
                while data:
                    data = data[os.write(fd, data) :]
            finally:
                os.close(fd)
        for name in order:
            os.replace(pending[name], targets[name])
            del pending[name]
    finally:
        for temporary in pending.values():
            with contextlib.suppress(OSError):
                os.unlink(temporary)


def run_record(scenario_text: str, version: str, files: dict[str, str]) -> dict:
    """Manifest tying outputs to the scenario digest and tool version."""
    return {
        "scenario_sha256": sha256_hex(scenario_text),
        "version": version,
        "outputs": [
            {"name": name, "sha256": hashlib.sha256(data).hexdigest(), "bytes": len(data)}
            for name, data in ((name, text.encode("utf-8")) for name, text in files.items())
        ],
    }
