"""Bit-stable emission: 17-significant-digit floats, LF-only CSV/JSON, run records.

Identical inputs must produce byte-identical files, so every float is
written in the one format FLOAT, singly or in bulk, and all structures are
written with fixed field order and no environment-dependent content.
"""

from __future__ import annotations

import contextlib
# hashlib's SHA-256: its OpenSSL digest costs more to import than the built-in
# _sha256 but hashes about 5x faster, which a large curve repays.
import hashlib
import math
import os
from typing import Sequence

try:  # the C function behind json.encoder's, without the json package's import
    from _json import encode_basestring_ascii as _quote
except ImportError:  # an interpreter without the _json accelerator
    from json.encoder import encode_basestring_ascii as _quote

RUN_RECORD_NAME = "run_record.json"
# O_BINARY (Windows) keeps LF as LF; os.open fds are non-inheritable (PEP 446).
_CREATE_NEW = os.O_WRONLY | os.O_CREAT | os.O_EXCL | getattr(os, "O_BINARY", 0)


# 17 significant digits: enough to round-trip any IEEE double exactly.
FLOAT = "%.17g"


def fmt_float(value: float) -> str:
    """value in FLOAT. Refuses inf and nan, which neither JSON nor a scenario
    file can hold.
    """
    if not math.isfinite(value):
        raise ValueError(f"not a finite number: {value!r}")
    return FLOAT % value


def check_finite(*columns) -> None:
    """fmt_float's refusal of the first value, row by row over zip(*columns,
    strict=True), that is not finite; one pass in C per column while every value is."""
    if not all([all(map(math.isfinite, column)) for column in columns]):
        for row in zip(*columns, strict=True):
            for value in row:
                fmt_float(value)


def fmt_floats(values: Sequence[float]) -> list[str]:
    """[fmt_float(v) for v in values], through one % over a repeated FLOAT."""
    check_finite(values)
    return (f"{FLOAT}\n" * len(values) % tuple(values)).split("\n")[:-1]


def _to_json(value, indent: int) -> str:
    """value as indented JSON; strings and keys are quoted as json.dumps does."""
    if isinstance(value, float):
        return fmt_float(value)
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
        for key, item in value.items():
            items.append(f"{child_pad}{_quote(str(key))}: {_to_json(item, inner)}")
        return "{\n" + ",\n".join(items) + "\n" + " " * indent + "}"
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        for item in value:
            items.append(child_pad + _to_json(item, inner))
        return "[\n" + ",\n".join(items) + "\n" + " " * indent + "]"
    raise TypeError(f"cannot serialize {type(value).__name__}")


def json_text(value) -> str:
    """Deterministic JSON document, insertion-ordered keys, LF line endings.

    A non-finite float raises fmt_float's ValueError.
    """
    return _to_json(value, 0) + "\n"


def csv_text(header: list[str], blocks: list[tuple[Sequence[str], Sequence]]) -> str:
    """CSV with a mandatory header row, then each block (row templates, one per
    row; cells) as one % over its templates joined by newlines. No cell holds a
    comma or a newline, so each distinct template is checked once, in row order:
    the first that holds a newline or is not as wide as the header is refused."""
    width, texts = len(header), [",".join(header)]
    for templates, cells in blocks:
        for template in dict.fromkeys(templates):
            if "\n" in template:
                raise ValueError(f"row template holds a newline: {template!r}")
            if template.count(",") + 1 != width:
                raise ValueError(f"row width {template.count(',') + 1} != header width {width}")
        texts.append("\n".join(templates) % tuple(cells))
    return "\n".join(texts) + "\n"


def write_outputs(out_dir: str, files: dict[str, str]) -> None:
    """Single-writer emission of pre-rendered texts, LF regardless of platform.

    Refuses, before writing anything, a target that exists and is not a
    regular file; a directory this call made holds none. Every text goes to
    a temporary file inside out_dir first; the temporaries then replace their
    targets, RUN_RECORD_NAME last, so a manifest is only ever written after
    every file it lists. On any failure the temporary files are removed, and
    so are out_dir and the parents made for it, while empty.
    """
    targets = {name: os.path.join(out_dir, name) for name in files}
    existing = targets.values()  # the targets that out_dir may already hold
    made: list[str] = []  # the directories this call made, deepest first
    try:
        os.mkdir(out_dir or os.curdir)
        existing, made = (), [out_dir]
    except FileNotFoundError:  # a parent is missing
        # os.makedirs makes the ancestors that os.path.exists denies, up to a
        # root (which dirname keeps); a directory that existed is never made.
        missing = out_dir
        while missing and missing not in made and not os.path.exists(missing):
            made.append(missing)
            missing = os.path.dirname(missing)
        try:
            os.makedirs(out_dir, exist_ok=True)
        except OSError:
            _remove_empty(made)
            raise
    except OSError:  # as os.makedirs: EEXIST may yield to EACCES or EROFS
        if not os.path.isdir(out_dir or os.curdir):
            raise
    order = sorted(files, key=lambda name: name == RUN_RECORD_NAME)
    pending: dict[str, str] = {}
    try:
        for target in existing:
            if os.path.lexists(target) and not os.path.isfile(target):
                raise FileExistsError(f"{target} exists and is not a regular file")
        tag = os.urandom(8).hex()
        for i, name in enumerate(order):
            temporary = os.path.join(out_dir, f".gravclock-{tag}-{i}.tmp")
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
    except BaseException:
        for temporary in pending.values():
            with contextlib.suppress(OSError):
                os.unlink(temporary)
        _remove_empty(made)
        raise


def _remove_empty(directories: list[str]) -> None:
    """rmdir each directory in turn; rmdir keeps a non-empty one."""
    for directory in directories:
        with contextlib.suppress(OSError):
            os.rmdir(directory)


def run_record(scenario_text: str, version: str, files: dict[str, str]) -> dict:
    """Manifest tying outputs to the scenario digest and tool version."""
    return {
        "scenario_sha256": hashlib.sha256(scenario_text.encode("utf-8")).hexdigest(),
        "version": version,
        "outputs": [
            {"name": name, "sha256": hashlib.sha256(data).hexdigest(), "bytes": len(data)}
            for name, data in ((name, text.encode("utf-8")) for name, text in files.items())
        ],
    }
