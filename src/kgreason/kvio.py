"""Flat `key = value` files, the line reader of every text file, and the
errors every command reports as usage errors."""

from __future__ import annotations

from pathlib import Path


class SettingError(ValueError):
    """A setting out of range; `field` names its config field or argument."""

    def __init__(self, field: str, requirement: str):
        super().__init__(f"{field} {requirement}")
        self.field = field
        self.requirement = requirement


class UsageError(ValueError):
    """Bad invocation (exit code 2), a config file's own faults included."""


def checked_lines(path, lines):
    """(number, line without its newline) of each non-empty line of text read
    with errors="surrogateescape"; a line that is not UTF-8 raises ValueError."""
    for lineno, line in enumerate(lines, start=1):
        try:
            line.encode("utf-8")
        except UnicodeEncodeError:
            raise ValueError(f"{path}:{lineno}: not valid UTF-8") from None
        if line := line.rstrip("\n"):
            yield lineno, line


def read_kv(path: str | Path) -> dict[str, str]:
    """Parse a flat key-value file, each key once. Skips blanks and `#` comments."""
    out: dict[str, str] = {}
    text = Path(path).read_text(encoding="utf-8", errors="surrogateescape")
    for lineno, raw in checked_lines(path, text.splitlines()):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        if key in out:
            raise UsageError(f"{path}:{lineno}: key {key!r} is given twice")
        out[key] = value.strip()
    return out


def write_kv(path: str | Path, mapping: dict[str, object]) -> None:
    lines = [f"{k} = {v}" for k, v in mapping.items()]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")
