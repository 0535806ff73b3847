"""Flat `key = value` files, and the line reader of every text file."""

from __future__ import annotations

from pathlib import Path


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
    """Parse a flat key-value file. Blank lines and `#` comments are skipped."""
    out: dict[str, str] = {}
    text = Path(path).read_text(encoding="utf-8", errors="surrogateescape")
    for lineno, raw in checked_lines(path, text.splitlines()):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        out[key.strip()] = value.strip()
    return out


def write_kv(path: str | Path, mapping: dict[str, object]) -> None:
    lines = [f"{k} = {v}" for k, v in mapping.items()]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")
