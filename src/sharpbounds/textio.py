"""The program's text files, UTF-8 whatever the locale: :func:`read_lines`
reads every input file, :func:`write_text_atomic` a table cache or export."""

from __future__ import annotations

import os
from pathlib import Path


def read_lines(path: str | os.PathLike, what: str,
               error: type[Exception]) -> list[tuple[int, str]]:
    """The ``(line number, line)`` pairs of the file, numbered from 1. A line
    ends at ``"\\n"`` alone, the only line end the writers emit (the read
    turns ``"\\r\\n"`` and ``"\\r"`` into it), so any other separator,
    U+2028 say, is part of its line. A file that cannot be read or is not
    UTF-8 text raises ``error("cannot read <what> <path>: <reason>")``."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, ValueError) as exc:  # ValueError: a NUL in the path too
        reason = ("not UTF-8 text" if isinstance(exc, UnicodeDecodeError)
                  else getattr(exc, "strerror", None) or exc)
        raise error(f"cannot read {what} {path}: {reason}") from exc
    lines = text.split("\n")
    if not lines[-1]:  # a final line end starts no line
        lines.pop()
    return list(enumerate(lines, 1))


def write_text_atomic(path: str | os.PathLike, text: str) -> None:
    """Replace ``path`` with ``text`` in one step, by renaming a temporary
    file of its directory: if anything fails, ``path`` keeps its old content,
    nothing else is left behind, and an :class:`OSError` names ``path``."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        tmp.write_text(text, encoding="utf-8")
        os.replace(tmp, path)
    except OSError as exc:
        tmp.unlink(missing_ok=True)
        raise OSError(f"cannot write {path}: {exc.strerror or exc}") from exc
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
