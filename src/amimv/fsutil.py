"""Atomic file writes (temp file in the target directory, then rename) and CSV text."""

import csv
import io
import os
import tempfile


def atomic_write_bytes(path: str, data: bytes) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def atomic_write_text(path: str, text: str) -> None:
    atomic_write_bytes(path, text.encode("utf-8"))


def csv_text(rows) -> str:
    """`rows` as CSV text in csv.writer's default dialect (CRLF line ends)."""
    buf = io.StringIO()
    csv.writer(buf).writerows(rows)
    return buf.getvalue()
