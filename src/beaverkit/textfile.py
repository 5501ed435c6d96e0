"""The line reader of all six text formats: tables, overlays, manifests,
scenarios, the busy-beaver registry and certificates.

``#`` opens a comment at the start of a line or after whitespace, so
``x.manifest#label`` stays one token.  Errors read ``line N: message``
from a parser given text, ``<path>:N: message`` (``<path>: message`` if
not tied to a line) from `load`; a nested load names the innermost file.
"""

import re
from pathlib import Path

_COMMENT = re.compile(r"(?:^|\s)#.*")


def located(error: type[ValueError], message: str, lineno: int | None, path=None) -> ValueError:
    """An `error` whose text leads with where `message` applies."""
    where = f"line {lineno}" if path is None else path if lineno is None else f"{path}:{lineno}"
    err = error(f"{where}: {message}")
    err.location = (path, lineno, message)
    return err


class Lines:
    """``(lineno, line)`` for each line left non-blank by the comment rule,
    stripped.  Around the loop, it re-raises a ValueError or IndexError from
    handling a line as `error` located at that line.
    """

    def __init__(self, text: str, error: type[ValueError] = ValueError):
        self.text, self.error, self.lineno = text, error, None

    def __iter__(self):
        for self.lineno, raw in enumerate(self.text.splitlines(), start=1):
            self.line = (_COMMENT.sub("", raw) if "#" in raw else raw).strip()
            if self.line:
                yield self.lineno, self.line
        self.lineno = None

    def __enter__(self):
        return self

    def __exit__(self, kind, err, tb):
        if self.lineno and isinstance(err, (ValueError, IndexError)) and not hasattr(err, "location"):
            missing = isinstance(err, IndexError)
            message = f"{self.line!r} is missing an argument" if missing else str(err)
            raise located(self.error, message, self.lineno) from None


def load(path, parse, *args):
    """``parse(text, *args)`` on the file at `path`, its errors located there."""
    text = Path(path).read_text()
    try:
        return parse(text, *args)
    except ValueError as e:
        inner, lineno, message = getattr(e, "location", (None, None, str(e)))
        if inner is not None:
            raise
        raise located(type(e), message, lineno, path) from None
