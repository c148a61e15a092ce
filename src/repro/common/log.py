"""One logging setup shared by every ``repro`` entry point.

The CLI's top-level ``--log-level`` flag and the daemon both come
through :func:`configure_logging`, so the whole tree logs through a
single root handler with one format — per-module ``basicConfig`` calls
are not used anywhere.  Calling it again only adjusts the level (the
handler installs once), so tests and long-lived daemons can raise or
lower verbosity at will.
"""

from __future__ import annotations

import logging
import sys
from typing import IO, Optional, Tuple

#: Level names accepted by ``repro --log-level`` (maps onto stdlib levels).
LOG_LEVELS: Tuple[str, ...] = ("debug", "info", "warning", "error", "critical")

#: One format for the whole tree: time, level, logger, message.
LOG_FORMAT = "%(asctime)s %(levelname)-8s %(name)s %(message)s"

_HANDLER: Optional[logging.Handler] = None


class _StderrHandler(logging.StreamHandler):
    """Writes each record to the ``sys.stderr`` current at emit time.

    As ``logging.lastResort`` does: a handler bound to the ``sys.stderr``
    of its first call would keep writing to a stream a caller swapped in
    only around that call (``contextlib.redirect_stderr``).
    """

    def emit(self, record: logging.LogRecord) -> None:
        self.stream = sys.stderr
        super().emit(record)


def configure_logging(
    level: str = "warning", *, stream: Optional[IO[str]] = None
) -> int:
    """Install (once) the shared handler and set the root level.

    Args:
        level: One of :data:`LOG_LEVELS` (case-insensitive).
        stream: Output stream; by default each record goes to the
            ``sys.stderr`` current when it is written.  Only honoured on
            the first call (the installing one).

    Returns:
        The numeric level that was applied.
    """
    global _HANDLER
    name = str(level).strip().lower()
    if name not in LOG_LEVELS:
        raise ValueError(
            f"unknown log level {level!r} (expected one of {', '.join(LOG_LEVELS)})"
        )
    numeric = getattr(logging, name.upper())
    root = logging.getLogger()
    if _HANDLER is None:
        handler: logging.Handler = (
            logging.StreamHandler(stream) if stream is not None else _StderrHandler()
        )
        handler.setFormatter(logging.Formatter(LOG_FORMAT))
        root.addHandler(handler)
        _HANDLER = handler
    root.setLevel(numeric)
    return int(numeric)
