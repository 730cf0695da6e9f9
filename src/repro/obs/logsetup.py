"""CLI logging configuration for the ``repro.*`` logger namespace.

Library modules log through module-level loggers
(``logging.getLogger(__name__)``); nothing in the library configures
handlers — that is the application's job, and for the ``repro`` CLI it
happens here, driven by the ``-v``/``-q`` flags:

=========  ==================  ========================================
flags      level               what you see on stderr
=========  ==================  ========================================
``-qq``    CRITICAL            nothing short of a crash
``-q``     WARNING             recoveries, degradations
(none)     INFO                sweep progress, artifact paths
``-v``     DEBUG               per-point selections, checkpoint traffic
=========  ==================  ========================================

Primary results (tables, figures, series) stay on **stdout** via
``print`` — they are the command's output, not diagnostics — so
``repro table3 | tee`` keeps working while logs flow to stderr.
"""

from __future__ import annotations

import logging
import sys

__all__ = ["verbosity_to_level", "setup_cli_logging"]

_HANDLER_NAME = "repro-cli"


def verbosity_to_level(verbose: int = 0, quiet: int = 0) -> int:
    """Map ``-v``/``-q`` counts to a ``logging`` level (default INFO)."""
    step = verbose - quiet
    if step >= 1:
        return logging.DEBUG
    if step == 0:
        return logging.INFO
    if step == -1:
        return logging.WARNING
    return logging.CRITICAL


def setup_cli_logging(verbose: int = 0, quiet: int = 0,
                      stream=None) -> logging.Logger:
    """Configure the ``repro`` logger for CLI use (idempotent).

    Installs one stderr handler on the ``repro`` root logger and sets
    its level from the flag counts. Re-invocation (tests call ``main``
    repeatedly) replaces the previous CLI handler instead of stacking.
    """
    logger = logging.getLogger("repro")
    for h in list(logger.handlers):
        if h.get_name() == _HANDLER_NAME:
            logger.removeHandler(h)
    handler = logging.StreamHandler(stream or sys.stderr)
    handler.set_name(_HANDLER_NAME)
    handler.setFormatter(logging.Formatter("%(levelname)s %(name)s: %(message)s"))
    logger.addHandler(handler)
    logger.setLevel(verbosity_to_level(verbose, quiet))
    logger.propagate = False
    return logger
