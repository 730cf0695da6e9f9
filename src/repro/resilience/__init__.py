"""Resilient execution of long experiment sweeps.

The paper's evaluation is hours of exact cache simulation (three
kernels x six strategies x dozens of sizes); production frameworks such
as OPS treat runs of that shape as restartable, budgeted jobs. This
package provides the ingredients, independent of the experiment
layer that wires them up (:mod:`repro.experiments.runner`):

* :mod:`~repro.resilience.budget` — per-point wall-clock / trace-length
  budgets plus bounded retry with exponential backoff;
* :mod:`~repro.resilience.pool` — a supervised process pool: each work
  unit runs in its own child (crash/OOM/segfault isolation) under
  heartbeat monitoring and a SIGKILL-enforced wall timeout, with retry
  + backoff and quarantine-to-fallback when attempts are exhausted; the
  supervisor is the single checkpoint writer and drains gracefully on
  SIGINT/SIGTERM;
* :mod:`~repro.resilience.faults` — deterministic fault injection
  (crash on the k-th simulation, kill/hang/corrupt the n-th worker,
  tear/ENOSPC/EIO the IO layer, SIGKILL the supervisor itself at the
  n-th checkpoint record) so the recovery paths are *proven* by tests,
  not assumed;
* :mod:`~repro.resilience.atomic` — temp-file + ``os.replace`` writes
  (directory-fsync'd, orphan-swept, fault-injectable) shared by every
  durable artifact the harness produces;
* :mod:`~repro.resilience.integrity` — configuration fingerprints,
  CRC checksums over canonical JSON bodies, and
  quarantine-with-provenance for artifacts that fail them;
* :mod:`~repro.resilience.locking` — advisory cross-process file locks
  (fcntl, with a stale-takeover lockfile fallback);
* :mod:`~repro.resilience.signals` — graceful SIGINT/SIGTERM draining
  for checkpointed sweeps;
* :mod:`~repro.resilience.fsck` — eager verification/repair of
  stores and run ledgers (``repro fsck``).

The durable point record itself is :class:`repro.perf.store.PointStore`
(a ``--checkpoint`` is one; see
:func:`repro.experiments.runner.open_checkpoint`).
"""

from repro.resilience.atomic import atomic_write_text
from repro.resilience.budget import Deadline, PointBudget, run_with_retries
from repro.resilience.fsck import (
    FsckFinding,
    FsckReport,
    fsck_path,
    fsck_store,
)
from repro.resilience.integrity import (
    attach_crc,
    fingerprint,
    quarantine_file,
    record_crc,
    verify_crc,
)
from repro.resilience.locking import FileLock
from repro.resilience.pool import PoolPolicy, TaskOutcome, run_supervised
from repro.resilience.signals import DrainState, graceful_drain

__all__ = [
    "atomic_write_text",
    "attach_crc",
    "Deadline",
    "DrainState",
    "FileLock",
    "FsckFinding",
    "FsckReport",
    "PointBudget",
    "PoolPolicy",
    "TaskOutcome",
    "fingerprint",
    "fsck_path",
    "fsck_store",
    "graceful_drain",
    "quarantine_file",
    "record_crc",
    "run_supervised",
    "run_with_retries",
    "verify_crc",
]
