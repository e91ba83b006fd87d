"""Cross-layer chaos harness: deterministic fault injection + fsck.

* :mod:`repro.chaos.plan` — :class:`ChaosPlan`, a seedable schedule of
  filesystem, transport and worker faults addressed by (site, op).
* :mod:`repro.chaos.worker` — the plain-data block a drawn worker fault
  travels in (to a pool chunk or a service job) and
  :func:`fire_worker_fault`, the one function that fires it.
* :mod:`repro.chaos.io` — :class:`IOShim`, the hardened atomic-write /
  journal-append surface every store routes disk traffic through, and
  :class:`ChaosShim`, the same surface with a plan deciding each call;
  :class:`StoreCorruptionError` is the typed verify-on-read failure.
* :mod:`repro.chaos.fsck` — :func:`fsck_data_dir`, the scanner/repairer
  behind ``repro-fcc fsck``.

Inject by constructing the app over a chaos shim::

    from repro.chaos import ChaosPlan, ChaosShim
    plan = ChaosPlan.single("enospc", site="cache", op="write")
    app = ServiceApp(data_dir, io=ChaosShim(plan))

``tests/test_chaos.py`` is the standing battery: under every scheduled
fault the daemon either serves a result bit-identical to a clean mine
or returns a typed error — never a crash, never silent cube loss.
"""

from .fsck import FsckIssue, FsckReport, fsck_data_dir
from .io import ChaosShim, IOShim, StoreCorruptionError, sha256_bytes, sha256_file
from .plan import CHAOS_FAULT_KINDS, ChaosPlan, ChaosRule
from .worker import FaultInjected, chunk_path, fire_worker_fault

__all__ = [
    "CHAOS_FAULT_KINDS",
    "ChaosPlan",
    "ChaosRule",
    "FaultInjected",
    "chunk_path",
    "fire_worker_fault",
    "IOShim",
    "ChaosShim",
    "StoreCorruptionError",
    "sha256_bytes",
    "sha256_file",
    "FsckIssue",
    "FsckReport",
    "fsck_data_dir",
]
