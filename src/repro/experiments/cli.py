"""Flags shared by ``python -m repro`` and ``python -m repro.experiments``.

Each flag is defined once, with one help text, by :func:`add_run_flags`;
:func:`apply_run_flags` applies the process-wide ones.
"""

from __future__ import annotations

import argparse
import os
from typing import Optional

from .. import obs
from ..common import fastpath
from ..common.config import FaultSpec


def add_run_flags(parser: argparse.ArgumentParser) -> None:
    """Add ``--no-fastpath``, ``--metrics``, ``--ledger``, ``--faults``,
    ``--fault-seed`` and ``--fault-intensity`` to ``parser``."""
    parser.add_argument("--no-fastpath", action="store_true",
                        help="force the reference event path everywhere "
                             "(disables every engine fast-path layer; the "
                             "byte-identity baseline, see DESIGN.md §11)")
    parser.add_argument("--metrics", action="store_true",
                        help="print the metrics registry snapshot as JSON "
                             "after the output")
    parser.add_argument("--ledger", nargs="?", const=".repro_ledger",
                        default=None, metavar="DIR",
                        help="append one run record per completed "
                             "simulation to this ledger directory "
                             "(default when given bare: %(const)s; see "
                             "`python -m repro ledger`)")
    parser.add_argument("--faults", action="store_true",
                        help="inject a deterministic fault schedule into "
                             "every simulation not already faulted "
                             "(retries and fallbacks appear in the "
                             "report details; see README, 'Fault "
                             "injection & resilience')")
    parser.add_argument("--fault-seed", type=int, default=0, metavar="S",
                        help="fault-schedule seed (default: %(default)s)")
    parser.add_argument("--fault-intensity", type=float, default=1.0,
                        metavar="X",
                        help="fault intensity in [0,1] "
                             "(default: %(default)s)")


def apply_run_flags(args: argparse.Namespace) -> Optional[FaultSpec]:
    """Apply ``--no-fastpath`` and ``--ledger``; return the fault spec
    the three fault flags describe.

    Both flags are also exported as environment variables
    (``REPRO_NO_FASTPATH``, ``REPRO_LEDGER``), so matrix pool workers
    inherit them whatever their start method.  The spec is None while
    every fault flag keeps its default, and enabled only with
    ``--faults``: fig19 and fig21 read its seed either way.
    """
    if args.no_fastpath:
        os.environ["REPRO_NO_FASTPATH"] = "1"
        fastpath.disable_all()
    if args.ledger:
        os.environ[obs.LEDGER_ENV] = args.ledger
    if not (args.faults or args.fault_seed or args.fault_intensity != 1.0):
        return None
    return FaultSpec(enabled=args.faults, intensity=args.fault_intensity,
                     fault_seed=args.fault_seed)
