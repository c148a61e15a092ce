"""Out-of-order core substrate (the RiscyOO model).

The paper's baseline processor, RiscyOO, is a 2-wide superscalar,
speculative out-of-order core (Figure 4).  This package models its
microarchitectural structures and provides a cycle-approximate timing
model (:class:`repro.ooo.core.OutOfOrderCore`) that executes the abstract
instruction streams produced by :mod:`repro.workloads` through a memory
hierarchy from :mod:`repro.mem`.

The structures that hold program-dependent state across context switches
(branch predictor, BTB, return-address stack, rename tables, ROB, issue
queues, load-store queue, store buffer) are modelled explicitly because
the MI6 ``purge`` instruction must scrub them (Section 6.1), and the purge
audit in :mod:`repro.core.purge` walks them to verify that the
post-flush state is indistinguishable from the initial state.
"""

from repro.core.config import CoreConfig
from repro.core.results import CoreResult
from repro.ooo.branch_predictor import TournamentPredictor
from repro.ooo.btb import BranchTargetBuffer, ReturnAddressStack
from repro.ooo.core import OutOfOrderCore
from repro.ooo.frontend import FrontEnd
from repro.ooo.lsq import LoadStoreQueue, StoreBuffer
from repro.ooo.rename import FreeList, RenameTable
from repro.ooo.rob import IssueQueue, ReorderBuffer

__all__ = [
    "BranchTargetBuffer",
    "CoreConfig",
    "CoreResult",
    "FreeList",
    "FrontEnd",
    "IssueQueue",
    "LoadStoreQueue",
    "OutOfOrderCore",
    "RenameTable",
    "ReorderBuffer",
    "ReturnAddressStack",
    "StoreBuffer",
    "TournamentPredictor",
]
