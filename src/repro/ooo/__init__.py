"""Out-of-order core substrate (the RiscyOO model).

The paper's baseline processor, RiscyOO, is a 2-wide superscalar,
speculative out-of-order core (Figure 4).  This package provides a
cycle-approximate timing model (:class:`repro.ooo.core.OutOfOrderCore`)
that executes the abstract instruction streams produced by
:mod:`repro.workloads` through a memory hierarchy from :mod:`repro.mem`.

The front-end structures that hold program-dependent state across
context switches (branch predictor, BTB, return-address stack) are
modelled explicitly because the MI6 ``purge`` instruction must scrub them
(Section 6.1), and the purge audit in :mod:`repro.core.purge` compares
them with a pristine core's.  The in-flight pipeline lives in the timing
loop's locals: ROB occupancy, register readiness, execution-pipeline
slots and outstanding LLC misses.
"""

from repro.core.config import CoreConfig
from repro.core.results import CoreResult
from repro.ooo.branch_predictor import TournamentPredictor
from repro.ooo.btb import BranchTargetBuffer, ReturnAddressStack
from repro.ooo.core import OutOfOrderCore
from repro.ooo.frontend import FrontEnd

__all__ = [
    "BranchTargetBuffer",
    "CoreConfig",
    "CoreResult",
    "FrontEnd",
    "OutOfOrderCore",
    "ReturnAddressStack",
    "TournamentPredictor",
]
