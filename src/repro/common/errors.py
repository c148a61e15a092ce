"""Exception hierarchy for the MI6 reproduction.

Every error raised by the library derives from :class:`ReproError` so that
callers can catch library failures without also swallowing programming
errors such as :class:`TypeError`.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` library."""


class ConfigurationError(ReproError):
    """A configuration object is internally inconsistent.

    Raised, for example, when the number of LLC MSHRs exceeds what the
    DRAM controller can absorb (Section 5.2 of the paper), or when a cache
    geometry is not a power of two.
    """


class SecurityMonitorError(ReproError):
    """The security monitor refused an operation requested by software.

    The untrusted OS may request invalid resource allocations (overlapping
    DRAM regions, scheduling an enclave on a core it does not own, ...);
    the monitor rejects these with this error rather than violating the
    isolation invariants.
    """
