"""Default parameters shared by the engine, the API, the CLI and the daemon.

The simulation modules these defaults shape (the serving loop, the
fleet shard loop, the daemon's server) are heavy to import, and the
request types, the argument parser and the wire codec need only the
numbers.  Keeping them in this leaf module lets a warm ``repro sweep``
build its requests without loading a simulator.
"""

from __future__ import annotations

#: Seed used throughout the evaluation when none is given (the paper year).
DEFAULT_SEED = 2019

# ----------------------------------------------------------------------
# Enclave serving on one machine (repro.service.simulation)

#: Default instruction budget of one request (kept short: fine-grained
#: serving is exactly where the per-switch boundary costs surface).
DEFAULT_SERVICE_INSTRUCTIONS = 2_000
#: Default open-loop requests per simulation.
DEFAULT_SERVICE_REQUESTS = 300
#: Default machine size of the serving fleet.
DEFAULT_SERVICE_CORES = 4
#: Default tenant count (more tenants than cores, so scheduling policies
#: actually contend — with one core per tenant affinity is trivially
#: perfect and the policies converge).
DEFAULT_SERVICE_TENANTS = 6

# ----------------------------------------------------------------------
# Fleet serving (repro.fleet.simulation)

#: Default shard count of a fleet simulation.
DEFAULT_FLEET_SHARDS = 4
#: Default bound on each shard's pending-request queue.
DEFAULT_QUEUE_DEPTH = 32
#: Default latency SLO as a multiple of the mean per-request service
#: demand (queue wait + boundary costs + service must fit inside it).
DEFAULT_SLO_FACTOR = 8.0
#: Default closed-loop think time as a multiple of the mean service
#: demand (``Z = think_factor × S``).
DEFAULT_THINK_FACTOR = 2.0
#: Default DRAM-wipe bandwidth charged on enclave teardown, in bytes
#: per cycle (0 disables the charge).  At 64 B/cycle a one-page enclave
#: plus its 8 page-table pages costs ~576 cycles per churn.
DEFAULT_WIPE_BYTES_PER_CYCLE = 64
#: Default enclave-measurement cost per loaded page on relaunch
#: (hashing the page into the measurement register).
DEFAULT_MEASUREMENT_CYCLES_PER_PAGE = 4096

# ----------------------------------------------------------------------
# The daemon (repro.daemon.server)

#: Default bind address: loopback only — the daemon speaks plain HTTP
#: with no authentication, so exposing it wider is an explicit choice.
DEFAULT_HOST = "127.0.0.1"
#: Default TCP port.
DEFAULT_PORT = 8642
