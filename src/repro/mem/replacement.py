"""Cache replacement policies.

Three policies are modelled because the paper relies on their specific
properties for the purge analysis (Section 6.1):

* RiscyOO's L1 caches use a *pseudo-random* replacement policy with no
  replacement state, so scrubbing the tags is enough;
* the TLBs and translation caches use an LRU policy that is
  *self-cleaning*: once a set is emptied, refills happen in a fixed order,
  so priming the structure scrubs the replacement state;
* a plain LRU policy is provided for experiments that want one.

The LRU policies' recency stacks are built on first touch: every set
shares one immutable initial stack until a touch reorders it (see
:class:`LruPolicy`), so the shared LLC's 1,024-set policy costs one list
to build and to reset.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from itertools import repeat
from typing import List, Optional, Union

from repro.common.errors import ConfigurationError
from repro.common.rng import DeterministicRng


class ReplacementPolicy(ABC):
    """Replacement state and victim selection for one cache set."""

    @abstractmethod
    def victim(self, set_index: int, valid: List[bool]) -> int:
        """Choose the way to evict in ``set_index``.

        ``valid`` marks which ways currently hold a line; policies must
        prefer an invalid way when one exists.
        """

    @abstractmethod
    def touch(self, set_index: int, way: int) -> None:
        """Record a hit or fill of ``way`` in ``set_index``."""

    @abstractmethod
    def invalidate(self, set_index: int, way: int) -> None:
        """Record that ``way`` was invalidated."""

    @abstractmethod
    def reset(self) -> None:
        """Scrub all replacement state to its initial (public) value."""

    def holds_program_state(self) -> bool:
        """True if the policy retains program-dependent state after reset.

        Used by the purge audit: a policy whose state survives a reset
        (or whose reset is not indistinguishable from the initial state)
        would require extra scrubbing.
        """
        return False


def _first_invalid(valid: List[bool]) -> Optional[int]:
    for way, is_valid in enumerate(valid):
        if not is_valid:
            return way
    return None


class PseudoRandomPolicy(ReplacementPolicy):
    """Stateless pseudo-random replacement (RiscyOO L1 caches).

    The victim way is drawn from a deterministic RNG.  Because the policy
    holds no per-set state there is nothing to scrub on purge; the paper
    calls this out as the reason the L1 replacement state needs no special
    handling.
    """

    def __init__(self, rng: DeterministicRng) -> None:
        self._rng = rng

    def victim(self, set_index: int, valid: List[bool]) -> int:
        invalid_way = _first_invalid(valid)
        if invalid_way is not None:
            return invalid_way
        return self._rng.integer(0, len(valid) - 1)

    def touch(self, set_index: int, way: int) -> None:
        return None

    def invalidate(self, set_index: int, way: int) -> None:
        return None

    def reset(self) -> None:
        return None


class LruPolicy(ReplacementPolicy):
    """True least-recently-used replacement.

    Keeps a recency stack per set.  A plain LRU cache retains
    program-dependent ordering even after all lines are invalidated unless
    the stack is also cleared, which :meth:`reset` does.

    Each stack is a byte string of way numbers, most recent first: way
    numbers fit a byte, so a policy over more than 256 ways is rejected,
    and the 1,024 stacks of an LLC are objects the cyclic garbage
    collector does not track.  Every set starts on one shared, immutable
    ``bytes`` stack in the initial order and gets a ``bytearray`` of its
    own on the first touch that reorders it; :meth:`reset` and
    :meth:`SelfCleaningLruPolicy.note_set_empty` put the shared stack
    back.  So a policy that most sets never touch allocates one list,
    and every site that mutates a stack in place (here and in the slab
    cache's and the warm-up lane's LRU access) copies the shared one
    first.
    """

    def __init__(self, num_sets: int, ways: int) -> None:
        if ways > 256:
            raise ConfigurationError(f"an LRU policy orders at most 256 ways, got {ways}")
        self._num_sets = num_sets
        self._initial_stack = bytes(range(ways))
        self._stacks: List[Union[bytes, bytearray]] = [self._initial_stack] * num_sets

    def _own_stack(self, set_index: int) -> bytearray:
        """``set_index``'s stack, copied out of the shared initial one first."""
        stack = self._stacks[set_index]
        if not isinstance(stack, bytearray):
            stack = self._stacks[set_index] = bytearray(stack)
        return stack

    def victim(self, set_index: int, valid: List[bool]) -> int:
        invalid_way = _first_invalid(valid)
        if invalid_way is not None:
            return invalid_way
        return self._stacks[set_index][-1]

    def touch(self, set_index: int, way: int) -> None:
        if self._stacks[set_index][0] != way:
            stack = self._own_stack(set_index)
            stack.remove(way)
            stack.insert(0, way)

    def invalidate(self, set_index: int, way: int) -> None:
        if self._stacks[set_index][-1] != way:
            stack = self._own_stack(set_index)
            stack.remove(way)
            stack.append(way)

    def reset(self) -> None:
        # Reset in place: the slab-backed cache fast path binds the outer
        # stack list once at construction, so the container object must
        # survive a purge.
        self._stacks[:] = repeat(self._initial_stack, self._num_sets)

    def recency_order(self, set_index: int) -> List[int]:
        """Most- to least-recently-used way order (exposed for tests)."""
        return list(self._stacks[set_index])


class SelfCleaningLruPolicy(LruPolicy):
    """LRU policy with the self-cleaning fill property of RiscyOO's TLBs.

    Section 6.1: "when no line's data is present in a set, new lines are
    filled in a pre-defined order; the act of filling an LRU cache to
    prime it for eviction scrubs private information in the replacement
    state."  We model this by resetting a set's recency stack to the
    canonical order whenever its last valid line is invalidated.
    """

    def note_set_empty(self, set_index: int) -> None:
        """Restore the canonical fill order for an empty set."""
        self._stacks[set_index] = self._initial_stack
