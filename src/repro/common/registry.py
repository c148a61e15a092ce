"""Fixed tables of named choices.

A request names its scheduling policy, router, admission policy, client
model, arrival profile or attack scenario by string.  Each of those
kinds is one :class:`Registry`, declared once as a module-level literal
beside the values it holds, so every process that imports the module
holds the same table: there is no way to add a row at run time.
"""

from __future__ import annotations

from typing import Dict, Generic, Iterator, Tuple, TypeVar

from repro.common.errors import ConfigurationError

T = TypeVar("T")


class Registry(Generic[T]):
    """Names in declaration order, each with a value and a one-line description.

    Args:
        kind: What the names choose, as the unknown-name error says it
            (``"scheduling policy"``).
        rows: ``(name, value, description)`` rows, in presentation order.
            A name may appear in one row only: a second row would
            silently replace the first one's value and description.
    """

    def __init__(self, kind: str, rows: Tuple[Tuple[str, T, str], ...]) -> None:
        self.kind = kind
        self._values: Dict[str, T] = {name: value for name, value, _ in rows}
        if len(self._values) != len(rows):
            seen = set()
            for name, _, _ in rows:
                if name in seen:
                    raise ConfigurationError(f"{kind} {name!r} declared twice")
                seen.add(name)
        #: Name -> one-line description, in declaration order.
        self.descriptions: Dict[str, str] = {name: description for name, _, description in rows}

    def __iter__(self) -> Iterator[str]:
        return iter(self._values)

    def __getitem__(self, name: str) -> T:
        """The value named ``name``; an unknown name lists the valid ones."""
        try:
            return self._values[name]
        except KeyError:
            raise ConfigurationError(
                f"unknown {self.kind} {name!r} (expected one of: {', '.join(self._values)})"
            ) from None
