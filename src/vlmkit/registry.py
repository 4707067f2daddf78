"""Name-indexed component factories.

Four kinds of component are registered: vision towers, connectors,
language models, and chat templates. Built-ins register themselves at
import time; user code extends the same tables, after which
a registered name is creatable from configuration alone.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List

from .errors import RegistryError

KINDS = ("vision", "connector", "llm", "template")


class ComponentRegistry:
    def __init__(self):
        self._tables: Dict[str, Dict[str, Callable]] = {kind: {} for kind in KINDS}

    def _table(self, kind: str) -> Dict[str, Callable]:
        if kind not in self._tables:
            raise RegistryError(f"unknown component kind '{kind}'; kinds: {', '.join(KINDS)}")
        return self._tables[kind]

    def register(self, kind: str, name: str, factory: Callable):
        if not name:
            raise RegistryError("component name must be non-empty")
        table = self._table(kind)
        if name in table:
            raise RegistryError(f"{kind} component '{name}' is already registered")
        table[name] = factory

    def require(self, kind: str, name: str) -> Callable:
        """The factory registered under `name`; unknown names list the candidates."""
        table = self._table(kind)
        if not isinstance(name, str) or name not in table:
            available = ", ".join(sorted(table)) or "<none>"
            raise RegistryError(f"unknown {kind} component '{name}'; available: {available}")
        return table[name]

    def create(self, kind: str, name: str, *args: Any, **kwargs: Any):
        return self.require(kind, name)(*args, **kwargs)

    def names(self, kind: str) -> List[str]:
        return sorted(self._table(kind))


registry = ComponentRegistry()
