"""Registry mapping query kinds to the mechanisms that can answer them.

The accuracy translator (Section 4, Algorithm 1 line 4) starts from "the set
of mechanisms applicable to the query's type".  The registry below is that
set; :func:`default_registry` wires up the paper's suite:

* WCQ: Laplace mechanism (WCQ-LM) and strategy mechanism (WCQ-SM with H2),
* ICQ: Laplace (ICQ-LM), strategy (ICQ-SM) and multi-poking (ICQ-MPM),
* TCQ: Laplace (TCQ-LM) and Laplace top-k (TCQ-LTM).

Callers can register additional mechanisms (e.g. a different strategy matrix)
without touching the engine.
"""

from __future__ import annotations

import itertools
from typing import Iterable, Iterator

from repro.core.exceptions import MechanismError
from repro.mechanisms.base import Mechanism
from repro.mechanisms.laplace import LaplaceMechanism
from repro.mechanisms.multi_poking import MultiPokingMechanism
from repro.mechanisms.noisy_topk import LaplaceTopKMechanism
from repro.mechanisms.strategy_mechanism import (
    IcebergStrategyMechanism,
    StrategyMechanism,
)
from repro.queries.query import Query, QueryKind

__all__ = ["MechanismRegistry", "default_registry"]


class MechanismRegistry:
    """An ordered collection of mechanisms, queried by query kind."""

    def __init__(self, mechanisms: Iterable[Mechanism] = ()) -> None:
        self._mechanisms: list[Mechanism] = []
        self._generations = itertools.count()
        self._generation = next(self._generations)
        for mechanism in mechanisms:
            self.register(mechanism)

    @property
    def generation(self) -> int:
        """A number that changes on every ``register`` and ``unregister``.

        Memos of what the registry answered (the translator's tiers) key on
        it, so a change of the mechanism set is never served a stale list.
        """
        return self._generation

    def register(self, mechanism: Mechanism) -> None:
        """Add a mechanism; names must be unique within the registry."""
        if any(existing.name == mechanism.name for existing in self._mechanisms):
            raise MechanismError(f"a mechanism named {mechanism.name!r} is already registered")
        self._mechanisms.append(mechanism)
        self._generation = next(self._generations)

    def unregister(self, name: str) -> None:
        before = len(self._mechanisms)
        self._mechanisms = [m for m in self._mechanisms if m.name != name]
        if len(self._mechanisms) == before:
            raise MechanismError(f"no mechanism named {name!r} is registered")
        self._generation = next(self._generations)

    def __iter__(self) -> Iterator[Mechanism]:
        return iter(self._mechanisms)

    def __len__(self) -> int:
        return len(self._mechanisms)

    def __contains__(self, name: object) -> bool:
        return any(m.name == name for m in self._mechanisms)

    def get(self, name: str) -> Mechanism:
        for mechanism in self._mechanisms:
            if mechanism.name == name:
                return mechanism
        raise MechanismError(f"no mechanism named {name!r} is registered")

    def for_query(self, query: Query) -> list[Mechanism]:
        """All registered mechanisms applicable to the query's kind."""
        return [m for m in self._mechanisms if m.supports(query)]

    def for_kind(self, kind: QueryKind) -> list[Mechanism]:
        return [m for m in self._mechanisms if kind in m.supported_kinds]


def default_registry(
    *,
    mc_samples: int = 10_000,
    n_pokes: int = 10,
) -> MechanismRegistry:
    """The paper's mechanism suite with the default parameters.

    Parameters
    ----------
    mc_samples:
        Monte-Carlo sample size used by the strategy mechanisms' translate
        (the paper uses 10,000; benchmarks may lower it for speed).
    n_pokes:
        Maximum number of pokes ``m`` for the multi-poking mechanism.
    """
    return MechanismRegistry(
        [
            LaplaceMechanism(name="WCQ-LM", kinds=frozenset({QueryKind.WCQ})),
            StrategyMechanism(mc_samples=mc_samples, name="WCQ-SM"),
            LaplaceMechanism(name="ICQ-LM", kinds=frozenset({QueryKind.ICQ})),
            IcebergStrategyMechanism(mc_samples=mc_samples, name="ICQ-SM"),
            MultiPokingMechanism(n_pokes=n_pokes, name="ICQ-MPM"),
            LaplaceMechanism(name="TCQ-LM", kinds=frozenset({QueryKind.TCQ})),
            LaplaceTopKMechanism(name="TCQ-LTM"),
        ]
    )
