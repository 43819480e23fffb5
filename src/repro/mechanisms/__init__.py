"""Differentially private mechanisms and their accuracy-to-privacy translations.

APEx supports a suite of mechanisms per query type (Section 5 of the paper);
each exposes the two functions of the paper's interface:

* ``translate(query, accuracy) -> (epsilon_lower, epsilon_upper)`` -- the
  privacy loss required to meet the ``(alpha, beta)`` accuracy bound, and
* ``run(query, accuracy, table) -> (answer, actual_epsilon)`` -- execute the
  mechanism and report the privacy loss actually incurred (which can be below
  the upper bound for data-dependent mechanisms such as ICQ-MPM).  ``run``
  is written once in the base class as pin, translate and ``release``;
  each mechanism implements ``release``, which the engine calls directly on
  the translation it admitted.

| Mechanism | Query types | Paper reference |
|---|---|---|
| :class:`~repro.mechanisms.laplace.LaplaceMechanism` (LM) | WCQ, ICQ, TCQ | Algorithm 2 |
| :class:`~repro.mechanisms.strategy_mechanism.StrategyMechanism` (WCQ-SM) | WCQ | Algorithm 3 |
| :class:`~repro.mechanisms.strategy_mechanism.IcebergStrategyMechanism` (ICQ-SM) | ICQ | Section 5.3.1 |
| :class:`~repro.mechanisms.multi_poking.MultiPokingMechanism` (ICQ-MPM) | ICQ | Algorithm 4 |
| :class:`~repro.mechanisms.noisy_topk.LaplaceTopKMechanism` (TCQ-LTM) | TCQ | Algorithm 5 |
"""

from repro.mechanisms.base import (
    Mechanism,
    MechanismResult,
    TranslationResult,
)
from repro.mechanisms.noise import (
    laplace_noise,
    laplace_tail_bound,
    laplace_scale_for_tail,
    relax_laplace_noise,
)
from repro.mechanisms.laplace import LaplaceMechanism
from repro.mechanisms.strategies import (
    StrategyMatrix,
    hierarchical_strategy,
    identity_strategy,
    workload_as_strategy,
)
from repro.mechanisms.strategy_mechanism import (
    IcebergStrategyMechanism,
    StrategyMechanism,
)
from repro.mechanisms.multi_poking import MultiPokingMechanism
from repro.mechanisms.noisy_topk import LaplaceTopKMechanism
from repro.mechanisms.registry import MechanismRegistry, default_registry

__all__ = [
    "Mechanism",
    "MechanismResult",
    "TranslationResult",
    "laplace_noise",
    "laplace_tail_bound",
    "laplace_scale_for_tail",
    "relax_laplace_noise",
    "LaplaceMechanism",
    "StrategyMatrix",
    "identity_strategy",
    "hierarchical_strategy",
    "workload_as_strategy",
    "StrategyMechanism",
    "IcebergStrategyMechanism",
    "MultiPokingMechanism",
    "LaplaceTopKMechanism",
    "MechanismRegistry",
    "default_registry",
]
