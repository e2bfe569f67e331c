"""Differential verification: scenario corpus x implementation matrix,
golden trace digests, and metamorphic oracles with automatic shrinking.

Entry points:

- ``python -m repro verify`` — everything (matrix + golden +
  metamorphic + paper claims); ``--matrix`` / ``--metamorphic`` to
  select one layer, ``--refresh-golden`` to move the pins deliberately.
- :func:`run_matrix` — corpus x ``REPRO_SCHEDULER`` choices with
  first-diverging-event reporting.
- :func:`run_all_relations` — the metamorphic relations, shrinking any
  failure to a minimal JSON reproducer.
"""

from repro.verify.differential import (
    COMBOS,
    Divergence,
    DivergenceError,
    check_golden,
    load_golden,
    locate_divergence,
    refresh_golden,
    run_matrix,
    run_matrix_trial,
)
from repro.verify.metamorphic import (
    RELATIONS,
    Relation,
    RelationResult,
    register_relation,
    run_all_relations,
    run_relation,
)
from repro.verify.scenarios import (
    SCENARIOS,
    corpus,
    register,
    run_verify_spec,
    scenario_spec,
)

__all__ = [
    "COMBOS",
    "Divergence",
    "DivergenceError",
    "RELATIONS",
    "Relation",
    "RelationResult",
    "SCENARIOS",
    "check_golden",
    "corpus",
    "load_golden",
    "locate_divergence",
    "refresh_golden",
    "register",
    "register_relation",
    "run_all_relations",
    "run_matrix",
    "run_matrix_trial",
    "run_relation",
    "run_verify_spec",
    "scenario_spec",
]
