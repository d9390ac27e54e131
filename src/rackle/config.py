"""Caps and budgets.

Every cap guards a cost some input reaches: the defaults keep desk-scale
inputs fast, and callers (or the CLI flags of the subcommands that read them)
may raise them. Which catalog groups a sweep runs is set by its max_order, not
here. The quotient step has no cap of its own: its join poset costs about
|quotient lattice| × parts joins, and its partition search is pruned by C3
on pairs of parts, which is not always enough: lattice-only derived length
of Z2×SL(2,3) takes 8.5–12 s unshuffled (six runs) and 0.3–0.7 s at shuffle
seeds 1 and 7 (2-CPU Xeon VM, Python 3.11)."""

from __future__ import annotations

from dataclasses import dataclass, replace


@dataclass(frozen=True)
class Limits:
    generation_cap: int = 10_000      # max order for permutation-generated groups
    subgroup_cap: int = 48            # max |G| for full subgroup enumeration
    lattice_cap: int = 2_000_000      # max number of lattice elements
    iso_node_budget: int = 10_000_000 # atom placements in the isomorphism search
    tuple_budget: int = 10_000        # exhaustive representative-tuple checks up to here
    sample_count: int = 1_000         # seeded samples when over tuple_budget
    chain_count_cap: int = 200        # max poset size for direct chain counting

    def with_(self, **kw) -> "Limits":
        return replace(self, **kw)


DEFAULT_LIMITS = Limits()
