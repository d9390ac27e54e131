"""Caps and budgets.

Every cap guards a cost some input reaches: the defaults keep desk-scale
inputs fast, and callers (or the CLI flags of the subcommands that read them)
may raise them. Which catalog groups a sweep runs is set by its max_order, not
here. The quotient step has no cap of its own: its join poset costs about
|quotient lattice| × parts joins, and its partition search is an exact
cover pruned by the joins of pairs of parts, exponential in the worst case
with no budget."""

from __future__ import annotations

from dataclasses import dataclass, replace


@dataclass(frozen=True)
class Limits:
    generation_cap: int = 10_000      # max order for permutation-generated groups
    subgroup_cap: int = 48            # max |G| for full subgroup enumeration
    lattice_cap: int = 2_000_000      # max number of lattice elements
    iso_node_budget: int = 10_000_000 # atom placements in the isomorphism search
    chain_count_cap: int = 200        # max poset size for direct chain counting

    def with_(self, **kw) -> "Limits":
        return replace(self, **kw)


DEFAULT_LIMITS = Limits()
