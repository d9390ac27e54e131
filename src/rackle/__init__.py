"""Subrack lattices of finite-group conjugation racks, and what they remember.

Build a finite group from a table or permutation generators, take its
conjugation rack, enumerate every subrack into a lattice, strip the labels,
and recover solvability and derived length from the bare order relation —
with independent group-theoretic oracles checking every step.
"""

from .config import DEFAULT_LIMITS, Limits
from .errors import (
    BadIndex,
    BadPartition,
    FormatError,
    IsomorphismTimeout,
    MissingElement,
    NoPartition,
    NotAGroup,
    NotGroupLattice,
    NotNormal,
    NotPrime,
    RackleError,
    TooLarge,
    UnknownGroup,
)
from .groups import (
    NOT_SOLVABLE,
    ConjClassPartition,
    FiniteGroup,
    GroupInvariants,
    conjugacy_classes,
    derived_length_oracle,
    direct_product,
    group_from_cayley_table,
    group_from_permutation_generators,
    group_invariants,
    load_group,
    maximal_abelian_subgroups,
    maximal_normal_abelian_oracle,
    normal_subgroups,
    quotient,
    subgroups,
)
from .racks import (
    ConjugationRack,
    conjugacy_class_rack,
    group_rack,
    load_rack,
    p_power_rack,
    rack_closure,
    verify_rack_axioms,
)
from .lattice import (
    AbstractLattice,
    SubrackLattice,
    are_isomorphic,
    brute_force_closed_masks,
    check_isomorphism,
    enumerate_subrack_lattice,
    load_lattice,
    save_lattice,
    to_abstract,
)
from .reconstruct import (
    AtomClassPartition,
    HypotheticalCosetPartition,
    ReconstructionContext,
    coset_partition_of,
    find_coset_partition,
    is_hypothetical_coset_partition,
    join_poset,
    lattice_derived_length,
    matching_bijection_oracle,
    max_normal_abelian,
    maximal_boolean_elements,
    partition_bijection,
    recover_classes,
)
from .topology import (
    mobius_bottom_top,
    proper_part,
    reduced_euler_characteristic,
    sphere_check,
)
from .catalog import (
    alternating,
    catalog_entries,
    cyclic,
    dicyclic,
    dihedral,
    named_group,
    sl23,
    stall_lattice,
    symmetric,
)
from .scan import ScanReport, full_verification, pairs_scan, verify_group

__version__ = "0.1.0"
