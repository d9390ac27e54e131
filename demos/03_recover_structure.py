"""Strip a subrack lattice down to its bare order relation, then read group
structure back off it.

Everything here works on the abstract lattice alone: the labels are
shuffled away first, and group-side oracles only appear at the end to
confirm what the lattice reported.

Run as: python3 demos/03_recover_structure.py
"""

from rackle import (
    conjugacy_classes,
    enumerate_subrack_lattice,
    group_rack,
    max_normal_abelian,
    maximal_boolean_elements,
    recover_classes,
    to_abstract,
)
from rackle.catalog import named_group
from rackle.groups import maximal_abelian_subgroups, maximal_normal_abelian_oracle

for name in ("S3", "D4", "A4"):
    g = named_group(name)
    lat = enumerate_subrack_lattice(group_rack(g))
    # seed shuffles both element order and atom positions: nothing
    # downstream can lean on the construction order
    ab = to_abstract(lat, seed=42)

    print(f"== {name}: {ab.size} elements, {ab.n_atoms} atoms")

    # conjugacy class sizes fall out of the coatoms
    blocks = recover_classes(ab)
    got = sorted(blocks.sizes())
    want = sorted(conjugacy_classes(g).sizes())
    print(f"   class sizes from coatoms: {got} (oracle {want})")

    # maximal Boolean intervals correspond to maximal abelian subgroups
    mb = maximal_boolean_elements(ab)
    got_sizes = sorted(len(ab.atoms_below(x)) for x in mb)
    want_sizes = sorted(len(h) for h in maximal_abelian_subgroups(g))
    print(f"   maximal Boolean sizes: {got_sizes} (oracle {want_sizes})")

    # the class blocks below a maximal Boolean element pick out the
    # maximal normal abelian subgroups
    mna = max_normal_abelian(ab, blocks)
    got_sizes = sorted(len(ab.atoms_below(x)) for x in mna)
    want_sizes = sorted(len(h) for h in maximal_normal_abelian_oracle(g))
    print(f"   maximal normal abelian sizes: {got_sizes} (oracle {want_sizes})")
    print()
