"""Enumerate every subrack of a conjugation rack into its lattice.

The enumerator is Close-by-One with popcount-then-lex output, so it never
touches the 2^n subsets it can skip; a brute-force subset scan cross-checks
the small cases here.

Run as: python3 demos/02_enumerate_lattice.py
"""

import tempfile

from rackle import enumerate_subrack_lattice, group_rack, load_lattice, save_lattice
from rackle.catalog import named_group
from rackle.closedsets import mask_of
from rackle.lattice import brute_force_closed_masks
from rackle.racks import rack_closure

# Abelian groups first: conjugation is trivial, every subset is a subrack,
# and the lattice is the full power set.
for name in ("Z4", "Z6"):
    g = named_group(name)
    lat = enumerate_subrack_lattice(group_rack(g))
    print(f"R({name}): {lat.size} subracks = 2^{g.order}")

# The smallest nonabelian group: 18 subracks instead of 64.
s3 = named_group("S3")
rack = group_rack(s3)
lat = enumerate_subrack_lattice(rack)
brute = brute_force_closed_masks(rack)
print(f"\nR(S3): {lat.size} subracks "
      f"(brute force agrees: {lat.elements == brute})")

print(f"atoms: {len(lat.atoms)} (the singletons)")
print(f"coatoms: {len(lat.proper_maximal)} (one per conjugacy class)")

by_size = {}
for mask in lat.elements:
    by_size[mask.bit_count()] = by_size.get(mask.bit_count(), 0) + 1
print("subracks by size:", dict(sorted(by_size.items())))

# Meets are intersections; joins close up the union. The join of two
# singleton transpositions is the subrack they generate, which pulls in the
# third one.
ts = [x for x in range(6) if s3.element_order(x) == 2]
joined = mask_of(rack_closure(rack, ts[:2]))
print(f"\njoin of {{{ts[0]}}} and {{{ts[1]}}} has members "
      f"{bin(joined)} (all three transpositions)")

# Lattices round-trip through a plain text format.
with tempfile.NamedTemporaryFile(mode="w", suffix=".lat", delete=False) as fh:
    path = fh.name
save_lattice(path, lat)
again = load_lattice(path)
print(f"\nsaved and reloaded: {again.size} elements, "
      f"identical: {again.elements == lat.elements}")
