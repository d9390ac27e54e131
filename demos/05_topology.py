"""The Mobius number of a subrack lattice, and the sphere it hides.

For a group rack, mu(bottom, top) is (-1)^c where c counts conjugacy
classes: the order complex of the proper part behaves like a sphere. The
chain-counting Euler characteristic confirms the Mobius value on every
lattice small enough to sweep.

Run as: python3 demos/05_topology.py
"""

from rackle import (
    conjugacy_classes,
    enumerate_subrack_lattice,
    group_rack,
    mobius_bottom_top,
    reduced_euler_characteristic,
    to_abstract,
)
from rackle.catalog import named_group
from rackle.config import DEFAULT_LIMITS

print(f"{'group':>6} {'classes':>8} {'mu':>4} {'chi':>5}  verdict")
for name in ("Z2", "Z4", "S3", "D4", "Q8", "A4", "D5", "D6", "S4"):
    g = named_group(name)
    lat = enumerate_subrack_lattice(group_rack(g))
    ab = to_abstract(lat)
    c = conjugacy_classes(g).count
    mu = mobius_bottom_top(ab)

    if ab.size - 2 <= DEFAULT_LIMITS.chain_count_cap:
        chi = reduced_euler_characteristic(ab)
        chi_text = str(chi)
    else:
        chi, chi_text = None, "-"

    ok = mu == (-1) ** c and (chi is None or chi == mu)
    print(f"{name:>6} {c:>8} {mu:>4} {chi_text:>5}  "
          f"{'sphere sign confirmed' if ok else 'MISMATCH'}")

# The sign flips with the class count, so isomorphic lattices always
# agree on it: one more invariant the lattice remembers.
