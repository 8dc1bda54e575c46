"""Finite orbits of the full shift: counts by size, and who survives a draw.

Orbit counts come from Mobius inversion over the sublattice poset (in d=1
this is aperiodic necklace counting).  Sampling one allowed-window set then
shows which small orbits survive; the survival probability of an orbit of
size j is alpha^j once n is at least twice the orbit size.
"""

from sftlab.analysis import periodic_orbits_present
from sftlab.ensemble import EnsembleParams, sample
from sftlab.orbits import count_orbits, enumerate_orbits, sublattices

print("Orbit counts by size (d=1, binary):")
print("  ", [count_orbits(2, 1, j).count for j in range(1, 13)])
print("Orbit counts by size (d=2, binary):")
print("  ", [count_orbits(2, 2, j).count for j in range(1, 7)])
print("Sublattices of Z^2 by index (divisor sums):")
print("  ", [len(sublattices(2, j)) for j in range(1, 10)])
print()

params = EnsembleParams(alphabet=2, d=1, n=8, alpha=0.55, seed=3)
omega = sample(params, trial=0)
present = periodic_orbits_present(omega, max_size=6)
print(f"one draw at alpha={params.alpha}: {int(omega.bits.sum())}/{omega.n_windows} "
      f"windows retained")
print(f"allowed orbits of size <= 6: {len(present)} of "
      f"{len(enumerate_orbits(2, 1, 6))}")
for o in present[:8]:
    print(f"  size {o.size}: symbols {o.symbols}")
