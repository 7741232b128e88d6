"""Local volumes of T-invariant divisors on a toric modification.

Walks the three-dimensional golden example: a pointed cone refined by one
interior and one face-interior ray.  The divisor family 2*D - t*E has local
volume t^3 while the difference body stays a simplex, then jumps to a
different polynomial once a facet of the cone cuts in; the exact values
certify that the cube root of the volume fails to be convex in t.
"""

from fractions import Fraction as F

from locvol import (
    PointedCone,
    ToricDatum,
    ToricDivisor,
    compare_cbrt_sum,
    effectivity_vanishing_check,
    fujita_sequence,
    h1_sequence,
    local_volume_toric,
)

sigma = PointedCone([(0, 1, 0), (0, 0, 1), (1, 0, -2)])
datum = ToricDatum(sigma, [(0, 1, 0), (0, 0, 1), (1, 0, -2), (1, 1, 1), (1, 0, 0)])

print("ray classification:")
for ray, kind in zip(datum.rays, datum.kinds):
    print(f"  {ray}: {kind}")


def family(t):
    """2 on the ray (1,0,-2), -t on the interior ray (1,1,1)."""
    return ToricDivisor(datum, (F(0), F(0), F(2), -F(t), F(0)))


print("\nvol_x(2D - tE), exact:")
for t in (F(1, 4), F(1, 2), F(1), F(5, 4), F(3, 2)):
    print(f"  t = {str(t):>4}: {local_volume_toric(family(t))}")

print("\nlattice counts converging to vol_x(2D - (3/2)E) = 79/24:")
for m, count, normalized in h1_sequence(family(F(3, 2)), 16):
    print(f"  m = {m:2d}: count = {count:5d}, normalized = {normalized} "
          f"~ {float(normalized):.4f}")

print("\nFujita approximation through pushforward-ideal multiplicities (2D - E):")
for p, mult, normalized in fujita_sequence(family(1), 6):
    print(f"  p = {p}: mult = {mult}, mult/p^3 = {normalized}")

print("\nvanishing over the fixed point is exactly effectivity:")
for c in (-1, 0, 1):
    coeffs = [F(0)] * 5
    coeffs[3] = F(c)
    report = effectivity_vanishing_check(ToricDivisor(datum, tuple(coeffs)))
    print(f"  coefficient {c:+d} on the interior ray: {report}")

v_half = local_volume_toric(family(F(1, 2)))
v_three_half = local_volume_toric(family(F(3, 2)))
v_one = local_volume_toric(family(1))
sign = compare_cbrt_sum(v_half, v_three_half, 8 * v_one)
print(f"\ncube-root convexity test: vol(1/2)^(1/3) + vol(3/2)^(1/3) "
      f"{'<' if sign < 0 else '>='} 2*vol(1)^(1/3)  (certified sign {sign})")
