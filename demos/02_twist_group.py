"""Tour of the twist group of a rational elliptic surface with section.

Over a rational base the group of twists is a direct sum of local torsion
groups: (Q/Z)^2 at points with smooth fiber, Q/Z at I(n) fibers, nothing at
additive fibers.  Orders, multiples and inverses are all exact.
"""

from ellfm import (
    DEFAULT_ENTRY,
    AdditiveFiberError,
    BasePoint,
    QZ,
    QZPair,
    catalog_get,
    jacobian,
    relative_jacobian_power,
    twist,
    twist_class,
)

# Plain Q/Z arithmetic: reduced fractions mod 1.
a = QZ(3, 11)
b = QZ(9, 11)
print(f"{a} + {b} = {a + b}")
print(f"order of {QZ(4, 6)} (reduces to {QZ(4, 6)}): {QZ(4, 6).order}")
print(f"5 * {a} = {5 * a}")
print()

base = catalog_get(DEFAULT_ENTRY).surface

# A class of order 11 supported at one smooth point.
xi = twist_class(base, [(BasePoint(2), QZPair(QZ(1, 11), QZ()))])
print(f"order of xi: {xi.order}")
print(f"order of 11 * xi: {(11 * xi).order}  (annihilated)")
print(f"xi + (-xi) is zero: {not (xi + (-xi))}")
for i in range(1, 11):
    assert (i * xi).order == 11
print("every nonzero multiple of xi again has order 11 (prime order)")
print()

# Supports at several points combine by lcm.
mixed = twist_class(
    base,
    [
        (BasePoint(2), QZPair(QZ(1, 4), QZ(1, 6))),
        (BasePoint(3), QZPair(QZ(1, 9), QZ())),
    ],
)
print(f"local orders (lcm(4,6), 9) -> class order {mixed.order}")
print()

# The local group at an additive fiber is trivial: no datum may sit there.
try:
    twist_class(base, [(BasePoint(0), QZPair(QZ(1, 2), QZ()))])
except AdditiveFiberError as exc:
    print(f"rejected as expected: {exc}")
print()

# Twisting realizes a class geometrically; the Jacobian construction undoes it.
surface_11 = twist(base, xi)
print(f"twisted surface: {surface_11.name}")
print(f"jacobian returns the base: {jacobian(surface_11) == base}")

# Relative Jacobian powers walk through the multiples of xi.
j3 = relative_jacobian_power(surface_11, 3)
print(f"third power has the same fiber data: {j3.surface == surface_11.surface}")
print(f"...but a different twist class: {j3.twist_class != surface_11.twist_class}")
print(f"power 0 recovers the section-bearing base: {relative_jacobian_power(surface_11, 0).surface == base}")
