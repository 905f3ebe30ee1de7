"""Short Weierstrass group law over a prime field, for torsion certificates.

Curves are y^2 = x^3 + a*x + b over F_p with p >= 5 and nonzero discriminant.
Points are (x, y) pairs of integers mod p; None is the point at infinity.
Everything here is brute-force exact arithmetic at desk scale: point orders
are found by repeated addition.  The oracle uses it to check each stored
fixture model when it loads; curve_points and ec_mul are the tests'
references for the group law.
"""

from collections.abc import Iterator
from math import isqrt

Point = tuple[int, int] | None


def discriminant(p: int, a: int, b: int) -> int:
    return (-16 * (4 * a * a * a + 27 * b * b)) % p


def is_on_curve(p: int, a: int, b: int, pt: Point) -> bool:
    if pt is None:
        return True
    x, y = pt
    return (y * y - (x * x * x + a * x + b)) % p == 0


def ec_neg(p: int, pt: Point) -> Point:
    if pt is None:
        return None
    x, y = pt
    return (x, (-y) % p)


def ec_add(p: int, a: int, pt1: Point, pt2: Point) -> Point:
    if pt1 is None:
        return pt2
    if pt2 is None:
        return pt1
    x1, y1 = pt1
    x2, y2 = pt2
    if x1 == x2 and (y1 + y2) % p == 0:
        return None
    if pt1 == pt2:
        slope = (3 * x1 * x1 + a) * pow(2 * y1, -1, p) % p
    else:
        slope = (y2 - y1) * pow(x2 - x1, -1, p) % p
    x3 = (slope * slope - x1 - x2) % p
    y3 = (slope * (x1 - x3) - y1) % p
    return (x3, y3)


def ec_mul(p: int, a: int, pt: Point, n: int) -> Point:
    if n < 0:
        return ec_mul(p, a, ec_neg(p, pt), -n)
    result = None
    addend = pt
    while n:
        if n & 1:
            result = ec_add(p, a, result, addend)
        addend = ec_add(p, a, addend, addend)
        n >>= 1
    return result


def point_order(p: int, a: int, pt: Point) -> int:
    """Order of a point in the group, by repeated addition."""
    order = 1
    current = pt
    while current is not None:
        current = ec_add(p, a, current, pt)
        order += 1
        if order > p + 1 + 2 * isqrt(p) + 2:
            raise RuntimeError("point order exceeded the Hasse bound; bad curve data")
    return order if pt is not None else 1


def curve_points(p: int, a: int, b: int) -> Iterator[tuple[int, int]]:
    """All affine points, by scanning x against a table of squares."""
    roots = {}
    for y in range(p):
        roots.setdefault(y * y % p, []).append(y)
    for x in range(p):
        rhs = (x * x * x + a * x + b) % p
        for y in roots.get(rhs, ()):
            yield (x, y)


def is_prime(n: int) -> bool:
    return n >= 2 and all(n % f for f in range(2, isqrt(n) + 1))

