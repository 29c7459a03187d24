"""Permutations as tuples of point images.

The product convention is "apply left factor first": (a*b)(x) = b(a(x)).
With this convention the right-regular representation g -> (x -> x*g)
is a homomorphism.
"""

from __future__ import annotations

from operator import itemgetter


Perm = tuple


def identity(degree: int) -> Perm:
    return tuple(range(degree))


def is_perm(p) -> bool:
    return sorted(p) == list(range(len(p)))


def reader(points):
    """p -> tuple(p[x] for x in points), read in C by itemgetter(*points)
    for two or more points; itemgetter returns a bare value for one point
    and takes no empty list, so those read in Python."""
    if len(points) > 1:
        return itemgetter(*points)
    return lambda p: tuple([p[x] for x in points])


def pmul(a: Perm, b: Perm) -> Perm:
    """a*b: apply a, then b, which is b read at the points of a."""
    return reader(a)(b)


def pinv(a: Perm) -> Perm:
    out = [0] * len(a)
    for i, x in enumerate(a):
        out[x] = i
    return tuple(out)


def pconj(g: Perm, h: Perm) -> Perm:
    """g^h = h^-1 * g * h."""
    return pmul(pmul(pinv(h), g), h)


def ppow(a: Perm, k: int) -> Perm:
    n = len(a)
    if k < 0:
        return ppow(pinv(a), -k)
    r = identity(n)
    while k:
        if k & 1:
            r = pmul(r, a)
        a = pmul(a, a)
        k >>= 1
    return r


def porder(a: Perm) -> int:
    n = len(a)
    seen = [False] * n
    from math import lcm

    o = 1
    for i in range(n):
        if not seen[i]:
            length = 0
            j = i
            while not seen[j]:
                seen[j] = True
                j = a[j]
                length += 1
            o = lcm(o, length)
    return o
