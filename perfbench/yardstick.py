"""The yardstick: a fixed piece of exact arithmetic whose wall time gives
the machine's speed at the moment (see README, "The yardstick")."""

from fractions import Fraction
from time import perf_counter

# Iterations, about 5 to 10 ms of `Fraction` arithmetic on the machine of
# the README's figures.
SIZE = 1200


def yardstick() -> float:
    acc: dict[int, Fraction] = {}
    start = perf_counter()
    for i in range(1, SIZE):
        k = i % 23
        acc[k] = acc.get(k, 0) + Fraction(i, i + 7) * Fraction(3, k + 1)
    return perf_counter() - start
