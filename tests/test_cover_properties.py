"""Properties of the guard rewrite's two-level covers.

:func:`repro.automata.simplify.minimal_cover` re-covers each branch of
a state's cascade from truth tables (ints of ``2**width`` bits).  For
any onset ``on`` and don't-care set ``dc`` over 0-10 variables its
cover must be

* *sound*: ``on <= cover <= on | dc``;
* *prime*: dropping any literal of any cube leaves ``on | dc``;
* *irredundant*: dropping any cube uncovers some onset minterm;
* *deterministic*: the same input gives the same cube tuple.

The expand and irredundant passes are also checked on their own, from
the onset's minterm cover, where the irredundant pass has real work.

The reference truth table of a cube is enumerated minterm by minterm
here, independently of the module's mask-and-shift algebra.  The
example budget follows the active hypothesis profile
(``tests/conftest.py``): 100 examples under ``dev``, 600 under ``ci``.
"""

from dataclasses import dataclass

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.automata.simplify import (expand_cubes, irredundant_cover,
                                     minimal_cover)

PROPERTY = settings(max_examples=settings.default.max_examples,
                    deadline=None)


@dataclass(frozen=True)
class Interval:
    width: int
    onset: int
    dont_care: int


def _interval(width: int):
    table = st.integers(0, (1 << (1 << width)) - 1)
    return st.builds(Interval, st.just(width), table, table)


intervals = st.integers(0, 10).flatmap(_interval)


def reference_table(width: int, cube) -> int:
    """The minterms of ``width`` variables on which ``cube`` holds."""
    fixed = sum(1 << var for var, _ in cube)
    value = sum(1 << var for var, polarity in cube if polarity)
    return sum(1 << minterm for minterm in range(1 << width)
               if minterm & fixed == value)


def assert_cover_laws(width: int, onset: int, upper: int, cover) -> None:
    tables = [reference_table(width, cube) for cube in cover]
    table = 0
    for cube_table in tables:
        table |= cube_table
    assert not onset & ~table, "cover misses an onset minterm"
    assert not table & ~upper, "cover leaves on | dc"
    for cube in cover:
        assert list(cube) == sorted(set(cube))
        for literal in cube:
            shorter = tuple(lit for lit in cube if lit != literal)
            assert reference_table(width, shorter) & ~upper, \
                f"{cube} is not prime: {literal} can go"
    for index, cube in enumerate(cover):
        rest = 0
        for other, other_table in enumerate(tables):
            if other != index:
                rest |= other_table
        assert onset & ~rest, f"{cube} is redundant"


@PROPERTY
@given(intervals)
def test_minimal_cover_is_sound_prime_irredundant_and_deterministic(
        interval):
    width, onset = interval.width, interval.onset
    cover = minimal_cover(width, onset, interval.dont_care)
    assert_cover_laws(width, onset, onset | interval.dont_care, cover)
    assert minimal_cover(width, onset, interval.dont_care) == cover


@PROPERTY
@given(intervals)
def test_expand_then_irredundant_reduces_the_minterm_cover(interval):
    """ESPRESSO's two passes from the onset's own minterms.

    ISOP output rarely leaves the irredundant pass anything to drop;
    starting from one cube per onset minterm, expansion yields many
    overlapping primes and the pass has to do real work.
    """
    width, onset = interval.width, interval.onset
    upper = onset | interval.dont_care
    minterms = [tuple((var, bool(minterm >> var & 1))
                      for var in range(width))
                for minterm in range(1 << width) if onset >> minterm & 1]
    cover = irredundant_cover(width, expand_cubes(width, minterms, upper),
                              onset)
    assert_cover_laws(width, onset, upper, cover)
