"""Shared pytest configuration: the hypothesis settings profiles.

``dev`` is the default and keeps the tier-1 run inside its time budget;
``ci`` explores the expensive properties further and runs as a separate
step::

    python -m pytest -q tests/test_verify_differential.py --hypothesis-profile=ci

Properties that pin their own ``max_examples`` ignore the profiles;
the differential verify properties scale theirs from the active one.
"""

from hypothesis import settings

#: 100 examples is hypothesis' own default, so the cheap properties
#: that do not pin their own budget keep their usual depth.
settings.register_profile("dev", max_examples=100)
settings.register_profile("ci", max_examples=600)


def pytest_configure(config):
    if not config.getoption("--hypothesis-profile", default=None):
        settings.load_profile("dev")
