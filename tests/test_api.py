"""The public names of the package, and the ones the benchmark depends on."""

import beamsquint
from beamsquint import cli, serialize

# Names that bench/run.py and bench/selftest.py reach through the package.
BENCHMARK_NAMES = ("ArrayConfig", "BandConfig", "capacity_threshold_3db",
                   "design_codebook", "assess_feasibility", "coverage_check")


def test_star_import_resolves_every_public_name():
    namespace: dict = {}
    exec("from beamsquint import *", namespace)
    assert [name for name in beamsquint.__all__ if name not in namespace] == []
    assert len(set(beamsquint.__all__)) == len(beamsquint.__all__)


def test_benchmark_names_exist():
    for name in BENCHMARK_NAMES:
        assert name in beamsquint.__all__
        assert callable(getattr(beamsquint, name))
    assert callable(cli.main)
    assert callable(serialize.format_float)
    assert beamsquint.cli is cli and beamsquint.serialize is serialize
