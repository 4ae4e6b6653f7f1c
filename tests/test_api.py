"""The public names of the package, and the ones the benchmark depends on."""

import beamsquint
from beamsquint import array_model, capacity, cli, codebook, serialize

# Names that bench/run.py and bench/selftest.py reach through the package.
BENCHMARK_NAMES = ("ArrayConfig", "BandConfig", "capacity_threshold_3db",
                   "design_codebook", "assess_feasibility", "coverage_check")

# Module functions that bench/tracing.py wraps by name; a renamed one would
# leave its traced metrics reading 0 without an error.
TRACED_NAMES = {
    codebook: ("solve_right_edge", "solve_focus_from_left", "design_codebook",
               "coverage_check", "estimate_bsup", "improvement_max",
               "improvement_ratio"),
    capacity: ("capacity_bs",),
    array_model: ("gain_mag",),
}


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


def test_traced_names_exist():
    for module, names in TRACED_NAMES.items():
        for name in names:
            assert callable(getattr(module, name, None)), f"{module.__name__}.{name}"
