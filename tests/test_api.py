"""The public names of the package, the ones the benchmark depends on, and
what importing the command line loads."""

import subprocess
import sys
from pathlib import Path

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

# The modules besides the package's own and json's that `import
# beamsquint.cli` may load beyond those of `import numpy`.  The benchmark's
# setup_s is that import's time, so a new module at load shows there.
CLI_IMPORTS = {"__future__", "_json", "argparse", "copy", "dataclasses", "gettext"}


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


def test_cli_import_loads_no_new_module():
    src = Path(beamsquint.__file__).resolve().parent.parent
    probe = (f"import sys; sys.path.insert(0, {str(src)!r}); import numpy; "
             "before = set(sys.modules); import beamsquint.cli; "
             "print(*sorted(set(sys.modules) - before))")
    loaded = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                            check=True, timeout=60).stdout.split()
    assert "beamsquint.cli" in loaded
    assert [m for m in loaded if m not in CLI_IMPORTS
            and m.split(".")[0] not in ("beamsquint", "json")] == []
