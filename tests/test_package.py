import ast
import os
import subprocess
import sys
import types
from pathlib import Path

import homsim
import homsim.config
import homsim.model
import homsim.specfun

SRC = Path(__file__).resolve().parents[1] / "src" / "homsim"

# the quadrature oracle chain lives in tests/oracles_quadrature.py
MOVED_TO_TESTS = (
    "PhotonWavePacket", "wavepacket_amplitude", "_g2_tl_raw", "g2_tl", "delta_distribution",
    "DegenerateJitterError", "_t0_support_bounds", "p_inhom_quadrature",
    "visibility_inhom_quadrature", "visibility_inhom_closed",
    "QuadratureSpec", "QuadratureError", "integrate_1d", "_panel",
    "_KRONROD_NODES", "_KRONROD_WEIGHTS", "_GAUSS_WEIGHTS",
)

# names in homsim.__all__ that no module of the package reads, and why; a name
# leaves this table once the package reads it, and new ones do not join it
UNREAD_PUBLIC_NAMES = {
    "simulate_hbt_purity": "benchmark entry point; waits on an HBT config reader",
    "hbt_analytic_g2": "waits on an HBT config reader",
    "multi_photon_prob_for_g2": "waits on an HBT config reader",
    "sigma_from_coherence": "waits on a coherence-time config reader",
    "g2_hom_peak": "waits on one pair model with pure dephasing",
    "central_peak_area_hom": "waits on one pair model with pure dephasing",
    "visibility_hom": "waits on one pair model with pure dephasing",
    "sample_pair_events": "benchmark entry point",
    "p_inhom": "subject of an acceptance oracle",
    "coherence_integral": "subject of an acceptance oracle",
}


class TestPublicSurface:
    def test_all_names_resolve_and_none_is_a_module(self):
        for name in homsim.__all__:
            assert not isinstance(getattr(homsim, name), types.ModuleType), name

    def test_every_public_name_is_read(self):
        # a module reads a name where it loads it, bare or as an attribute;
        # __init__ only re-exports, so it does not count
        read = set()
        for path in SRC.glob("*.py"):
            if path.name != "__init__.py":
                for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                    if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                        read.add(node.id)
                    elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                        read.add(node.attr)
        public, excused = set(homsim.__all__), set(UNREAD_PUBLIC_NAMES)
        unread = sorted(public - read - excused)
        assert not unread, f"public names no module reads: {unread}"
        stale = sorted((excused & read) | (excused - public))
        assert not stale, f"exceptions that are read or no longer public: {stale}"

    def test_quadrature_oracles_are_not_in_the_package(self):
        for module in (homsim, homsim.model, homsim.specfun):
            present = [name for name in MOVED_TO_TESTS if hasattr(module, name)]
            assert not present, f"{module.__name__} has {present}"

    def test_package_does_not_read_the_test_oracles(self):
        for path in SRC.rglob("*"):
            if path.is_file() and "__pycache__" not in path.parts:
                assert "oracles_quadrature" not in path.read_text(encoding="utf-8"), path

    def test_package_does_not_call_math_erfc(self):
        # specfun._erfcx_array is the one error-function evaluator:
        # exp(x*x) * math.erfc(x) overflows where it does not, and a second
        # one would drift
        for path in SRC.rglob("*.py"):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                assert not (isinstance(node, ast.Attribute) and node.attr == "erfc"
                            and isinstance(node.value, ast.Name) and node.value.id == "math"), path
                assert not (isinstance(node, ast.ImportFrom) and node.module == "math"
                            and any(a.name == "erfc" for a in node.names)), path


class TestConfigSchemaDocs:
    def test_readme_schema_table_lists_exactly_the_config_fields(self):
        # the README spells the schema by hand; it must name the same paths,
        # in the same order, as the table the loader reads
        text = (SRC.parents[1] / "README.md").read_text(encoding="utf-8")
        section = text.split("### Config schema\n", 1)[1].split("\n#", 1)[0]
        paths = [line.split("`")[1] for line in section.splitlines() if line.startswith("| `")]
        assert paths == list(homsim.config._FIELDS)


class TestImportCost:
    def test_cli_import_loads_only_stdlib_numpy_and_homsim(self):
        # a fresh interpreter, so that nothing the tests imported counts;
        # the import time of homsim.cli is the benchmark's setup_s
        code = ("import sys; before = set(sys.modules); import homsim.cli; "
                "print(' '.join(sorted({m.partition('.')[0] for m in set(sys.modules) - before})))")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [str(SRC.parent)] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])))
        res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             env=env, timeout=60, check=True)
        loaded = set(res.stdout.split())
        assert "homsim" in loaded
        assert not loaded - set(sys.stdlib_module_names) - {"numpy", "homsim"}, loaded
