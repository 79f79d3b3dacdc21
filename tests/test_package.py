import types
from pathlib import Path

import homsim
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


class TestPublicSurface:
    def test_all_names_resolve_and_none_is_a_module(self):
        for name in homsim.__all__:
            assert not isinstance(getattr(homsim, name), types.ModuleType), name

    def test_quadrature_oracles_are_not_in_the_package(self):
        for module in (homsim, homsim.model, homsim.specfun):
            present = [name for name in MOVED_TO_TESTS if hasattr(module, name)]
            assert not present, f"{module.__name__} has {present}"

    def test_package_does_not_read_the_test_oracles(self):
        for path in SRC.rglob("*"):
            if path.is_file() and "__pycache__" not in path.parts:
                assert "oracles_quadrature" not in path.read_text(encoding="utf-8"), path
