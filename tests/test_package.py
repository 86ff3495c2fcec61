import importlib

import pytest

import geominar

LAZY_EXPORTS = {
    "simulate": ("RngStream", "SeriesSample", "sample_innovation", "simulate_series"),
    "verify": ("CheckResult", "VerificationReport", "check_cross_method", "check_moments",
               "check_pgf_identity", "check_pmf_validity", "check_tail_quality",
               "run_all_checks"),
}


class TestLazyExports:
    @pytest.mark.parametrize("module, name", [(m, n) for m, names in LAZY_EXPORTS.items()
                                              for n in names])
    def test_resolves_to_the_module_object(self, module, name):
        home = importlib.import_module(f"geominar.{module}")
        assert getattr(geominar, name) is getattr(home, name)

    def test_unknown_attribute_names_itself(self):
        with pytest.raises(AttributeError, match="'no_such_name'"):
            geominar.no_such_name
        with pytest.raises(ImportError, match="no_such_name"):
            from geominar import no_such_name  # noqa: F401
