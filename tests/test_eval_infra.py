"""Tests for eval infrastructure: region extraction and the suite runner."""

import pytest

from repro.eval.regions import form_hot_regions
from repro.eval.suite import SuiteConfig, SuiteRunner


class TestFormHotRegions:
    def test_regions_extracted(self):
        program, regions = form_hot_regions("swim", scale=0.05)
        assert regions
        for region in regions:
            assert region.memory_ops()
            region.validate()

    def test_phased_benchmark_yields_multiple_regions(self):
        program, regions = form_hot_regions("applu", scale=0.05)
        assert len(regions) >= 2

    def test_program_metadata_exposed(self):
        program, regions = form_hot_regions("swim", scale=0.05)
        assert program.region_map
        assert program.register_regions


class TestSuiteVariants:
    def test_sweep_covers_all_cells(self):
        runner = SuiteRunner(
            SuiteConfig(benchmarks=["art"], scale=0.05, hot_threshold=15)
        )
        table = runner.sweep(["none", "smarq"])
        assert set(table) == {"art"}
        assert set(table["art"]) == {"none", "smarq"}

    def test_unknown_scheme_key_raises(self):
        runner = SuiteRunner(
            SuiteConfig(benchmarks=["art"], scale=0.05, hot_threshold=15)
        )
        with pytest.raises(ValueError):
            runner.report("art", "not-a-scheme")
