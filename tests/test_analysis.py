"""Tests for the measurement harness (these pin the headline results)."""

import pytest

from repro.analysis import (
    PAPER_TABLE1,
    Table,
    measure_deliberate_bandwidth,
    measure_store_latency,
    run_table1,
)
from repro.analysis.latency import measure_latency_vs_hops
from repro.analysis.bandwidth import bandwidth_sweep
from repro.machine.config import next_generation


class TestReportTable:
    def test_render_contains_cells(self):
        table = Table(["a", "b"], title="T")
        table.add(1, "xy")
        text = table.render()
        assert "T" in text and "a" in text and "xy" in text

    def test_cell_count_checked(self):
        table = Table(["a", "b"])
        with pytest.raises(ValueError):
            table.add(1)

    def test_empty_table_renders(self):
        assert "a" in Table(["a"]).render()


class TestTable1:
    @pytest.fixture(scope="class")
    def rows(self):
        return run_table1()

    def test_all_rows_present(self, rows):
        assert {r.primitive for r in rows} == set(PAPER_TABLE1)

    def test_every_row_matches_paper_exactly(self, rows):
        for row in rows:
            assert (row.measured_send, row.measured_recv) == (
                row.paper_send,
                row.paper_recv,
            ), row.primitive

    def test_totals(self, rows):
        for row in rows:
            assert row.measured_send + row.measured_recv == row.paper_total


class TestConfigInvariance:
    def test_instruction_counts_independent_of_hardware(self):
        """Table 1 counts are software properties: identical on the
        i486 PRAM testbed and the Pentium next-gen machine."""
        from repro.machine.config import next_generation, pram_testbed

        from repro.analysis import table1 as t1

        rows = {}
        for name, factory in (("pram", pram_testbed),
                              ("nextgen", next_generation)):
            system, pair = t1._boot(params_factory=factory)
            from repro.msg import single_buffer

            t1._run(system, pair.sender,
                    single_buffer.sender_program([1, 2]))
            t1._run(system, pair.receiver,
                    single_buffer.receiver_program(),
                    at_ns=t1._RECEIVER_DELAY_NS)
            system.run()
            rows[name] = (pair.sender_counts("send"),
                          pair.receiver_counts("recv"))
        assert rows["pram"] == rows["nextgen"] == (4, 5)


class TestLatency:
    def test_eisa_prototype_under_2us(self):
        assert measure_store_latency() < 2000

    def test_next_gen_under_1us(self):
        assert measure_store_latency(next_generation) < 1000

    def test_latency_monotone_in_hops(self):
        by_hops = measure_latency_vs_hops(width=4, height=4)
        hops = sorted(by_hops)
        values = [by_hops[h] for h in hops]
        assert values == sorted(values)
        # Routing adds little: the per-hop increment is tens of ns.
        assert values[-1] - values[0] < 500


class TestBandwidth:
    def test_eisa_peak_near_33(self):
        bw, _ = measure_deliberate_bandwidth(64 * 1024)
        assert 28 <= bw <= 33.5

    def test_next_gen_near_70(self):
        bw, _ = measure_deliberate_bandwidth(64 * 1024, next_generation)
        assert 60 <= bw <= 72

    def test_next_gen_roughly_doubles_eisa(self):
        eisa, _ = measure_deliberate_bandwidth(16 * 1024)
        nextgen, _ = measure_deliberate_bandwidth(16 * 1024, next_generation)
        assert 1.8 <= nextgen / eisa <= 2.6

    def test_sweep_increases_with_size_then_saturates(self):
        result = bandwidth_sweep([256, 4096, 65536])
        assert result[256] < result[4096] <= result[65536] * 1.05

    def test_word_multiple_required(self):
        with pytest.raises(ValueError):
            measure_deliberate_bandwidth(10)
