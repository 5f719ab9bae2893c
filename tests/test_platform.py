"""Unit tests for the repro.platform package."""

import pytest

from repro.platform import (Bus, Fpga, MemoryDevice, PlatformError, Processor,
                            TargetArchitecture, cool_board, dsp56001,
                            minimal_board, multi_board, xc4005)


class TestProcessor:
    def test_dsp56001_compiled_c_cost_table(self):
        dsp = dsp56001()
        # compiled-C model: MAC costs a few cycles, division is emulated
        assert dsp.cycles_for("mac") == 3
        assert dsp.cycles_for("div") == 25

    def test_default_cycles_fill_table(self):
        proc = Processor("p", "X", 1e6, cycles=(("mul", 5),))
        assert proc.cycles_for("mul") == 5
        assert proc.cycles_for("add") == proc.default_cycles

    def test_unknown_category_rejected(self):
        with pytest.raises(PlatformError):
            Processor("p", "X", 1e6, cycles=(("frobnicate", 1),))
        with pytest.raises(PlatformError):
            dsp56001().cycles_for("frobnicate")

    def test_bad_clock_rejected(self):
        with pytest.raises(PlatformError):
            Processor("p", "X", 0)

    def test_seconds(self):
        proc = Processor("p", "X", 10e6)
        assert proc.seconds(10) == pytest.approx(1e-6)

    def test_role_flags(self):
        assert dsp56001().is_software and not dsp56001().is_hardware


class TestFpga:
    def test_xc4005_capacity_matches_paper(self):
        assert xc4005().clb_capacity == 196

    def test_tables_have_defaults_and_overrides(self):
        dev = Fpga("f", "X", 100, 1e6, latency=(("div", 3),), area=(("mul", 10),))
        assert dev.latency_for("div") == 3
        assert dev.area_for("mul") == 10
        assert dev.latency_for("add") == 1

    def test_unknown_category_rejected(self):
        with pytest.raises(PlatformError):
            Fpga("f", "X", 100, 1e6, latency=(("bogus", 1),))
        with pytest.raises(PlatformError):
            xc4005().area_for("bogus")

    def test_bad_capacity_rejected(self):
        with pytest.raises(PlatformError):
            Fpga("f", "X", 0, 1e6)

    def test_zero_latency_rejected(self):
        """A 0-cycle operator would let dependent ops share one step."""
        with pytest.raises(PlatformError, match=r"'f'.*'mac'"):
            Fpga("f", "X", 100, 1e6, latency=(("mac", 0),))

    def test_negative_latency_rejected(self):
        """A negative latency would stall the HLS list scheduler."""
        with pytest.raises(PlatformError, match=r"'f'.*'mac'"):
            Fpga("f", "X", 100, 1e6, latency=(("mac", -1),))

    def test_negative_area_rejected(self):
        """A negative operator area would shrink datapath CLB prices."""
        with pytest.raises(PlatformError, match=r"'f'.*'mac'"):
            Fpga("f", "X", 100, 1e6, area=(("mac", -50),))

    def test_role_flags(self):
        assert xc4005().is_hardware and not xc4005().is_software


class TestMemory:
    def test_words_and_end_address(self):
        mem = MemoryDevice("m", 1024, base_address=0x100, word_bytes=2)
        assert mem.words == 512
        assert mem.end_address == 0x100 + 512

    def test_contains(self):
        mem = MemoryDevice("m", 64, base_address=10, word_bytes=2)
        assert mem.contains(10, 32)
        assert not mem.contains(10, 33)
        assert not mem.contains(9)

    def test_bad_size_rejected(self):
        with pytest.raises(PlatformError):
            MemoryDevice("m", 0)


class TestBus:
    def test_beats_scale_with_width(self):
        bus = Bus("b", width_bits=16)
        assert bus.beats_for(16, 4) == 4
        assert bus.beats_for(24, 4) == 8  # 24-bit payload needs 2 beats/word
        assert bus.beats_for(8, 4) == 4   # narrow payload still one beat

    def test_transfer_cycles(self):
        bus = Bus("b", width_bits=16, cycles_per_word=2)
        assert bus.transfer_cycles(16, 4) == 8

    def test_bad_width_rejected(self):
        with pytest.raises(PlatformError):
            Bus("b", width_bits=0)


class TestArchitecture:
    def test_cool_board_matches_paper(self):
        board = cool_board()
        assert board.processor_names == ("dsp0",)
        assert board.fpga_names == ("fpga0", "fpga1")
        assert all(board.fpga(n).clb_capacity == 196 for n in board.fpga_names)
        assert board.memory.size_bytes == 64 * 1024

    def test_resource_lookup(self):
        board = minimal_board()
        assert board.resource("dsp0").model == "DSP56001"
        assert board.resource("fpga0").model == "XC4005"
        with pytest.raises(PlatformError):
            board.resource("nope")

    def test_is_software_hardware(self):
        board = minimal_board()
        assert board.is_software("dsp0")
        assert board.is_hardware("fpga0")
        assert not board.is_software("fpga0")

    def test_duplicate_names_rejected(self):
        with pytest.raises(PlatformError):
            TargetArchitecture("bad", processors=(dsp56001("x"),),
                               fpgas=(xc4005("x"),))

    def test_empty_architecture_rejected(self):
        with pytest.raises(PlatformError):
            TargetArchitecture("bad")

    def test_multi_board(self):
        board = multi_board(3, 4)
        assert len(board.processors) == 3
        assert len(board.fpgas) == 4
        assert len(board.resource_names) == 7

    def test_describe_mentions_components(self):
        text = cool_board().describe()
        assert "DSP56001" in text and "XC4005" in text and "64 kB" in text
