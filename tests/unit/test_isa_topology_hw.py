"""Unit tests for the ISA surface and the area model."""

from repro.cais.compiler import MemOpKind
from repro.cais.isa import (
    CAIS_OPS, REQUEST_OP, is_cais_request, mnemonic)
from repro.common.config import SwitchSpec
from repro.hw.area import (
    gpu_synchronizer_area, overhead_report, switch_merge_unit_area)
from repro.interconnect.message import Message, Op, gpu_node


class TestIsa:
    def test_request_op_mapping_covers_all_kinds(self):
        assert set(REQUEST_OP) == set(MemOpKind)
        assert REQUEST_OP[MemOpKind.LOAD_CAIS] is Op.LD_CAIS_REQ
        assert REQUEST_OP[MemOpKind.REDUCE_CAIS] is Op.RED_CAIS

    def test_cais_flag_detection(self):
        cais = Message(Op.RED_CAIS, gpu_node(0), gpu_node(1))
        plain = Message(Op.STORE, gpu_node(0), gpu_node(1))
        assert is_cais_request(cais)
        assert not is_cais_request(plain)

    def test_cais_variants_flagged(self):
        for op in CAIS_OPS:
            assert "cais" in op.value

    def test_mnemonics(self):
        assert mnemonic(MemOpKind.LOAD) == "ld.global"
        assert mnemonic(MemOpKind.LOAD_CAIS) == "ld.global.cais"
        assert mnemonic(MemOpKind.REDUCE_CAIS) == "red.global.cais"


class TestAreaModel:
    def test_switch_merge_unit_matches_paper_magnitude(self):
        est = switch_merge_unit_area(SwitchSpec())
        # Paper Section V-D: ~0.50 mm^2, < 1% of an NVSwitch die.
        assert 0.2 < est.total_mm2 < 1.0
        assert est.fraction_of_die < 0.01
        assert est.sram_mm2 > 0 and est.cam_mm2 > 0

    def test_gpu_synchronizer_matches_paper_magnitude(self):
        est = gpu_synchronizer_area()
        # Paper: ~0.019 mm^2 per die, < 0.01% of an H100.
        assert 0.005 < est.total_mm2 < 0.05
        assert est.fraction_of_die < 0.0001

    def test_area_scales_with_table_size(self):
        small = switch_merge_unit_area(SwitchSpec(merge_table_entries=64))
        big = switch_merge_unit_area(SwitchSpec(merge_table_entries=640))
        assert big.total_mm2 > small.total_mm2 * 5

    def test_report_mentions_both_sides(self):
        report = overhead_report()
        assert "switch merge unit" in report
        assert "gpu synchronizer" in report
