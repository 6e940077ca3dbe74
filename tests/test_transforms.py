"""GDD transforms and the constructive colourings attached to them."""
import random

import pytest

from designcolour import (
    Colouring,
    Design,
    DesignError,
    Grouping,
    InternalConsistencyError,
    ParallelClass,
    UnsupportedParameterError,
    blow_up,
    catalog_get,
    check_block_equitable,
    check_group_colouring,
    check_weak,
    chromatic_number,
    delete_point,
    equitable_gdd_colouring,
    group_equitable_blowup,
    is_parallel_class,
    pc_to_gdd,
    remove_blocks,
    td_group_equitable_colouring,
    validate_gdd,
)
from designcolour.parallel import enumerate_parallel_classes
from designcolour.td import build_td
import designcolour.transforms as transforms
from designcolour.transforms import NONEXISTENT


def gdd_2_6():
    return delete_point(catalog_get("sts13").design, 0)


class TestBlowUp:
    def test_sts7_by_3(self):
        sts7 = catalog_get("sts7").design
        result = blow_up(sts7, Grouping.singletons(7), 3)
        assert result.design.v == 21 and result.design.b == 63
        assert validate_gdd(result.design, result.grouping).passed
        assert set(result.grouping.group_sizes) == {3}

    def test_w1_is_identity(self):
        sts7 = catalog_get("sts7").design
        result = blow_up(sts7, Grouping.singletons(7), 1)
        assert result.design == sts7

    def test_bibd13_4_by_4(self):
        bibd = catalog_get("bibd13_4").design
        result = blow_up(bibd, Grouping.singletons(13), 4)
        assert validate_gdd(result.design, result.grouping).passed
        assert result.grouping.u == 13 and set(result.grouping.group_sizes) == {4}

    def test_lift_preserves_weak(self):
        sts7 = catalog_get("sts7").design
        result = blow_up(sts7, Grouping.singletons(7), 3)
        witness = chromatic_number(sts7).witness
        lifted = result.lift(witness)
        assert check_weak(result.design, lifted).passed

    def test_embedding_preserves_chi(self):
        sts7 = catalog_get("sts7").design
        result = blow_up(sts7, Grouping.singletons(7), 3)
        assert chromatic_number(result.design).chi == chromatic_number(sts7).chi == 3

    @pytest.mark.parametrize(
        "name,w", [("sts7", 3), ("bibd13_4", 4), ("bibd13_4", 5), ("bibd13_4", 18), ("td44", 3)]
    )
    def test_source_blocks_embed_at_copy_zero(self, name, w):
        # The TD's all-zero first row puts copy 0 of every source block in
        # the blow-up.
        entry = catalog_get(name)
        grouping = entry.grouping or Grouping.singletons(entry.design.v)
        blocks = set(blow_up(entry.design, grouping, w).design.blocks)
        for blk in entry.design.blocks:
            assert tuple(p * w for p in blk) in blocks

    def test_packing_source_passes_through(self):
        # a packing is no GDD, so its blow-up need not be one
        entry = catalog_get("pack7")
        result = blow_up(entry.design, Grouping.singletons(entry.design.v), 3)
        assert not validate_gdd(result.design, result.grouping).passed

    def test_output_above_the_point_limit_is_refused(self):
        # a design with no blocks passes the block limit; its blow-up to
        # 2**20 points is built, and one point more is refused
        empty = Design(2, ())
        assert blow_up(empty, Grouping.singletons(2), 1 << 19).design.v == 1 << 20
        with pytest.raises(UnsupportedParameterError, match="1048578 points exceeds the 1048576-point limit"):
            blow_up(empty, Grouping.singletons(2), (1 << 19) + 1)

    def test_broken_td_rows_raise(self, monkeypatch):
        monkeypatch.setattr(transforms, "td_symbol_rows", lambda k, w: [(0,) * k] * (w * w))
        with pytest.raises(InternalConsistencyError, match="blow-up of a GDD by 2"):
            blow_up(catalog_get("sts7").design, Grouping.singletons(7), 2)


class TestPcToGdd:
    def test_sts9_class_gives_2_chromatic_gdd(self):
        sts9 = catalog_get("sts9").design
        classes, _ = enumerate_parallel_classes(sts9)
        gdd, grouping = pc_to_gdd(sts9, classes[0])
        assert validate_gdd(gdd, grouping).passed
        assert gdd.b == sts9.b - sts9.v // sts9.k
        assert chromatic_number(gdd).chi == 2

    def test_rejects_non_class(self):
        sts9 = catalog_get("sts9").design
        assert not is_parallel_class(sts9, ParallelClass((0, 1, 2)))
        with pytest.raises(DesignError):
            pc_to_gdd(sts9, ParallelClass((0, 1, 2)))


class TestDeletePoint:
    def test_sts13_properties(self):
        d, g = gdd_2_6()
        assert g.u == 6 == (13 - 1) // 2
        assert validate_gdd(d, g).passed

    def test_sts7_counts(self):
        d, g = delete_point(catalog_get("sts7").design, 6)
        assert d.b == 4 and g.u == 3

    def test_bad_point(self):
        with pytest.raises(DesignError):
            delete_point(catalog_get("sts7").design, 9)

    def test_non_bibd_source_passes_through(self):
        d, g = delete_point(Design(5, ((0, 1, 2), (0, 3, 4))), 0)
        assert g.groups == ((0, 1), (2, 3)) and not validate_gdd(d, g).passed

    def test_point_missing_from_the_groups_is_named_in_the_source(self):
        # the blocks through 0 meet only point 1; 2..9 would belong to no group
        with pytest.raises(DesignError, match=r"^point 0 shares no block with 8 points: \[2, 3, 4, 5, 6\]$"):
            delete_point(Design(10, ((0, 1), (2, 3))), 0)
        with pytest.raises(DesignError, match=r"^point 9 shares no block with 9 points: \[0, 1, 2, 3, 4\]$"):
            delete_point(Design(10, ((0, 1), (2, 3))), 9)

    def test_lost_block_raises(self, monkeypatch):
        monkeypatch.setattr(transforms, "Design", lambda v, blocks, lam: Design(v, blocks[1:], lam))
        with pytest.raises(InternalConsistencyError, match="deleting point 6 of a BIBD"):
            delete_point(catalog_get("sts7").design, 6)


class TestRemoveBlocks:
    def test_empty_removal_is_identity(self):
        sts9 = catalog_get("sts9").design
        assert remove_blocks(sts9, ()) == sts9

    def test_remove_parallel_class_sandwich(self):
        sts9 = catalog_get("sts9").design
        classes, _ = enumerate_parallel_classes(sts9)
        packing = remove_blocks(sts9, classes[0].block_indices)
        assert packing.b == 9
        chi = chromatic_number(packing).chi
        t = len(classes[0].block_indices)
        assert chromatic_number(sts9).chi - -(-t // 2) <= chi <= chromatic_number(sts9).chi

    def test_remove_everything(self):
        sts9 = catalog_get("sts9").design
        empty = remove_blocks(sts9, range(sts9.b))
        assert chromatic_number(empty).chi == 1


class TestEquitableGddColouring:
    def test_td33_two_colours(self):
        d, g = build_td(3, 3)
        col = equitable_gdd_colouring(d, g, 2)
        assert check_block_equitable(d, col).passed
        assert col.assignment == (0,) * 6 + (1,) * 3
        # monochromatic groups split two against one
        group_colours = [{col.assignment[p] for p in grp} for grp in g.groups]
        assert all(len(s) == 1 for s in group_colours)

    def test_2_6_no_2_colouring(self):
        d, g = gdd_2_6()
        assert equitable_gdd_colouring(d, g, 2) == NONEXISTENT

    def test_2_6_rainbow_groups_at_6(self):
        d, g = gdd_2_6()
        col = equitable_gdd_colouring(d, g, 6)
        assert col != NONEXISTENT
        assert check_block_equitable(d, col).passed

    def test_k_equals_u_minus_1_divisor_branch(self):
        # 3-GDD of type 3^4 from STS(13) is not available; use a TD-based
        # instance: blocks of size 3 with four groups come from truncating a
        # TD(4,3)'s blocks is not a GDD, so exercise the branch on type 2^4.
        d, g = delete_point(catalog_get("sts9").design, 0)
        col = equitable_gdd_colouring(d, g, 2)
        assert col != NONEXISTENT
        # groups {0,1}, {2,5}, {3,7}, {4,6}: two groups per colour
        assert col.assignment == (0, 0, 0, 1, 1, 0, 1, 1)
        assert check_block_equitable(d, col).passed

    def test_rejects_nonuniform_groups(self):
        d, g = gdd_2_6()
        lopsided = Grouping(d.v, ((0, 1, 2), (3,)) + tuple((p,) for p in range(4, d.v)))
        with pytest.raises(DesignError):
            equitable_gdd_colouring(d, lopsided, 2)

    def test_rejects_more_block_than_groups(self):
        d, _ = build_td(4, 4)
        halves = Grouping(16, (tuple(range(8)), tuple(range(8, 16))))
        with pytest.raises(DesignError):
            equitable_gdd_colouring(d, halves, 2)

    def test_singleton_groups_follow_theorem(self):
        # A BIBD seen as a GDD of type 1^v admits no block-equitable
        # 2-colouring unless u <= c, and the palette branch needs c >= v.
        d, _ = gdd_2_6()
        assert equitable_gdd_colouring(d, Grouping.singletons(d.v), 2) == NONEXISTENT


class TestTdGroupEquitable:
    def test_td54(self):
        d, g = build_td(5, 4)
        col = td_group_equitable_colouring(d, g)
        assert check_group_colouring(d, g, col, "group-equitable").passed
        assert check_weak(d, col).passed
        assert not check_block_equitable(d, col).passed

    def test_td77(self):
        d, g = build_td(7, 7)
        col = td_group_equitable_colouring(d, g)
        assert check_group_colouring(d, g, col, "group-equitable").passed

    @pytest.mark.parametrize("k,size", [(6, 5), (7, 7)])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_any_point_labelling(self, k, size, seed):
        # A TD under a point relabelling is still a TD; its groups need not
        # be runs of consecutive points.
        d, g = build_td(k, size)
        perm = list(range(d.v))
        random.Random(seed).shuffle(perm)
        d = Design(d.v, tuple(tuple(perm[p] for p in blk) for blk in d.blocks))
        g = Grouping(g.v, tuple(tuple(perm[p] for p in grp) for grp in g.groups))
        col = td_group_equitable_colouring(d, g)
        assert check_group_colouring(d, g, col, "group-equitable").passed

    def test_parameter_regime(self):
        with pytest.raises(UnsupportedParameterError):
            td_group_equitable_colouring(*build_td(5, 5))
        td_group_equitable_colouring(*build_td(6, 5))
        with pytest.raises(UnsupportedParameterError):
            td_group_equitable_colouring(*build_td(4, 3))


class TestGroupEquitableBlowup:
    def test_bibd13_4_with_td44(self):
        bibd = catalog_get("bibd13_4").design
        td = catalog_get("td44")
        design, grouping, colouring = group_equitable_blowup(
            bibd, Grouping.singletons(13), td.design, td.grouping, td.colouring
        )
        assert validate_gdd(design, grouping).passed
        assert grouping.u == 13 and set(grouping.group_sizes) == {4}
        assert check_group_colouring(design, grouping, colouring, "group-equitable").passed
        assert check_weak(design, colouring).passed

    def test_rejects_unit_groups(self):
        bibd = catalog_get("bibd13_4").design
        d1, g1 = build_td(4, 1)
        with pytest.raises((DesignError, UnsupportedParameterError)):
            group_equitable_blowup(
                bibd, Grouping.singletons(13), d1, g1, Colouring(2, (0, 0, 0, 0))
            )

    def test_rejects_unbalanced_colouring(self):
        bibd = catalog_get("bibd13_4").design
        td = catalog_get("td44")
        skew = list(td.colouring.assignment)
        skew[0], skew[2] = skew[2], skew[0]  # break one group's balance
        with pytest.raises(DesignError):
            group_equitable_blowup(
                bibd, Grouping.singletons(13), td.design, td.grouping, Colouring(2, tuple(skew))
            )
