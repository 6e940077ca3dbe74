"""Packing constructions, their bounds and the difference-pair profiles."""
import hashlib
import io
import time
from fractions import Fraction

import pytest

import designcolour
from designcolour import (
    ColouredPacking,
    DesignError,
    InternalConsistencyError,
    PairsProfile,
    Unachievable,
    UnsupportedParameterError,
    bound_general,
    bound_max_equitable,
    check_block_equitable,
    max_equitable_packing,
    pack_4n,
    pack_4n2_odd,
    pack_from_pairs,
    pack_small,
    pairs_for_s,
    td_packing_coloured,
    validate_packing,
    verify_pairs_profile,
)
from designcolour import catalog, core, packings, td
from designcolour.cli import EXIT_OK, cli_main
from designcolour.td import UnsupportedOrderError


class TestBoundGeneral:
    def test_v8_k3_c2(self):
        exact, floor = bound_general(8, 3, 2)
        assert floor == 8 == (8 * 8) // 8

    def test_single_block(self):
        for k in (3, 4, 5):
            assert bound_general(k, k, 2)[1] == 1

    def test_v14_k4_c2(self):
        exact, floor = bound_general(14, 4, 2)
        assert exact == Fraction(49, 4)
        assert floor == 12

    def test_matches_closed_form_k3_c2(self):
        for v in range(3, 501):
            assert bound_general(v, 3, 2)[1] == (v * v) // 8

    def test_dominates_tight_k4_bound(self):
        for v in range(4, 501):
            assert bound_general(v, 4, 2)[0] >= bound_max_equitable(v, 4, 2).value


class TestBoundMaxEquitable:
    def test_k4_values(self):
        assert bound_max_equitable(24, 4, 2).value == 36
        info = bound_max_equitable(10, 4, 2)
        assert info.value == 6 and info.tight and not info.achievable

    def test_k3_values(self):
        assert bound_max_equitable(12, 3, 2).value == 18
        assert not bound_max_equitable(4, 3, 2).achievable

    def test_fallback_not_tight(self):
        info = bound_max_equitable(20, 5, 2)
        assert not info.tight
        assert info.value == bound_general(20, 5, 2)[1]


class TestTdPackingColoured:
    def test_k4_g5_c2_meets_bound(self):
        packed = td_packing_coloured(4, 5, 2)
        assert packed.size == 25 and packed.bound_met

    def test_k4_g4_c4_rainbow_blocks(self):
        packed = td_packing_coloured(4, 4, 4)
        for blk in packed.design.blocks:
            assert len({packed.colouring.assignment[p] for p in blk}) == 4

    def test_k6_g7_c3(self):
        packed = td_packing_coloured(6, 7, 3)
        assert packed.size == 49 and packed.bound_met

    def test_colours_must_divide(self):
        with pytest.raises(UnsupportedParameterError):
            td_packing_coloured(4, 5, 3)

    def test_corrupted_symbol_row_raises(self, monkeypatch):
        # the packing check is the only check of these blocks: one symbol
        # moved in one row puts a cross pair in two blocks
        rows = td.td_symbol_rows(4, 5)

        def corrupted(k, g):
            bad = list(rows)
            bad[7] = (bad[7][0], bad[7][1], (bad[7][2] + 1) % g, bad[7][3])
            return bad

        monkeypatch.setattr(td, "td_symbol_rows", corrupted)
        with pytest.raises(InternalConsistencyError, match="constructed packing invalid"):
            td_packing_coloured(4, 5, 2)


class TestPack4n:
    @pytest.mark.parametrize("n", [1, 3, 4, 5, 7, 9, 12])
    def test_td_orders(self, n):
        packed = pack_4n(n)
        assert packed.size == n * n
        assert packed.design.v == 4 * n
        assert packed.bound_met

    @pytest.mark.parametrize("n", [10, 14])
    def test_rotation_fallback_orders(self, n):
        packed = pack_4n(n)
        assert packed.size == n * n and packed.bound_met

    @pytest.mark.parametrize("n", [2, 6])
    def test_unsupported(self, n):
        with pytest.raises(UnsupportedOrderError):
            pack_4n(n)

    def test_pack_4n1_adds_isolated_point(self):
        packed = max_equitable_packing(13)
        assert packed.design.v == 13 and packed.size == 9
        degrees = packed.design.point_degrees()
        assert degrees[12] == 0


class TestPack4n2Odd:
    @pytest.mark.parametrize("n,size", [(3, 12), (5, 30), (9, 90)])
    def test_sizes(self, n, size):
        packed = pack_4n2_odd(n)
        assert packed.design.v == 4 * n + 2
        assert packed.size == size == n * n + n
        for blk in packed.design.blocks:
            split = sum(1 for p in blk if packed.colouring.assignment[p] == 0)
            assert split == 2

    @pytest.mark.parametrize("n", [1, 2, 4])
    def test_rejects_bad_n(self, n):
        with pytest.raises(UnsupportedParameterError):
            pack_4n2_odd(n)


class TestPairsProfiles:
    def test_small_table_s2(self):
        profile = pairs_for_s(2)
        assert profile.t == 1 and profile.pairs == ((2, 3),)

    def test_small_table_s3(self):
        profile = pairs_for_s(3)
        assert profile.t == 5 and set(profile.pairs) == {(1, 4), (2, 9)}

    def test_bad_profile_detected(self):
        report = verify_pairs_profile(PairsProfile(2, 1, ((1, 3),)))
        assert not report.passed
        assert any(v.kind == "cross-difference-set" for v in report.violations)

    def test_residue_rows(self):
        for s in (14, 20, 16, 28, 17, 19, 13, 15, 18, 12):
            assert verify_pairs_profile(pairs_for_s(s)).passed

    def test_sweep_to_60(self):
        for s in range(2, 61):
            assert verify_pairs_profile(pairs_for_s(s)).passed, s


class TestPackFromPairs:
    @pytest.mark.parametrize("s", [2, 3, 5, 8])
    def test_sizes(self, s):
        packed = pack_from_pairs(pairs_for_s(s))
        assert packed.design.v == 8 * s + 2
        assert packed.size == 4 * s * s + 2 * s
        assert packed.bound_met

    def test_rejects_failing_profile(self):
        with pytest.raises(DesignError):
            pack_from_pairs(PairsProfile(2, 1, ((1, 3),)))


class TestPackSmall:
    @pytest.mark.parametrize("v,size", [(7, 2), (11, 6), (24, 36), (25, 36)])
    def test_catalogued(self, v, size):
        packed = pack_small(v)
        assert packed.size == size and packed.bound_met

    def test_out_of_range(self):
        with pytest.raises(UnsupportedParameterError):
            pack_small(13)

    def test_stored_entry_is_still_checked_by_the_catalog(self, monkeypatch):
        monkeypatch.setattr(catalog, "_VALIDATED", {})
        checked = []
        check = catalog.validate_packing
        monkeypatch.setattr(catalog, "validate_packing", lambda d: checked.append(d.v) or check(d))
        assert cli_main(["catalog", "get", "pack24"], out=io.StringIO()) == EXIT_OK
        assert checked == [24]


# sha256 of `construct pack-max v` stdout for v = 4n and 4n + 1 at each
# order n of the stored rotation families
_ROTATION_DIGESTS = {
    40: "e9e25e33540f60aad6b93189436e0a0d0fbc6e38837cd8f26e0d47b7b95a2b43",
    41: "950fd6e5effaf621a83ee85e26119bcc1015924435f2d32a4e4b5317d2f9b224",
    56: "68cecec780062dc5ca4769bb4bf670fb10b137538764e73d12b7d8af6026fec4",
    57: "b6a8fd9937dee77b5e9addeb7c786a9acaf860825503f08010c4e93cf5dde863",
    72: "fb16610c2fdab9976216e748cffe52fe7eac97dd9eb7acc5d401ff5acfdbed64",
    73: "c47b8aef0cab9c1aae359f0df39665267f8aaa0a8e324dded86ec3865a9a9a85",
    88: "cb3952aff9d4098701359e536ff70e5ab5a63b5a0c8639eedf2bcf2c68bf5aaf",
    89: "ad7af8ea42de92bf24883b7dd5dd1d5a8171c3233573e986fc11f4569252e53e",
    104: "f9fadfc2667503da7c5b05dc9799c832b2ed300e9cce998b6ace9b56ac30796b",
    105: "01737ee650ff274a20cd6443af55ded35934b3149772b37fb15c2b3f191c1ba7",
    120: "964119641a07bd846788bea033e96fc52195d45015918c254b814fae3a79a215",
    121: "665692e6b86c37b8a6568026b382c09bd032adcb659eafe6feddfdb0a4b94496",
    136: "92a8ca27dde0c85d16f66f58cdb42cb4d456a5f2e7efd5a0efa7bc0bfb814db3",
    137: "a538891cf248e10f5804add2edcd2d8e266bf2342838b964eb9f17f73af46a03",
    152: "b66b849f555af405ad21f6b864e28435184577b1231bf831643afbd1bce2a2c3",
    153: "577ad55d3b0226bfe38c304d8ec81ad4aa190e539e8fadc255adfd53aabecdd7",
    168: "fa67ca4ca10b8e1d5c72330207d8ff27b80a82f51b17b5b8229fd2cc263170e2",
    169: "6ff2f435807358b6709f04cbb13aa726d68b99509fdc65296c02de3c5eb03035",
    184: "36506fcfaa4c455617e5c12f3a21e91337d8a476a370760e0d2f1715e5da6077",
    185: "adf162e6f91bd8e213f51926aee384955aa000d3bdd5f2bee2bd9bfd7e83cce7",
    200: "294d6f90e0635d9c5c2e6488c01a26a29856307acca17bb850bd0a499f214b04",
    201: "609a9387eddaab46e228694073b026c497455efed16baeb66787ef2af4359c03",
    216: "223d5d2b8546368511c034cb5143fb2ece780e69c9618c9b3fe73c0fde86f3b7",
    217: "519ee9ad3e90d0f24d81f66fa3b91e6129144e980126c97e94f52e5ad807b70b",
    232: "c02892120b6f4243398c1d3c7988b953d4997e95ca7a840b061072590dd3dabf",
    233: "f931fb113fd2ab2287d330cb6f1fdf0e1e6c829f97141c535bf4e34d24daefb4",
    248: "0951ae6e1261d2ee27327ba2cf0f3ef45c38e9394208c447ceb68654509667a1",
    249: "a27e3761777d14c12c0345e4143c2db92f8365f633ecbf16e6ee4c7bc805a014",
    264: "aa603c45513cbaf38f22ee81b31cbc4c3e9eb05435fa8b8cdfa278cd9b4d9eae",
    265: "0263c6566a244b5be8998b4625b093c4a64cd1a48dcb9492e521b9129c44e593",
    280: "375cfee2dd9414ee41801ff3956b8df8a27b03a56bc3ff11dc964beb8e52f315",
    281: "c15707736386a9aebc580d0cb7bfc8191941cd90943bd56fd0a751c03e2bf20d",
    296: "28be27b15dfe51435ef603828fd52cb76bbaa8459876bf175ea624fa61b97232",
    297: "84c0a1b7fa883200c377b247a5ef499d80f23eacc3a4bb32af0f86eb3c524076",
    312: "b916b4acbb0f7af4a077a5c9768368872aca87a2bdf9b8ee13409e6287957b14",
    313: "54a984fbe968e93888a494661dc9bcbc49cd220f50e994b0f2144afd70b624a5",
    328: "cc1349fb4dd95c4e87f9ccf225ee1b0745f6e5d19ec36bee46d4319ae8b38f6e",
    329: "e522c7adc79ff683e93b044cf2e3cb93f66ee62636d94cf69585fbbae8db1ad2",
    344: "ca8294ac1f4add7f2ab5717439d8abe0257a7e969aaf714be8ed6a4667dd21dd",
    345: "a8324c1bc654acb2701ad3240e39dfcb7df50ae5e29fbe64a7737e29d1e7d099",
    360: "314cf88c2fddfb6e53b8072b88f3d94251556e54226fee8c876fc708e42a7d06",
    361: "181bbae9d47b85944850e29e122d889d9abd72a0a1c6bdaf22d880fe14df148f",
}


class TestDispatcher:
    def test_small_exceptions(self):
        for v in (6, 8, 9, 10):
            result = max_equitable_packing(v)
            assert isinstance(result, Unachievable)
            assert result.bound == bound_max_equitable(v, 4, 2).value

    def test_tiny_orders_empty(self):
        for v in (0, 1, 2, 3):
            result = max_equitable_packing(v)
            assert isinstance(result, ColouredPacking) and result.size == 0

    @pytest.mark.parametrize("v,size", [(14, 12), (27, 42), (40, 100), (43, 110)])
    def test_spot_values(self, v, size):
        result = max_equitable_packing(v)
        assert result.size == size

    # sha256 of `construct pack-max v` stdout, one order per dispatcher
    # branch; the construction layouts are fixed, so the bytes are too
    @pytest.mark.parametrize("v,digest", [
        (0, "dfc5dc2d449bb4e3c066bcc3c7336077ad3d78f1628cd035955a59ec1d63eda8"),
        (3, "bdf85b23388b87afacac54ff18aa4600b167ba1c99728daf36a116e0214eea33"),
        (5, "13aba0385fbf3293f04e152e1f1ad8c6d4fe38802fe8a2815d640c31cfe7b69f"),
        (7, "36ff0132da4ac14cf2a81d1aa668f8258369c73a28cd38a5dcca1dbe93cf366b"),
        (11, "d89d3a20f6d38b4cdf1d21a27971c6e0300a52f483b3b23923e5676b1cadcf68"),
        (12, "85b2b611531af0b38397d6ae912d41e8f31d71255a95085c62159095fcb57e98"),
        (13, "8f82f8d3d87bfdd1bb2a0f384eaef612472076fd2d3f3c79972007b348b148ea"),
        (15, "e33e481ae6485f366ef9ea5e44710c835f28e7c1c8df6c5b84bed9754d233abe"),
        (24, "607d876b11eb7e98eb368c44159e68d7cd01174d116fa5ecccc76617d337af49"),
        (25, "f54a3188e2c8f925115ed5d0d3ae2a849fd21248b223570c18ac8d7ef74c56f4"),
        (40, "e9e25e33540f60aad6b93189436e0a0d0fbc6e38837cd8f26e0d47b7b95a2b43"),
        (41, "950fd6e5effaf621a83ee85e26119bcc1015924435f2d32a4e4b5317d2f9b224"),
        (43, "d87c800cbd9f6f79fae8cf1c0e1bbf95a25c02608e3db4b65a6281a32536a720"),
        (46, "13f26b2c3fd6492537d871af700aef6a3a0b6ad340b8fd69898fbc74bbb99443"),
        (47, "7d389d681fda3bb38298b55befbf6bb3eef7ddde5c1410cc02cdbcda6acc0fdb"),
        (50, "7c8c90bb26673f06400362979fbfeaacb9cad05a4888e6420d80a11743853d2e"),
        (51, "6f19987c129fd284fe122b796e47bfea86b87f6e04b62daba05663b31c9163f9"),
        # TD(4, n) over GF(4), GF(8), GF(9), GF(16) and GF(81)
        (16, "786d4525f10f65c4f2aaee054ed6f980f1c16032f6d17c2ff2a5096dbe3bb505"),
        (32, "bdfb48283161e4c4206d7bf742a7fa06172208fec3357ca6d60de96c997aa4ae"),
        (36, "89ca851fe24287ae2bdbaa40968215c8069a97af64ebba8e20ac779f7e668c00"),
        (64, "97c6117c9c88089bc61505d49f02a4455b8d420a1d8b4e6965cbe021ebcac675"),
        (324, "3034eaf80de3beca5ac3a05a70453fd1d6c45cc158415af093ce0d372dbab04f"),
        # orders of the benchmark's sizes: TD(4, 145) and TD(4, 148) as
        # products, 4n+1 over GF(81) and over a product (n = 84), 4n+2
        # with n odd, a difference profile and 4n+3 over one
        (580, "9a7e805c5e07d98c6d34e7aab632153a07f522fdc611147c2aff40828a8bd8e5"),
        (592, "3707e546897f1c364cf5de218f2fdf4c10b43ab43a5182913f088beb8bc81375"),
        (325, "1b61b5dd9b1db72a3b27fe67c1397ca721ec34d8f30576e47094e51fefd23200"),
        (337, "eabc43dc622f42a21de69c5e7ca762640c4790d18de7c2273dd9fefbf62827bb"),
        (422, "5c7c81440a6746cd028c78bf971f12d8940528de02f11b36da2ee72edf00f49a"),
        (978, "029d20d50461e0cd0b0fec14204294ba339852cb5e7a373a179c14e794b99ec4"),
        (219, "431f2e2fa9a953ae64822e880736dd1c3d4e78b690f93607492c6315777da5e6"),
    ])
    def test_pack_max_bytes(self, v, digest):
        out = io.StringIO()
        assert cli_main(["construct", "pack-max", str(v)], out=out) == EXIT_OK
        assert hashlib.sha256(out.getvalue().encode()).hexdigest() == digest

    @pytest.mark.parametrize("v,digest", sorted(_ROTATION_DIGESTS.items()))
    def test_rotation_orders_keep_their_bytes(self, v, digest):
        # every order built from the stored rotation families
        assert v // 4 in packings._ROTATION_FAMILIES
        out = io.StringIO()
        assert cli_main(["construct", "pack-max", str(v)], out=out) == EXIT_OK
        assert hashlib.sha256(out.getvalue().encode()).hexdigest() == digest

    @pytest.mark.parametrize("v", [376, 377, 392, 393])
    def test_orders_beyond_the_rotation_table(self, v):
        # n = 94 and 98 come from Wilson's TD(4, n) in well under a
        # second each; the bound keeps them at desk scale
        start = time.perf_counter()
        result = max_equitable_packing(v)
        assert time.perf_counter() - start < 30
        assert result.size == bound_max_equitable(v, 4, 2).value and result.bound_met

    @pytest.mark.parametrize("v", [7, 11, 20, 21, 22, 23, 24, 25, 34, 35])
    def test_each_output_is_checked_once(self, monkeypatch, v):
        # one order per branch: the stored packings, 4n, 4n+1, 4n+2 with
        # n odd, 4n+3 over it, a difference profile and 4n+3 over one; a
        # stored packing is read from an empty catalog cache, so a check
        # there would be counted too
        monkeypatch.setattr(catalog, "_VALIDATED", {})
        calls = []

        def spy(name, fn):
            def wrapped(*args):
                calls.append(name)
                return fn(*args)
            return wrapped

        for module, name in ((packings, "validate_packing"), (packings, "check_block_equitable"),
                             (catalog, "validate_packing"), (designcolour, "check_block_equitable"),
                             (td, "validate_gdd"), (core, "validate_gdd")):
            monkeypatch.setattr(module, name, spy(name, getattr(module, name)))
        assert max_equitable_packing(v).size == bound_max_equitable(v, 4, 2).value
        assert calls == ["validate_packing", "check_block_equitable"]

    def test_sweep_to_60(self):
        for v in range(0, 61):
            result = max_equitable_packing(v)
            bound = bound_max_equitable(v, 4, 2)
            if v in (6, 8, 9, 10):
                assert isinstance(result, Unachievable)
            else:
                assert result.size == bound.value
                report, _ = validate_packing(result.design)
                assert report.passed
                assert check_block_equitable(result.design, result.colouring).passed
