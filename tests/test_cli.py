"""Command-line surface: output shapes, exit codes, determinism."""
import hashlib
import io
import os
import resource
import subprocess
import sys
from pathlib import Path

import pytest

import designcolour
from designcolour.cli import (
    EXIT_BUDGET,
    EXIT_OK,
    EXIT_PARSE,
    EXIT_UNSUPPORTED,
    EXIT_VALIDATION,
    cli_main,
)
from designcolour.fileio import render_design


def run(argv):
    out = io.StringIO()
    code = cli_main(argv, out=out)
    return code, out.getvalue()


def cli_env():
    """The environment of a child `python -m designcolour.cli`, with this
    checkout's package first on its path."""
    src = str(Path(designcolour.__file__).resolve().parent.parent)
    return dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))


def run_capped(argv, cwd=None):
    """Run the CLI in a child process under a 1 GiB address-space limit,
    so that allocating a table per point, block or colour of a hostile
    input fails fast; callers run one such process at a time.  Whatever
    its exit code, the child prints no traceback."""

    def limit_memory():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    proc = subprocess.run(
        [sys.executable, "-m", "designcolour.cli", *argv],
        capture_output=True, text=True, timeout=60, env=cli_env(), cwd=cwd, preexec_fn=limit_memory,
    )
    assert "Traceback" not in proc.stderr, (argv, proc.stderr)
    return proc


class TestBound:
    def test_tight_bound_value(self):
        code, text = run(["bound", "14", "4", "2", "--tight"])
        assert code == EXIT_OK
        assert "bound: 12" in text

    def test_general_bound(self):
        code, text = run(["bound", "14", "4", "2"])
        assert code == EXIT_OK
        assert "bound: 49/4" in text and "floor: 12" in text


class TestChromatic:
    def test_sts9(self):
        code, text = run(["chromatic", "sts9"])
        assert code == EXIT_OK
        assert "chi: 3" in text

    def test_budget_exceeded_exit(self):
        code, _ = run(["chromatic", "sts21", "--budget-nodes", "4"])
        assert code == EXIT_BUDGET

    def test_budget_spent_before_a_decision(self, capsys):
        assert run(["chromatic", "sts7", "--budget-nodes", "2"]) == (EXIT_BUDGET, "")
        assert capsys.readouterr().err == "budget exceeded: budget exhausted before deciding 2-colourability\n"

    def test_an_index_error_is_not_a_validation_failure(self, monkeypatch):
        # no input reaches an IndexError, so one is a bug and propagates
        def fail(*args, **kwargs):
            raise IndexError("list index out of range")

        monkeypatch.setattr(designcolour, "chromatic_number", fail)
        with pytest.raises(IndexError):
            run(["chromatic", "sts7"])

    def test_witness_pipes_into_verify(self, tmp_path):
        code, text = run(["chromatic", "sts9"])
        assert code == EXIT_OK
        witness = text[text.index("colouring c="):]
        col_path = tmp_path / "witness.colouring"
        col_path.write_text(witness)
        code, report = run(["verify", "sts9", "--as", "bibd", "--colouring", str(col_path), "--mode", "weak"])
        assert code == EXIT_OK
        assert "colouring-weak: pass" in report


class TestPclasses:
    def test_sts9_listing(self):
        code, text = run(["pclasses", "sts9"])
        assert code == EXIT_OK
        assert "classes: 4" in text

    def test_sts9_analyze_histogram(self):
        code, text = run(["pclasses", "sts9", "--analyze"])
        assert code == EXIT_OK
        assert "2,2,4" in text

    def test_limit_lists_that_many_classes(self):
        code, text = run(["pclasses", "sts9", "--limit", "2"])
        assert code == EXIT_OK
        assert text.splitlines() == ["classes: 2", "class 0: 0 10 11", "class 1: 1 5 9", "truncated: true"]

    def test_csv_per_class(self):
        code, text = run(["pclasses", "sts9", "--analyze", "--csv"])
        assert code == EXIT_OK
        assert "class_index,chi,chi_M" in text
        assert "0,2,2" in text

    def test_budget_exceeded_classes_exit_4(self):
        # Certificates settle chi_M on every class and chi on the 22 with
        # chi_M = 3; one node cannot finish the weak search at c = 3 that
        # the other 108 need, so they read None and leave the histogram.
        code, text = run(["pclasses", "sts21", "--analyze", "--csv", "--budget-nodes", "1"])
        assert code == EXIT_BUDGET
        lines = text.splitlines()
        assert sum(line.endswith(",None,4") for line in lines[1:131]) == 108
        assert lines[131:] == ["histogram: chi,chi_M,count", "3,3,22"]


class TestCatalog:
    def test_list(self):
        code, text = run(["catalog", "list"])
        assert code == EXIT_OK
        assert "sts21" in text.split()

    def test_get_round_trips(self, tmp_path):
        code, text = run(["catalog", "get", "td44"])
        assert code == EXIT_OK
        path = tmp_path / "td44.design"
        path.write_text(text)
        code, report = run(["verify", str(path), "--as", "gdd", "--mode", "group-eq"])
        assert code == EXIT_OK
        assert "verdict: pass" in report
        assert "colouring-group-eq: pass" in report

    def test_unknown_entry(self):
        code, _ = run(["catalog", "get", "nothere"])
        assert code == EXIT_UNSUPPORTED

    def test_get_without_a_name(self, capsys):
        assert run(["catalog", "get"]) == (EXIT_UNSUPPORTED, "")
        assert capsys.readouterr().err == "error: catalog get needs a name argument\n"


class TestConstructVerify:
    def test_td_output_reverifies(self, tmp_path):
        code, text = run(["construct", "td", "4", "4"])
        assert code == EXIT_OK
        path = tmp_path / "td.design"
        path.write_text(text)
        code, report = run(["verify", str(path), "--as", "gdd"])
        assert code == EXIT_OK and "verdict: pass" in report

    def test_unsupported_td_order(self):
        code, _ = run(["construct", "td", "4", "6"])
        assert code == EXIT_UNSUPPORTED

    def test_pack_max_emits_colouring(self, tmp_path):
        code, text = run(["construct", "pack-max", "14"])
        assert code == EXIT_OK
        path = tmp_path / "pack.design"
        path.write_text(text)
        code, report = run(["verify", str(path), "--as", "packing", "--mode", "block-eq"])
        assert code == EXIT_OK
        assert "colouring-block-eq: pass" in report

    def test_oversized_failure_listing_is_unsupported(self, tmp_path):
        # 1,124,247 uncovered pairs: more than a BIBD report lists
        path = tmp_path / "sparse.design"
        path.write_text("design v=1500 k=3 lambda=1\nblock: 0 1 2\n")
        assert run(["verify", str(path), "--as", "bibd"]) == (EXIT_UNSUPPORTED, "")
        code, report = run(["verify", str(path), "--as", "packing"])
        assert code == EXIT_OK and "leave-edges: 1124247" in report

    def test_pack_max_unachievable(self):
        code, text = run(["construct", "pack-max", "9"])
        assert code == EXIT_UNSUPPORTED
        assert "unachievable" in text

    def test_pipeline_pc_to_gdd(self, tmp_path):
        code, text = run(["construct", "pc-to-gdd", "sts9", "--class-index", "1"])
        assert code == EXIT_OK
        path = tmp_path / "gdd.design"
        path.write_text(text)
        code, report = run(["verify", str(path), "--as", "gdd"])
        assert code == EXIT_OK and "verdict: pass" in report

    def test_pc_to_gdd_enumerates_up_to_its_class(self, monkeypatch, capsys):
        # a negative index enumerates every class, whose total its
        # message reports
        d = designcolour.catalog_get("sts21").design
        classes, _ = designcolour.enumerate_parallel_classes(d)
        limits = []
        enumerate_classes = designcolour.enumerate_parallel_classes

        def spy(design, limit=None):
            limits.append(limit)
            return enumerate_classes(design, limit)

        monkeypatch.setattr(designcolour, "enumerate_parallel_classes", spy)
        code, text = run(["construct", "pc-to-gdd", "sts21", "--class-index", "3"])
        assert (code, text) == (EXIT_OK, designcolour.render_design(*designcolour.pc_to_gdd(d, classes[3])))
        for index in ("130", "-1"):
            assert run(["construct", "pc-to-gdd", "sts21", "--class-index", index]) == (EXIT_UNSUPPORTED, "")
        assert limits == [4, 131, None]
        assert capsys.readouterr().err == (
            "error: class index 130 out of range (130 classes)\n"
            "error: class index -1 out of range (130 classes)\n"
        )

    def test_delete_point(self, tmp_path):
        code, text = run(["construct", "delete-point", "sts13", "4"])
        assert code == EXIT_OK
        assert "group:" in text

    def test_delete_point_names_the_points_outside_every_group(self, tmp_path, capsys):
        path = tmp_path / "two.design"
        path.write_text("design v=10 k=2 lambda=1\nblock: 0 1\nblock: 2 3\n")
        assert run(["construct", "delete-point", str(path), "0"]) == (EXIT_VALIDATION, "")
        assert capsys.readouterr().err == "error: point 0 shares no block with 8 points: [2, 3, 4, 5, 6]\n"

    def test_delete_point_names_a_pair_on_two_groups(self, tmp_path, capsys):
        # the blocks through 0 share point 1, which would lie in two groups
        path = tmp_path / "twice.design"
        path.write_text("design v=5 k=3 lambda=1\nblock: 0 1 2\nblock: 0 1 3\nblock: 0 2 4\n")
        assert run(["construct", "delete-point", str(path), "0"]) == (EXIT_VALIDATION, "")
        assert capsys.readouterr().err == "error: pair {0, 1} lies in two blocks\n"

    def test_td_colour(self, tmp_path):
        code, text = run(["construct", "td-colour", "5", "4"])
        assert code == EXIT_OK
        path = tmp_path / "tdc.design"
        path.write_text(text)
        code, report = run(["verify", str(path), "--as", "gdd", "--mode", "group-eq"])
        assert code == EXIT_OK and "colouring-group-eq: pass" in report

    def test_geq_blowup(self, tmp_path):
        code, bibd_text = run(["catalog", "get", "bibd13_4"])
        bibd_path = tmp_path / "bibd.design"
        bibd_path.write_text(bibd_text)
        code, td_text = run(["catalog", "get", "td44"])
        td_path = tmp_path / "td.design"
        td_path.write_text(td_text)
        code, text = run(["construct", "geq-blowup", str(bibd_path), str(td_path)])
        assert code == EXIT_OK
        out_path = tmp_path / "big.design"
        out_path.write_text(text)
        code, report = run(["verify", str(out_path), "--as", "gdd", "--mode", "group-eq"])
        assert code == EXIT_OK and "colouring-group-eq: pass" in report

    def test_blowup(self, tmp_path):
        code, text = run(["construct", "blowup", "sts7", "3"])
        assert code == EXIT_OK
        path = tmp_path / "blown.design"
        path.write_text(text)
        code, report = run(["verify", str(path), "--as", "gdd"])
        assert code == EXIT_OK and "verdict: pass" in report

    def test_blowup_of_a_mixed_size_design_is_refused_before_its_td(self, tmp_path, capsys):
        # no TD(4, 6) exists, but the block sizes are refused first
        path = tmp_path / "mixed.design"
        path.write_text("design v=8 k=4 lambda=1\nblock: 0 1 2 3\nblock: 4 5 6 7\nblock: 0 4 5 6 7\n")
        assert run(["construct", "blowup", str(path), "6"]) == (EXIT_UNSUPPORTED, "")
        assert capsys.readouterr().err == "unsupported: blow-up needs a uniform block size\n"

    # sha256 of the stdout of one invocation per family whose bytes
    # `tests/test_packings.py` does not pin; pack-max 8 is its
    # `unachievable:` line
    @pytest.mark.parametrize("argv,code,digest", [
        ("td 4 5", EXIT_OK, "96ce1141f09840faf179173a703fa9458cac2a6d333b476745ef38423bf2f5c3"),
        ("pack-4n2 5", EXIT_OK, "382cd0f8d6c1853720d2517606ce094ff0beb4d07d74d1cd41d68934e94fb844"),
        ("pack-pairs 3", EXIT_OK, "4e3a506fd0be6d369c49d2aaa2f1b3d00a081fc96cd563bd28f9d04fbbba25cb"),
        ("blowup sts7 3", EXIT_OK, "4c6e21d4ed92398d8513f1809ac577fe744120c07c45b345f678e3ad7fdd6f24"),
        ("pc-to-gdd sts9 --class-index 2", EXIT_OK, "da0632cdf827540ddf05675aaebdadaf70cf8c566bc4620fd825abffc9250a5b"),
        ("delete-point sts13 4", EXIT_OK, "d9801e561e81db09314ea4f319a0c9f957f720e213ef2c2843da577089c8944c"),
        ("td-colour 5 4", EXIT_OK, "0d9c7308ac83327a70ff6725e7198b50cec37beb1545cdb7fc295246df63e7ee"),
        ("geq-blowup bibd13_4 td44", EXIT_OK, "d88755fc74d25e98ed7a61fdbe8f7e502a70aad5fbdbd9a535775c6f3f51c496"),
        ("pack-max 8", EXIT_UNSUPPORTED, "9decf50b16e4ce8ef3fd17bbe3fcb2300a31555da61d0340bffdfd3107a6e09f"),
    ])
    def test_family_bytes(self, argv, code, digest, capsys):
        got, text = run(["construct", *argv.split()])
        assert (got, hashlib.sha256(text.encode()).hexdigest()) == (code, digest)
        assert capsys.readouterr().err == ""


# sha256 of each parser's `--help` text at 80 columns
@pytest.mark.parametrize("command,digest", [
    ("", "6a74c9a2f65e1aa822a2510b30ea9a7e0dd440e80c90a430bd7359165be0ddef"),
    ("construct", "6b44066d33670e232e23971d2de8321935cc7465ca8fd63a9e68e119a0d1ae9a"),
    ("verify", "d96b10453b42599cdd8402031565a50c8c4afa6617570db9854a9d26f0bd175a"),
    ("chromatic", "31ee819b1407d236fdb3d6924da2eaafd47187c68999ef08ba2b0cb114a5fc55"),
    ("pclasses", "7333b46f492f2c92c04d5e38b416d5f9bebce5aca1a265aebe2f02dc232a0817"),
    ("bound", "a35a50e0f06fb259636b0e46479f9645db96b44c98f903aa6c1373935e1403e2"),
    ("catalog", "f108defbd3e55d298209fa7014c7b348fac691d807b8b561c8365be94c9724cc"),
])
def test_help_bytes(command, digest, monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "80")
    assert run([*command.split(), "--help"]) == (EXIT_OK, "")
    help_text = capsys.readouterr().out
    assert hashlib.sha256(help_text.encode()).hexdigest() == digest, help_text


class TestExitCodes:
    def test_parse_error(self, tmp_path):
        path = tmp_path / "bad.design"
        path.write_text("design v=4 k=3 lambda=1\nblock: 0 0 1\n")
        code, _ = run(["verify", str(path)])
        assert code == EXIT_PARSE

    def test_validation_failure(self, tmp_path):
        path = tmp_path / "notbibd.design"
        path.write_text("design v=4 k=3 lambda=1\nblock: 0 1 2\n")
        code, text = run(["verify", str(path), "--as", "bibd"])
        assert code == EXIT_VALIDATION
        assert "verdict: fail" in text

    def test_group_mono_chromatic_with_a_block_inside_a_group(self, tmp_path):
        # no group-monochromatic colouring exists, so there is no chi_M
        path = tmp_path / "inside.design"
        path.write_text("design v=3 k=3 lambda=1\nblock: 0 1 2\ngroup: 0 1 2\n")
        assert run(["chromatic", str(path), "--mode", "group-mono"]) == (EXIT_VALIDATION, "")

    def test_analyze_with_a_repeated_block(self, tmp_path):
        # sts9 with every block twice: a class's blocks are repeated inside
        # the groups of its GDD
        code, text = run(["catalog", "get", "sts9"])
        assert code == EXIT_OK
        blocks = [line for line in text.splitlines() if line.startswith("block:")]
        path = tmp_path / "sts9x2.design"
        path.write_text("design v=9 k=3 lambda=2\n" + "".join(f"{b}\n{b}\n" for b in blocks))
        assert run(["pclasses", str(path), "--analyze"]) == (EXIT_VALIDATION, "")

    def test_usage_errors(self, capsys):
        # a missing parameter, a non-integer parameter, zero budgets and
        # limits, options that do not go together and parameters the
        # library rejects, each with the last line it writes to stderr:
        # `unsupported:` from the library, `error:` from the CLI, and
        # argparse's own line after its usage lines
        families = (
            "'td', 'pack-max', 'pack-4n2', 'pack-pairs', 'blowup', 'pc-to-gdd', "
            "'delete-point', 'td-colour', 'geq-blowup'"
        )
        for argv, line in (
            (["construct", "td"], "error: usage: designcolour construct td <int> <int>"),
            (["construct", "pack-max"], "error: usage: designcolour construct pack-max <int>"),
            (["construct", "td", "4", "x"], "error: usage: designcolour construct td <int> <int>"),
            (["chromatic", "sts7", "--budget-nodes", "0"],
             "designcolour chromatic: error: argument --budget-nodes: must be at least 1, got 0"),
            (["bound", "3", "4", "2"], "unsupported: requires v >= k"),
            (["chromatic", "sts7", "--budget-secs", "0"],
             "designcolour chromatic: error: argument --budget-secs: must be positive, got 0"),
            (["construct", "pack-max", "-5"], "unsupported: v must be non-negative"),
            (["construct", "delete-point", "sts13", "99"], "unsupported: point 99 out of range"),
            (["bound", "5", "2", "2"], "unsupported: requires k >= 3 and c >= 2"),
            (["bound", "-5", "4", "2", "--tight"], "unsupported: v must be non-negative"),
            (["construct", "pack-pairs", "-1"], "unsupported: s must be at least 2"),
            (["construct", "blowup", "sts7", "0"], "unsupported: expansion factor must be positive"),
            (["chromatic", "sts7", "--mode", "group-mono"],
             "unsupported: mode 'group-monochromatic' requires a grouping"),
            (["pclasses", "sts9", "--limit", "0"],
             "designcolour pclasses: error: argument --limit: must be at least 1, got 0"),
            (["pclasses", "sts9", "--limit", "-1"],
             "designcolour pclasses: error: argument --limit: must be at least 1, got -1"),
            (["pclasses", "sts9", "--analyze", "--limit", "2"],
             "error: --limit applies to listing classes, not to --analyze"),
            (["pclasses", "sts9", "--csv"], "error: --csv applies to --analyze, not to listing classes"),
            (["construct", "pc-to-gdd", "sts9", "--class-index", "-1"],
             "error: class index -1 out of range (4 classes)"),
            (["construct", "pc-to-gdd", "sts9", "--class-index", "-5"],
             "error: class index -5 out of range (4 classes)"),
            (["verify", "pack7", "--as", "packing", "--mode", "group-eq"],
             "error: group colouring modes need a grouping"),
            (["verify", "sts9", "--mode", "block-eq"],
             "error: --mode needs a colouring, from --colouring or the design file"),
            (["catalog", "list", "sts9"], "error: catalog list takes no name, got 'sts9'"),
            (["verify", "pack7", "--as", "gdd"], "error: no grouping present for GDD validation"),
            (["catalog", "get"], "error: catalog get needs a name argument"),
            (["construct", "geq-blowup", "sts7", "sts7"], "error: the second design needs groups and a colouring"),
            (["construct", "td", "4", "5", "--class-index", "7"],
             "error: --class-index applies to pc-to-gdd, not to td"),
            (["construct", "nosuch"],
             f"designcolour construct: error: argument family: invalid choice: 'nosuch' (choose from {families})"),
        ):
            assert run(argv) == (EXIT_UNSUPPORTED, ""), argv
            err = capsys.readouterr().err
            assert err.splitlines()[-1] == line, argv
            # only argparse writes more than the one line
            assert err.count("\n") == 1 or line.startswith("designcolour "), argv

    def test_colouring_over_another_point_count(self, tmp_path, capsys):
        # a usage error, found before any report line
        path = tmp_path / "two.colouring"
        path.write_text("colouring c=2\n0 0\n1 1\n")
        for extra in ([], ["--mode", "weak"], ["--as", "bibd", "--mode", "block-eq"]):
            argv = ["verify", "sts7", "--colouring", str(path), *extra]
            assert run(argv) == (EXIT_UNSUPPORTED, ""), argv
            assert "the colouring has 2 points, the design 7" in capsys.readouterr().err

    def test_input_files_that_cannot_be_read(self, tmp_path, capsys):
        # a directory or a missing file: an error line and exit 2, as for
        # any other bad input, not a traceback
        missing = tmp_path / "missing.colouring"
        for argv, path in (
            (["verify", str(tmp_path)], tmp_path),
            (["verify", "sts7", "--colouring", str(tmp_path)], tmp_path),
            (["verify", "sts7", "--colouring", str(missing)], missing),
            (["construct", "blowup", str(tmp_path), "2"], tmp_path),
        ):
            assert run(argv) == (EXIT_VALIDATION, ""), argv
            err = capsys.readouterr().err
            assert err.startswith("error: [Errno ") and err.endswith(f"{str(path)!r}\n"), argv
            assert err.count("\n") == 1, argv

    def test_missing_design_path_is_an_unreadable_file(self, tmp_path, monkeypatch, capsys):
        # an argument with a dot or a path separator is a path, so a
        # missing design file fails as a missing --colouring does; a bare
        # unknown name is still looked up in the catalog
        monkeypatch.chdir(tmp_path)
        for argv, path in (
            (["verify", "missing.design"], "missing.design"),
            (["chromatic", "sts7.txt"], "sts7.txt"),
            (["pclasses", os.path.join("nowhere", "sts7")], os.path.join("nowhere", "sts7")),
            (["construct", "blowup", "missing.design", "2"], "missing.design"),
        ):
            assert run(argv) == (EXIT_VALIDATION, ""), argv
            err = capsys.readouterr().err
            assert err == f"error: [Errno 2] No such file or directory: {path!r}\n", argv
        assert run(["verify", "sts99"]) == (EXIT_UNSUPPORTED, "")
        err = capsys.readouterr().err
        assert err.startswith("unsupported: unknown catalog entry 'sts99' (known: ") and "sts7" in err
        # an existing file is read whatever its name
        (tmp_path / "sts7").write_text(render_design(designcolour.catalog_get("sts9").design))
        assert "v: 9" in run(["verify", "sts7"])[1]

    def test_huge_order_with_too_few_blocks(self, tmp_path):
        # two blocks cannot cover 2**36 points, so no class search starts
        # and nothing of size v is allocated; one process at a time, each
        # under a 1 GiB address-space limit
        path = tmp_path / "huge.design"
        path.write_text("design v=68719476736 k=2 lambda=1\nblock: 0 1\nblock: 2 3\n")
        for argv, expected in (
            (["pclasses", str(path)], (EXIT_OK, "classes: 0\n")),
            (["pclasses", str(path), "--analyze"], (EXIT_OK, "histogram: chi,chi_M,count\n")),
            (["construct", "pc-to-gdd", str(path)], (EXIT_UNSUPPORTED, "")),
            # a colouring search and a singleton grouping refuse more than
            # 2**20 points before allocating a table entry per point
            (["chromatic", str(path), "--budget-nodes", "10"], (EXIT_UNSUPPORTED, "")),
            (["construct", "blowup", str(path), "2"], (EXIT_UNSUPPORTED, "")),
            (["verify", str(path)], (EXIT_UNSUPPORTED, "")),
            (["verify", str(path), "--as", "packing"], (EXIT_OK, (
                "leave-edges: 2361183241400462868478\nverdict: pass\nblocks: 2\nk: 2\n"
                "lambda: 1\nsize: 2\nv: 68719476736\nviolations: 0\n"
            ))),
            (["verify", str(path), "--as", "gdd"], (EXIT_UNSUPPORTED, "")),
            (["chromatic", str(path), "--mode", "group-mono"], (EXIT_UNSUPPORTED, "")),
            # the points outside both blocks are counted, not listed
            (["construct", "delete-point", str(path), "0"], (EXIT_VALIDATION, "")),
            (["construct", "geq-blowup", str(path), "td44"], (EXIT_UNSUPPORTED, "")),
            (["pclasses", str(path), "--limit", "1"], (EXIT_OK, "classes: 0\n")),
        ):
            proc = run_capped(argv)
            assert (proc.returncode, proc.stdout) == expected, (argv, proc.stderr)

    def test_huge_blow_up_of_a_design_without_blocks(self, tmp_path):
        # no blocks pass the block limit, so the 3 * 10**8 output points
        # are refused by the point limit before a group is built
        path = tmp_path / "empty.design"
        path.write_text("design v=3 k=3 lambda=1\n")
        proc = run_capped(["construct", "blowup", str(path), "100000000"])
        assert (proc.returncode, proc.stdout) == (EXIT_UNSUPPORTED, ""), proc.stderr
        assert proc.stderr.startswith("unsupported: ") and "-point limit" in proc.stderr

    @pytest.mark.parametrize(
        "header,copies,limit",
        [("design v=200000 k=9 lambda=1", 1, "-point limit"), ("design v=9 k=9 lambda=1", 65601, "-block limit")],
    )
    def test_a_huge_group_equitable_blow_up_is_refused(self, tmp_path, header, copies, limit):
        # by a TD(9, 8) of 64 blocks: 1.6 million points from one block,
        # or 4,198,464 blocks from 65,601 copies of it
        (tmp_path / "source.design").write_text(header + "\n" + "block: 0 1 2 3 4 5 6 7 8\n" * copies)
        code, td_text = run(["construct", "td-colour", "9", "8"])
        assert code == EXIT_OK
        (tmp_path / "td.design").write_text(td_text)
        proc = run_capped(["construct", "geq-blowup", "source.design", "td.design"], cwd=tmp_path)
        assert (proc.returncode, proc.stdout) == (EXIT_UNSUPPORTED, ""), proc.stderr
        assert proc.stderr.startswith("unsupported: the group-equitable blow-up by 8 ") and limit in proc.stderr

    @pytest.mark.parametrize(
        "argv",
        [
            ["construct", "td", "3", "1000000007"],
            ["construct", "blowup", "sts7", "1000000007"],
            ["construct", "td-colour", "5", "1000003"],
            ["construct", "pack-max", "100000000"],
            ["construct", "pack-4n2", "100000001"],
            ["construct", "pack-pairs", "100000000"],
        ],
    )
    def test_a_huge_construction_is_refused_before_it_is_built(self, argv):
        # each parameter gives far more blocks than the block limit
        proc = run_capped(argv)
        assert (proc.returncode, proc.stdout) == (EXIT_UNSUPPORTED, ""), proc.stderr
        assert proc.stderr.startswith("unsupported: ") and "-block limit" in proc.stderr

    @pytest.mark.parametrize("k,g", [(3, 1000), (4, 2000), (4, 6)])
    def test_a_td_colour_outside_the_regime_is_refused_before_its_td_is_built(self, k, g):
        # the colouring's condition on (k, g) is read before the TD is
        # built: TD(4, 2000) has 4,000,000 blocks, more than the 1 GiB cap
        # lets it build, and no construction reaches TD(4, 6)
        proc = run_capped(["construct", "td-colour", str(k), str(g)])
        assert (proc.returncode, proc.stdout) == (EXIT_UNSUPPORTED, ""), proc.stderr
        assert proc.stderr == (
            f"unsupported: needs group size >= 4 and k + 2 groups with k > ceil(g/2); got g={g}, k={k - 2}\n"
        )

    @pytest.mark.parametrize(
        "mode,violation",
        [
            ("block-eq", "block-colour-count: (0, (0, 1, 2, 3), 0, 4)"),
            ("group-eq", "monochromatic-block: (0, (0, 1, 2, 3))"),
        ],
    )
    def test_a_huge_palette_is_checked_without_a_count_per_colour(self, tmp_path, mode, violation):
        # a block or group of four points holds at most four of the four
        # billion colours, and only those are counted
        (tmp_path / "four.design").write_text(
            "design v=4 k=4 lambda=1\nblock: 0 1 2 3\n" + "".join(f"group: {p}\n" for p in range(4))
        )
        (tmp_path / "huge.col").write_text("colouring c=4000000000\n" + "".join(f"{p} 0\n" for p in range(4)))
        proc = run_capped(["verify", "four.design", "--colouring", "huge.col", "--mode", mode], cwd=tmp_path)
        report = (
            "verdict: pass\nadmissible: True\nblocks: 1\nk: 4\nlambda: 1\nu: 4\nuniform-groups: True\n"
            f"v: 4\nviolations: 0\ncolouring-{mode}: fail\ncolouring-violation: {violation}\n"
        )
        assert (proc.returncode, proc.stdout) == (EXIT_VALIDATION, report), proc.stderr

    def test_deep_searches_and_long_listings(self, tmp_path):
        # a colouring search one variable deep per point, an exact cover
        # one block deep per block, and a failure listing of one cross
        # pair per point of a giant group; one process at a time
        v = 100_000
        files = {
            "deep.design": "design v=5000 k=2 lambda=1\nblock: 0 1\n",
            "disjoint.design": "design v=4000 k=4 lambda=1\n"
            + "".join(f"block: {i} {i + 1} {i + 2} {i + 3}\n" for i in range(0, 4000, 4)),
            "giant.design": f"design v={v} k=2 lambda=1\nblock: 0 {v - 1}\n"
            + "group: " + " ".join(map(str, range(v - 1))) + f"\ngroup: {v - 1}\n",
        }
        for name, text in files.items():
            (tmp_path / name).write_text(text)
        for argv, code, head in (
            (["chromatic", "deep.design"], EXIT_OK, "chi: 2\nrefuted-at: 1 nodes: 1\n"),
            (["pclasses", "disjoint.design"], EXIT_OK, "classes: 1\n"),
            (["verify", "giant.design", "--as", "gdd"], EXIT_VALIDATION, "verdict: fail\n"),
        ):
            proc = subprocess.run(
                [sys.executable, "-m", "designcolour.cli", *argv],
                capture_output=True, text=True, timeout=60, env=cli_env(), cwd=tmp_path,
            )
            assert proc.returncode == code, (argv, proc.stderr)
            assert proc.stdout.startswith(head), argv
            assert "Traceback" not in proc.stderr, argv
        # every point of the giant group but 0 misses the singleton
        assert f"violations: {v - 2}\n" in proc.stdout

    def test_reader_closing_stdout_early(self, tmp_path):
        # the listing of a v = 20,000 giant group outgrows a pipe buffer,
        # so the process is still writing when its reader goes away
        v = 20_000
        (tmp_path / "giant.design").write_text(
            f"design v={v} k=2 lambda=1\nblock: 0 {v - 1}\n"
            + "group: " + " ".join(map(str, range(v - 1))) + f"\ngroup: {v - 1}\n"
        )
        proc = subprocess.Popen(
            [sys.executable, "-m", "designcolour.cli", "verify", "giant.design", "--as", "gdd"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=cli_env(), cwd=tmp_path,
        )
        try:
            assert proc.stdout.read(300).startswith(b"verdict: fail\n")
            proc.stdout.close()
            stderr = proc.stderr.read()
            assert proc.wait(timeout=60) == 1
        finally:
            proc.kill()
            proc.wait()
            proc.stderr.close()
        assert stderr == b""


class TestDeterminism:
    def test_identical_bytes_on_repeat(self):
        first = run(["pclasses", "sts9", "--analyze", "--csv"])
        second = run(["pclasses", "sts9", "--analyze", "--csv"])
        assert first == second

    def test_jobs_below_one_is_a_usage_error(self):
        for jobs in ("0", "-3", "x"):
            assert run(["pclasses", "sts9", "--jobs", jobs]) == (EXIT_UNSUPPORTED, "")

    def test_jobs_do_not_change_output(self):
        serial = run(["pclasses", "sts9", "--analyze", "--jobs", "1"])
        fanned = run(["pclasses", "sts9", "--analyze", "--jobs", "3"])
        assert serial == fanned
