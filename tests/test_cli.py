"""Command-line surface: output shapes, exit codes, determinism."""
import io
import os
import resource
import subprocess
import sys
from pathlib import Path

import designcolour
from designcolour.cli import (
    EXIT_BUDGET,
    EXIT_OK,
    EXIT_PARSE,
    EXIT_UNSUPPORTED,
    EXIT_VALIDATION,
    cli_main,
)


def run(argv):
    out = io.StringIO()
    code = cli_main(argv, out=out)
    return code, out.getvalue()


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

    def test_delete_point(self, tmp_path):
        code, text = run(["construct", "delete-point", "sts13", "4"])
        assert code == EXIT_OK
        assert "group:" in text

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

    def test_usage_errors(self):
        # a missing parameter, a non-integer parameter, zero budgets and
        # limits, options that do not go together and parameters the
        # library rejects
        for argv in (
            ["construct", "td"],
            ["construct", "pack-max"],
            ["construct", "td", "4", "x"],
            ["chromatic", "sts7", "--budget-nodes", "0"],
            ["bound", "3", "4", "2"],
            ["chromatic", "sts7", "--budget-secs", "0"],
            ["construct", "pack-max", "-5"],
            ["construct", "delete-point", "sts13", "99"],
            ["bound", "5", "2", "2"],
            ["bound", "-5", "4", "2", "--tight"],
            ["construct", "pack-pairs", "-1"],
            ["construct", "blowup", "sts7", "0"],
            ["chromatic", "sts7", "--mode", "group-mono"],
            ["pclasses", "sts9", "--limit", "0"],
            ["pclasses", "sts9", "--limit", "-1"],
            ["pclasses", "sts9", "--analyze", "--limit", "2"],
            ["pclasses", "sts9", "--csv"],
            ["construct", "pc-to-gdd", "sts9", "--class-index", "-1"],
            ["construct", "pc-to-gdd", "sts9", "--class-index", "-5"],
            ["verify", "pack7", "--as", "packing", "--mode", "group-eq"],
            ["verify", "sts9", "--mode", "block-eq"],
            ["catalog", "list", "sts9"],
        ):
            assert run(argv) == (EXIT_UNSUPPORTED, ""), argv

    def test_colouring_over_another_point_count(self, tmp_path, capsys):
        # a usage error, found before any report line
        path = tmp_path / "two.colouring"
        path.write_text("colouring c=2\n0 0\n1 1\n")
        for extra in ([], ["--mode", "weak"], ["--as", "bibd", "--mode", "block-eq"]):
            argv = ["verify", "sts7", "--colouring", str(path), *extra]
            assert run(argv) == (EXIT_UNSUPPORTED, ""), argv
            assert "the colouring has 2 points, the design 7" in capsys.readouterr().err

    def test_huge_order_with_too_few_blocks(self, tmp_path):
        # two blocks cannot cover 2**36 points, so no class search starts
        # and nothing of size v is allocated; one process at a time, each
        # under a 1 GiB address-space limit
        path = tmp_path / "huge.design"
        path.write_text("design v=68719476736 k=2 lambda=1\nblock: 0 1\nblock: 2 3\n")
        src = str(Path(designcolour.__file__).resolve().parent.parent)
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))

        def limit_memory():
            resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

        for argv, expected in (
            (["pclasses", str(path)], (EXIT_OK, "classes: 0\n")),
            (["pclasses", str(path), "--analyze"], (EXIT_OK, "histogram: chi,chi_M,count\n")),
            (["construct", "pc-to-gdd", str(path)], (EXIT_UNSUPPORTED, "")),
        ):
            proc = subprocess.run(
                [sys.executable, "-m", "designcolour.cli", *argv],
                capture_output=True, text=True, timeout=60, env=env, preexec_fn=limit_memory,
            )
            assert (proc.returncode, proc.stdout) == expected, (argv, proc.stderr)
            assert "Traceback" not in proc.stderr, argv

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
        src = str(Path(designcolour.__file__).resolve().parent.parent)
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        for argv, code, head in (
            (["chromatic", "deep.design"], EXIT_OK, "chi: 2\nrefuted-at: 1 nodes: 1\n"),
            (["pclasses", "disjoint.design"], EXIT_OK, "classes: 1\n"),
            (["verify", "giant.design", "--as", "gdd"], EXIT_VALIDATION, "verdict: fail\n"),
        ):
            proc = subprocess.run(
                [sys.executable, "-m", "designcolour.cli", *argv],
                capture_output=True, text=True, timeout=60, env=env, cwd=tmp_path,
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
        src = str(Path(designcolour.__file__).resolve().parent.parent)
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        proc = subprocess.Popen(
            [sys.executable, "-m", "designcolour.cli", "verify", "giant.design", "--as", "gdd"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env, cwd=tmp_path,
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
