import json
import math
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import sumsetlab
import sumsetlab.cli as cli
import sumsetlab.engine as engine
from sumsetlab.bounds import BoundReport
from sumsetlab.errors import BadParams
from sumsetlab.intset import IntegerSet
from sumsetlab import search
from sumsetlab.search import SETS_PER_WORKER, SPACE_CAP, SearchReport, SearchSpace


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def lines_of(out):
    return out.strip().splitlines()


class TestSetLiteral:
    def test_parses_and_sorts(self):
        assert cli.parse_set_literal("5, 1 ,3").elements == (1, 3, 5)

    def test_rejects_duplicates(self):
        with pytest.raises(BadParams):
            cli.parse_set_literal("1,3,3")

    def test_rejects_garbage(self):
        with pytest.raises(BadParams):
            cli.parse_set_literal("1,three,5")
        with pytest.raises(BadParams):
            cli.parse_set_literal("")

    def test_negative_elements(self):
        assert cli.parse_set_literal("-3,1,-5").elements == (-5, -3, 1)


class TestCompute:
    def test_rss_reference(self, capsys):
        code, out, _ = run(capsys, "compute", "--set", "1,3,5,7", "--variant", "rss", "--h", "3")
        assert code == 0
        assert out == "cardinality=16\n"

    def test_negative_first_element_needs_the_equals_form(self, capsys):
        code, out, _ = run(capsys, "compute", "--set=-3,-1", "--variant", "subsums",
                           "--values")
        assert code == 0
        assert lines_of(out) == ["cardinality=4", "values=-4,-3,-1,0"]

    def test_subsums_reference(self, capsys):
        code, out, _ = run(capsys, "compute", "--set", "1,3,5", "--variant", "subsums", "--values")
        assert code == 0
        assert lines_of(out) == ["cardinality=8", "values=0,1,3,4,5,6,8,9"]

    def test_fold_exceeds_size(self, capsys):
        code, _, err = run(capsys, "compute", "--set", "1,2", "--variant", "rss", "--h", "3")
        assert code == 2
        assert err.startswith("error:")

    def test_subsums_rejects_fold(self, capsys):
        code, _, err = run(capsys, "compute", "--set", "1,3,5", "--variant", "subsums", "--h", "3")
        assert code == 2 and "drop --h" in err

    def test_fold_required_otherwise(self, capsys):
        code, _, err = run(capsys, "compute", "--set", "1,3,5", "--variant", "plain")
        assert code == 2 and "needs --h" in err

    def test_json_schema(self, capsys):
        code, out, _ = run(capsys, "compute", "--set", "1,3,5,7", "--h", "3", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert list(doc) == ["values", "cardinality"]
        assert doc["cardinality"] == 16 and len(doc["values"]) == 16

    def test_duplicate_set_rejected(self, capsys):
        code, _, err = run(capsys, "compute", "--set", "1,3,3", "--h", "2")
        assert code == 2 and "duplicate" in err

    def test_csv_not_available(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["compute", "--set", "1,3", "--h", "2", "--format", "csv"])
        out, err = capsys.readouterr()
        assert exc.value.code == 2 and out == ""
        assert "--format" in err and "'csv'" in err


class TestVerify:
    def test_sum_closure_equality(self, capsys):
        code, out, _ = run(capsys, "verify", "--set", "1,3,5,9", "--h", "4")
        assert code == 0
        text = out
        assert "verdict=EqualityAndPredictedStructure" in text
        assert "classification=SumClosure4(a1=1,a2=3,a3=5)" in text
        assert "result=ok" in text

    def test_dilated_progression_equality(self, capsys):
        code, out, _ = run(capsys, "verify", "--set", "2,6,10,14", "--h", "3")
        assert code == 0
        assert "verdict=EqualityAndPredictedStructure" in out
        assert "classification=DilatedOddProgression(d=2)" in out

    def test_strict_inequality(self, capsys):
        code, out, _ = run(capsys, "verify", "--set", "1,2,3,4", "--h", "3")
        assert code == 0
        assert "verdict=StrictInequality" in out
        assert "result=ok" in out

    def test_case3_text_names_what_its_predicate_reads(self, capsys):
        # {1,2,3,4,5}: the 2nd element differs in parity from the 1st and the
        # 3rd does not, so case 3 applies though the 4th differs as well; the
        # entry's text must claim no more than that.
        code, out, _ = run(capsys, "verify", "--set", "1,2,3,4,5", "--h", "4")
        assert code == 0
        assert ("bound id=MixedParity_case3_notAP status=proved bound=26 observed=29 "
                "slack=3 met=true") in lines_of(out)
        code, out, _ = run(capsys, "bounds", "--format", "json")
        (entry,) = [e for e in json.loads(out) if e["id"] == "MixedParity_case3_notAP"]
        assert entry["hypotheses"] == (
            "k = h+1, h >= 4, A positive, 2nd element differs in parity from the 1st, "
            "3rd does not, A minus its 2nd element is not an AP"
        )

    def test_unsupported_regime_still_reports(self, capsys):
        code, out, _ = run(capsys, "verify", "--set", "1,3,5,7", "--h", "2")
        assert code == 0
        assert "inverse=unsupported" in out
        assert "result=ok" in out

    def test_json_round_trip(self, capsys):
        code, out, _ = run(capsys, "verify", "--set", "1,3,5,9", "--h", "4", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert list(doc) == [
            "set", "k", "h", "rss_cardinality", "restricted_cardinality",
            "bounds", "inverse", "falsified",
        ]
        assert json.dumps(doc, indent=2) + "\n" == out
        assert doc["falsified"] is False
        assert doc["inverse"]["verdict"] == "EqualityAndPredictedStructure"
        for bound in doc["bounds"]:
            assert list(bound) == ["id", "k", "h", "bound", "observed", "slack", "met"]

    def test_json_null_inverse_when_unsupported(self, capsys):
        code, out, _ = run(capsys, "verify", "--set", "1,3,5,7", "--h", "2", "--format", "json")
        assert code == 0
        assert json.loads(out)["inverse"] is None

    # h=3: an inverse regime covers {1,3,5,9}, so the verdict's fold is the
    # report's rss count; h=2: none does, so verify folds rss itself.
    @pytest.mark.parametrize("fmt", ["text", "json"])
    @pytest.mark.parametrize("h, covered", [("3", True), ("2", False)])
    def test_folds_each_sumset_once(self, capsys, monkeypatch, h, covered, fmt):
        import sumsetlab.inverse as inverse_mod

        calls = []

        def counted(fn):
            def wrapper(*args):
                calls.append(args)
                return fn(*args)
            return wrapper

        monkeypatch.setattr(cli, "count_dp", counted(cli.count_dp))
        monkeypatch.setattr(inverse_mod, "count_dp", counted(inverse_mod.count_dp))
        code, out, _ = run(capsys, "verify", "--set", "1,3,5,9", "--h", h, "--format", fmt)
        assert code == 0
        if fmt == "json":
            assert (json.loads(out)["inverse"] is not None) == covered
        else:
            assert ("inverse=unsupported" not in out) == covered
        # The rss and the restricted sumset, one fold each.
        assert len(calls) == len(set(calls)) == 2

    @pytest.mark.parametrize("entry_id, code", [("RSS_direct", 1), ("RSS_conj2", 0)])
    def test_only_a_proved_bound_falsifies(self, capsys, monkeypatch, entry_id, code):
        # No sound catalogue entry fails on a real set; tamper with the
        # reports to pin the exit code.
        miss = BoundReport(entry_id, k=4, h=2, bound=99, observed=10, slack=-89, met=False)
        monkeypatch.setattr(cli, "check_bounds", lambda *args: [miss])
        got, out, _ = run(capsys, "verify", "--set", "1,3,5,7", "--h", "2")
        assert got == code
        assert f"bound id={entry_id}" in out
        assert lines_of(out)[-1] == ("result=falsified" if code else "result=ok")


class TestDecodeFree:
    """verify and a text compute without --values read only counts, so they
    run without the value decoder; a report that lists values still uses it."""

    class Decoded(Exception):
        pass

    def no_decoding(self, monkeypatch):
        def decode(*args):
            raise self.Decoded

        monkeypatch.setattr(engine, "_bits_to_values", decode)

    # {1,3,5,9} has an inverse regime at h=3 and none at h=2.
    @pytest.mark.parametrize("argv", [
        ["verify", "--set", "1,3,5,9", "--h", "3"],
        ["verify", "--set", "1,3,5,9", "--h", "2"],
        ["verify", "--set", "1,3,5,9", "--h", "3", "--format", "json"],
        ["verify", "--set", "1,3,5,9", "--h", "2", "--format", "json"],
        ["compute", "--set", "1,3,5,9", "--variant", "restricted", "--h", "2"],
    ])
    def test_counts_without_decoding(self, capsys, monkeypatch, argv):
        expected = run(capsys, *argv)
        self.no_decoding(monkeypatch)
        assert run(capsys, *argv) == expected

    @pytest.mark.parametrize("argv", [
        ["compute", "--set", "1,3,5,9", "--h", "3", "--format", "json"],
        ["compute", "--set", "1,3,5,9", "--h", "3", "--values"],
        ["witness", "--lemma", "all-odd-extension", "--set", "1,3,5,9", "--h", "3"],
    ])
    def test_value_reports_decode(self, monkeypatch, argv):
        self.no_decoding(monkeypatch)
        with pytest.raises(self.Decoded):
            cli.main(argv)


class TestSearch:
    def test_positive_reference(self, capsys):
        code, out, _ = run(capsys, "search", "--k", "4", "--h", "3", "--max", "9")
        assert code == 0
        text = lines_of(out)
        assert "min=16 bound=16 slack=0" in text
        assert "bound_status=theorem" in text
        assert "minimizer=1,3,5,7" in text
        assert "falsified=false" in text

    def test_shards_do_not_change_output(self, capsys, pooled_splits):
        # Each worker gets one shard, so 8 workers split the space 8 ways,
        # here into its 4 ranges, run by the pool in-process.
        base = run(capsys, "search", "--k", "5", "--h", "4", "--max", "11",
                   "--workers", "1", "--format", "json")
        sharded = run(capsys, "search", "--k", "5", "--h", "4", "--max", "11",
                      "--workers", "8", "--format", "json")
        assert pooled_splits == [4]
        assert base[0] == sharded[0] == 0
        assert base[1] == sharded[1]

    def test_default_workers_are_the_cpu_count(self, capsys, monkeypatch, in_process_pool):
        # 593,775 sets are five workers' worth; without --workers, three
        # usable CPUs give three workers and three shards.
        assert 5 * SETS_PER_WORKER <= 593_775 < 6 * SETS_PER_WORKER
        monkeypatch.setattr(search, "usable_cpus", lambda: 3)
        argv = ("search", "--k", "6", "--h", "4", "--max", "30", "--format", "json")
        default = run(capsys, *argv)
        assert in_process_pool == [3]
        assert default == run(capsys, *argv, "--workers", "1")
        assert default[0] == 0

    def test_broken_pool_exits_2_with_one_error_line(self, capsys, monkeypatch, broken_pool):
        # A broken pool is an error, not a falsification: exit 2, not 1.
        monkeypatch.setattr(search, "usable_cpus", lambda: 2)
        code, out, err = run(capsys, "search", "--k", "6", "--h", "4", "--max", "27",
                             "--workers", "2")
        assert (code, out) == (2, "")
        assert err.startswith("error: search pool of 2 workers broke: ")
        assert err.count("\n") == 1

    def test_zero_regime_is_conjecture_tagged(self, capsys):
        code, out, _ = run(capsys, "search", "--k", "5", "--h", "3", "--max", "9",
                           "--regime", "zero")
        assert code == 0
        text = lines_of(out)
        assert "bound_status=conjecture" in text
        assert "min=19 bound=19 slack=0" in text
        assert "falsified=false" in text

    def test_json_round_trip(self, capsys):
        code, out, _ = run(capsys, "search", "--k", "4", "--h", "3", "--max", "9",
                           "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert json.dumps(doc, indent=2) + "\n" == out
        assert doc["min"] == 16 and doc["falsified"] is False

    def test_csv_output(self, capsys):
        code, out, _ = run(capsys, "search", "--k", "4", "--h", "3", "--max", "9",
                           "--format", "csv")
        assert code == 0
        assert lines_of(out) == [
            "k,h,N,regime,min,bound,slack,minimizer_count,falsified",
            "4,3,9,positive,16,16,0,1,false",
        ]

    def test_fold_outside_the_window_is_labelled(self, capsys):
        # h = k is outside 3 <= h <= k-1: the space runs, labelled, and is
        # never falsified.
        code, out, err = run(capsys, "search", "--k", "4", "--h", "4", "--max", "9")
        assert code == 0 and err == ""
        text = lines_of(out)
        assert text[0] == "k=4 h=4 max=9 regime=positive/outside-stated-hypotheses"
        assert text[-1] == "falsified=false"

    def test_fold_cap(self, capsys):
        code, out, err = run(capsys, "search", "--k", "65", "--h", "65", "--max", "65",
                             "--workers", "1")
        assert code == 2 and out == ""
        assert err == "error: fold count 65 exceeds supported cap 64\n"

    def test_table_memory_cap(self, capsys):
        code, out, err = run(capsys, "search", "--k", "60000", "--h", "3",
                             "--max", "60000")
        assert code == 2 and out == ""
        assert err.startswith("error: search tables need about")

    @pytest.mark.parametrize("workers", ["0", "-2"])
    def test_rejects_fewer_than_one_worker(self, capsys, workers):
        code, out, err = run(capsys, "search", "--k", "4", "--h", "3", "--max", "9",
                             "--workers", workers)
        assert code == 2 and out == ""
        assert err == f"error: need at least 1 worker, got {workers}\n"

    def test_falsified_report_exits_one(self, capsys, monkeypatch):
        # No honest desk-scale input falsifies the theorem; fake the report
        # to pin down the exit-code plumbing.
        fake = SearchReport(
            k=4, h=3, max_element=9, regime="positive", minimum=15, bound=16,
            minimizer_count=1, minimizers=((1, 2, 3, 4),),
            classes={"Other": 1}, falsified=True,
        )
        # cmd_search looks minimize up in search when it runs.
        monkeypatch.setattr(sumsetlab.search, "minimize",
                            lambda space, shards, workers: fake)
        code, out, _ = run(capsys, "search", "--k", "4", "--h", "3", "--max", "9")
        assert code == 1
        assert "falsified=true" in out

    def test_zero_regime_conjecture_falsified(self, capsys):
        # The minimizer {0,1,2,4,6} ties the conjectured zero-regime bound
        # without being an arithmetic progression, so search reports a
        # falsification while verify on the same set finds no inverse
        # theorem and passes.  Which of the two is right is an open
        # question; both behaviours are pinned as they stand.
        code, out, _ = run(capsys, "search", "--k", "5", "--h", "4", "--max", "12",
                           "--regime", "zero", "--workers", "1", "--format", "json")
        doc = json.loads(out)
        assert code == 1 and doc["falsified"] is True
        assert doc["min"] == doc["bound"] == 21
        assert doc["classes"] == {"ArithmeticProgression": 3, "Other": 2}
        assert [0, 1, 2, 4, 6] in doc["minimizers"]

        code, out, _ = run(capsys, "verify", "--set", "0,1,2,4,6", "--h", "4")
        assert code == 0
        assert any(line.startswith("inverse=unsupported") for line in lines_of(out))
        assert "result=ok" in lines_of(out)


class TestWitness:
    def test_odd_subsums_reference(self, capsys):
        code, out, _ = run(capsys, "witness", "--lemma", "odd-subsums", "--set", "1,3,5,7")
        assert code == 0
        text = lines_of(out)
        assert "total=15" in text
        assert "result=pass" in text

    def test_parity_split_reference(self, capsys):
        code, out, _ = run(capsys, "witness", "--lemma", "parity-split",
                           "--set", "2,4,5,6,8", "--h", "4", "--r", "3")
        assert code == 0
        text = lines_of(out)
        assert "total=19" in text
        assert "result=pass" in text
        assert "ordering_guards=true" in text

    def test_hypothesis_violation_exits_two(self, capsys):
        code, _, err = run(capsys, "witness", "--lemma", "parity-split",
                           "--set", "1,3,5,7,9", "--h", "4", "--r", "3")
        assert code == 2 and err.startswith("error: parity-split needs ")

    def test_odd_subsums_rejects_mismatched_fold(self, capsys):
        code, _, err = run(capsys, "witness", "--lemma", "odd-subsums",
                           "--set", "1,3,5,7", "--h", "3")
        assert code == 2 and "drop --h" in err

    def test_rejects_r_outside_parity_split(self, capsys):
        code, out, err = run(capsys, "witness", "--lemma", "odd-subsums",
                             "--set", "1,3,5,7", "--r", "2")
        assert code == 2 and out == "" and "drop --r" in err

    def test_odd_subsums_accepts_matching_fold(self, capsys):
        code, out, _ = run(capsys, "witness", "--lemma", "odd-subsums",
                           "--set", "1,3,5,7", "--h", "4")
        assert code == 0 and "result=pass" in out

    def test_json_schema_and_round_trip(self, capsys):
        code, out, _ = run(capsys, "witness", "--lemma", "odd-subsums",
                           "--set", "1,3,5,7", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert list(doc) == ["lemma", "parts", "total", "target_cardinality", "checks"]
        assert json.dumps(doc, indent=2) + "\n" == out
        assert doc["checks"] == {
            "disjoint": True, "contained": True, "total_matches": True,
        }

    # Per lemma: the rest of a passing request, and how many distinct sumsets
    # it needs (target and baseline, plus all-odd-extension's inner and
    # unsigned folds).
    FOLDS = {
        "parity-split": (["2,4,5,6,8", "--h", "4", "--r", "3"], 2),
        "odd-subsums": (["1,3,5,7"], 1),
        "mixed-parity-a3": (["1,2,6,8", "--h", "3"], 2),
        "mixed-parity-a2": (["1,2,3,5,7", "--h", "4"], 2),
        "all-odd-extension": (["1,3,5,9", "--h", "3"], 3),
    }

    @pytest.mark.parametrize("fmt", ["text", "json"])
    @pytest.mark.parametrize("lemma", list(FOLDS))
    def test_folds_each_sumset_once(self, capsys, monkeypatch, lemma, fmt):
        import sumsetlab.witness as witness_mod

        calls = []

        def counted(name, fn):
            def wrapper(*args):
                calls.append((name, args))
                return fn(*args)
            return wrapper

        monkeypatch.setattr(witness_mod, "compute_dp", counted("dp", witness_mod.compute_dp))
        monkeypatch.setattr(witness_mod, "subsums", counted("subsums", witness_mod.subsums))
        (elems, *rest), distinct = self.FOLDS[lemma]
        code, _, _ = run(capsys, "witness", "--lemma", lemma, "--set", elems, *rest,
                         "--format", fmt)
        assert code == 0
        assert len(calls) == len(set(calls)) == distinct

    def test_failing_family_exits_one(self, capsys, monkeypatch):
        # Generators never emit failing families for valid inputs at desk
        # scale; tamper post-generation to pin down the exit code.
        import sumsetlab.witness as witness_mod

        real = witness_mod.witness_odd_subsums(IntegerSet((1, 3, 5, 7)))
        broken = witness_mod.WitnessFamily(
            real.lemma, real.base_set, real.fold, real.target_kind,
            real.parts, real.claimed_total + 1,
        )
        # cmd_witness looks generate up in witness when it runs.
        monkeypatch.setattr(witness_mod, "generate", lambda *a, **kw: broken)
        code, out, _ = run(capsys, "witness", "--lemma", "odd-subsums", "--set", "1,3,5,7")
        assert code == 1
        assert "total_matches=false" in out
        assert "result=fail" in out


class TestBounds:
    def test_text_catalogue(self, capsys):
        code, out, _ = run(capsys, "bounds")
        assert code == 0
        assert sum(1 for ln in lines_of(out) if ln.startswith("  hypotheses:")) == 14

    def test_json_catalogue_round_trip(self, capsys):
        code, out, _ = run(capsys, "bounds", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert len(doc) == 14
        assert json.dumps(doc, indent=2) + "\n" == out


class TestOutputPlumbing:
    def test_unknown_subcommand_exits_two(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["frobnicate"])
        assert exc.value.code == 2

    def test_unknown_format_exits_two(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["compute", "--set", "1,3", "--h", "2", "--format", "yaml"])
        out, err = capsys.readouterr()
        assert exc.value.code == 2 and out == ""
        assert "--format" in err and "'yaml'" in err


class TestImportFootprint:
    """A fresh process loads what the command it runs needs, and no more;
    the package still hands out every name it exports."""

    SRC = str(Path(sumsetlab.__file__).resolve().parent.parent)

    def loaded_after(self, *argv):
        """(exit code, sys.modules) of a fresh process that runs cli.main."""
        code = (
            "import contextlib, io, sys\n"
            f"sys.path.insert(0, {self.SRC!r})\n"
            "from sumsetlab import cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    rc = cli.main({list(argv)!r})\n"
            "print(rc, *sys.modules)\n"
        )
        done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                              text=True, timeout=60, check=True)
        rc, *modules = done.stdout.split()
        return int(rc), set(modules)

    def test_verify_loads_neither_search_nor_witness_nor_a_pool(self):
        rc, modules = self.loaded_after("verify", "--set", "1,3,5,9", "--h", "3")
        assert rc == 0
        unwanted = {"concurrent.futures", "multiprocessing",
                    "sumsetlab.search", "sumsetlab.witness"}
        assert unwanted & modules == set()

    @pytest.mark.parametrize("argv, unwanted", [
        (("verify", "--set", "1,3,5,9", "--h", "3"), {"dataclasses", "inspect", "json"}),
        (("compute", "--set", "1,3,5,9", "--h", "3"), {"dataclasses", "inspect", "json"}),
        (("bounds",), {"dataclasses", "inspect", "json"}),
        (("search", "--k", "4", "--h", "3", "--max", "7", "--workers", "1"), {"dataclasses"}),
    ], ids=["verify", "compute", "bounds", "search"])
    def test_text_reports_load_neither_dataclasses_nor_json(self, argv, unwanted):
        rc, modules = self.loaded_after(*argv)
        assert rc == 0
        assert unwanted & modules == set()

    def test_serial_search_loads_no_pool(self):
        # 35 sets: too few for a second worker, so the scan stays in-process.
        rc, modules = self.loaded_after("search", "--k", "4", "--h", "3",
                                        "--max", "7", "--workers", "2")
        assert rc == 0 and "sumsetlab.search" in modules
        assert "concurrent.futures" not in modules
        # 77,520 sets, where a 2-worker pool is slower than the serial scan.
        assert 77_520 < 2 * SETS_PER_WORKER
        rc, modules = self.loaded_after("search", "--k", "7", "--h", "5",
                                        "--max", "20", "--workers", "2")
        assert rc == 0 and "sumsetlab.search" in modules
        assert "concurrent.futures" not in modules

    def test_every_export_resolves(self):
        from sumsetlab import search, witness

        for name in sumsetlab.__all__:
            getattr(sumsetlab, name)
        namespace = {}
        exec("from sumsetlab import *", namespace)
        assert set(sumsetlab.__all__) <= set(namespace)
        assert set(sumsetlab.__all__) <= set(dir(sumsetlab))
        assert sumsetlab.minimize is search.minimize
        assert sumsetlab.ALL_LEMMAS is witness.ALL_LEMMAS
        assert search.REGIME_ZERO == "zero"
        with pytest.raises(AttributeError):
            sumsetlab.no_such_name

    def test_exports_follow_a_patched_module(self, monkeypatch):
        # Never cached in the package, so a patch made in the defining
        # module (as the benchmark tracer makes) is seen through it.
        def traced(*args, **kwargs):
            raise AssertionError("not called")

        monkeypatch.setattr(sumsetlab.search, "minimize", traced)
        assert sumsetlab.minimize is traced
        monkeypatch.undo()
        assert sumsetlab.minimize is sumsetlab.search.minimize


class TestCapProbes:
    """A call over a documented cap fails fast with a typed error.  The probe
    runs in a child whose address space is capped, so a cap that admits the
    allocation fails the test instead of exhausting the runner's memory."""

    SRC = TestImportFootprint.SRC

    def child(self, imports, call):
        """(call's result, or the name of the SumsetLabError it raised;
        its seconds; the child's stderr) from the capped child."""
        code = (
            "import resource, sys, time\n"
            "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))\n"
            f"sys.path.insert(0, {self.SRC!r})\n"
            "from sumsetlab.errors import SumsetLabError\n"
            f"{imports}\n"
            "t0 = time.perf_counter()\n"
            "try:\n"
            f"    out = {call}\n"
            "except SumsetLabError as exc:\n"
            "    out = type(exc).__name__\n"
            "print(out, time.perf_counter() - t0)\n"
        )
        done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                              text=True, timeout=60, check=False)
        assert done.stdout, done.stderr
        out, seconds = done.stdout.split()
        return out, float(seconds), done.stderr

    def probe(self, *argv):
        rc, seconds, err = self.child("from sumsetlab import cli", f"cli.main({list(argv)!r})")
        return int(rc), seconds, err

    def test_dense_plain_fold_over_the_table_budget(self):
        # (h+1) * (2h * 2^40 + 1) bits at h = 64: a 2^46-bit table.
        rc, seconds, err = self.probe("compute", "--set", "1,1099511627776",
                                      "--variant", "plain", "--h", "64")
        assert rc == 2
        assert err.startswith("error: ") and len(err.splitlines()) == 1
        assert seconds < 0.1

    def test_subset_sums_over_budget(self):
        # 30 powers of two: 2^30 subset sums, inside the old 30-element cap.
        powers = ",".join(str(1 << i) for i in range(30))
        rc, seconds, err = self.probe("compute", "--set", powers, "--variant", "subsums")
        assert rc == 2
        assert err.startswith("error: subset sums would take ") and len(err.splitlines()) == 1
        assert seconds < 0.1

    def test_search_just_over_the_space_cap(self):
        # C(41, 10) = 1,121,099,408 sets, while max 40 has 847,660,528.
        assert math.comb(40, 10) <= SPACE_CAP < math.comb(41, 10)
        rc, seconds, err = self.probe("search", "--k", "10", "--h", "3", "--max", "41")
        assert rc == 2
        assert err == "error: space has 1121099408 sets, over the cap 1000000000\n"
        assert seconds < 0.1

    def test_search_just_over_the_table_cap(self):
        # One set, k = max = 9460 at h = 3: 9460 * 4 * (6 * 9460 + 1) bits,
        # while 9459 levels fit.
        assert SearchSpace(9459, 3, 9459).table_bits <= engine.TABLE_BITS_CAP
        rc, seconds, err = self.probe("search", "--k", "9460", "--h", "3", "--max", "9460")
        assert rc == 2
        assert err.startswith("error: search tables need about 2147836240 bits")
        assert len(err.splitlines()) == 1
        assert seconds < 0.1

    def test_oracle_just_over_its_vector_cap(self):
        # C(34, 10) = 131,128,140 restricted vectors, while C(33, 10) =
        # 92,561,040 fit (and would take minutes to enumerate).
        assert math.comb(33, 10) <= engine.ORACLE_COST_CAP < math.comb(34, 10)
        out, seconds, err = self.child(
            "from sumsetlab.engine import SumsetVariant, compute_oracle\n"
            "from sumsetlab.intset import IntegerSet",
            "compute_oracle(IntegerSet(tuple(range(1, 35))), SumsetVariant.RESTRICTED, 10)",
        )
        assert out == "CostCapExceeded" and not err
        assert seconds < 0.1


class TestWorkflowCommands:
    """Every command line CI runs still parses: `sumsetlab` lines through the
    CLI's parser, and `python bench/run.py` flags against that script's
    --help.  A renamed or deleted flag then fails here, not in CI."""

    ROOT = Path(__file__).resolve().parent.parent

    def command_lines(self):
        text = (self.ROOT / ".github" / "workflows" / "tests.yml").read_text(encoding="utf-8")
        for line in text.splitlines():
            line = re.sub(r"^\s*(-\s+)?(run:)?\s*", "", line)
            if not line.startswith(("sumsetlab ", "python ", "PYTHONPATH=")):
                continue
            words = []
            for word in shlex.split(line):
                if word in (">", "||", "&&", "|", ";"):
                    break
                words.append(word)
            while "=" in words[0] and not words[0].startswith("-"):
                words.pop(0)  # an environment assignment
            yield words

    def test_sumsetlab_lines_parse(self):
        parser = cli.build_parser()
        lines = [w[1:] for w in self.command_lines() if w[0] == "sumsetlab"]
        assert len(lines) >= 5
        for argv in lines:
            parser.parse_args(argv)

    def test_bench_flags_exist(self):
        lines = [w[2:] for w in self.command_lines() if w[:2] == ["python", "bench/run.py"]]
        assert len(lines) >= 5
        done = subprocess.run([sys.executable, "bench/run.py", "--help"], cwd=self.ROOT,
                              capture_output=True, text=True, timeout=60, check=True)
        known = set(re.findall(r"--[a-z][-a-z]*", done.stdout))
        for argv in lines:
            assert {w for w in argv if w.startswith("--")} <= known, argv
