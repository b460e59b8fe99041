import json
import os

import pytest

import sumsetlab.cli as cli
from sumsetlab.bounds import BoundReport
from sumsetlab.errors import BadParams
from sumsetlab.intset import IntegerSet
from sumsetlab.search import SearchReport


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

        monkeypatch.setattr(cli, "compute_dp", counted(cli.compute_dp))
        monkeypatch.setattr(inverse_mod, "compute_dp", counted(inverse_mod.compute_dp))
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


class TestSearch:
    def test_positive_reference(self, capsys):
        code, out, _ = run(capsys, "search", "--k", "4", "--h", "3", "--max", "9")
        assert code == 0
        text = lines_of(out)
        assert "min=16 bound=16 slack=0" in text
        assert "bound_status=theorem" in text
        assert "minimizer=1,3,5,7" in text
        assert "falsified=false" in text

    def test_shards_do_not_change_output(self, capsys):
        # Each worker gets one shard, so 8 workers split the space 8 ways.
        base = run(capsys, "search", "--k", "5", "--h", "4", "--max", "11",
                   "--workers", "1", "--format", "json")
        sharded = run(capsys, "search", "--k", "5", "--h", "4", "--max", "11",
                      "--workers", "8", "--format", "json")
        assert base[0] == sharded[0] == 0
        assert base[1] == sharded[1]

    def test_default_workers_are_the_cpu_count(self, capsys, monkeypatch, in_process_pool):
        # 170,544 sets are five workers' worth; without --workers, three
        # CPUs give three workers and three shards.
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        argv = ("search", "--k", "7", "--h", "5", "--max", "22", "--format", "json")
        default = run(capsys, *argv)
        assert in_process_pool == [3]
        assert default == run(capsys, *argv, "--workers", "1")
        assert default[0] == 0

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

    def test_bad_fold_window(self, capsys):
        code, _, err = run(capsys, "search", "--k", "4", "--h", "4", "--max", "9")
        assert code == 2 and "--allow-any-fold" in err

    def test_fold_cap(self, capsys):
        code, out, err = run(capsys, "search", "--k", "65", "--h", "65", "--max", "65",
                             "--allow-any-fold", "--workers", "1")
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
        monkeypatch.setattr(cli, "minimize", lambda space, shards, workers: fake)
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
        assert code == 2 and err.startswith("error:")

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
        monkeypatch.setattr(cli, "generate", lambda *a, **kw: broken)
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
    def test_out_writes_file_and_silences_stdout(self, capsys, tmp_path):
        path = tmp_path / "report.json"
        code, out, _ = run(capsys, "compute", "--set", "1,3,5,7", "--h", "3",
                           "--format", "json", "--out", str(path))
        assert code == 0 and out == ""
        doc = json.loads(path.read_text(encoding="utf-8"))
        assert doc["cardinality"] == 16

    @pytest.mark.parametrize("target", ["dir", "missing-parent"])
    def test_unwritable_out_exits_two(self, capsys, tmp_path, target):
        path = tmp_path if target == "dir" else tmp_path / "missing" / "report.txt"
        code, out, err = run(capsys, "compute", "--set", "1,2,3", "--h", "2",
                             "--out", str(path))
        assert code == 2 and out == ""
        assert err.startswith(f"error: cannot write --out {path}: ")

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
