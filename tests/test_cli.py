import dataclasses
import json

import pytest

from boundarylab import cli, operators
from boundarylab.cli import (
    SuiteConfig,
    _parse_mutation,
    _random_boundary_points,
    main,
    run_suite,
)
from boundarylab.config import DomainError
from boundarylab.operators import SupportCertificate


class TestRunSuite:
    def test_algebra_all_pass(self):
        report = run_suite(SuiteConfig(), "algebra")
        assert report.passed
        assert all(r.check_id.startswith("algebra.") for r in report.records)

    def test_algebra_rank_three(self):
        assert run_suite(SuiteConfig(rank=3, radius=3), "algebra").passed

    def test_unknown_suite_rejected(self):
        with pytest.raises(DomainError):
            run_suite(SuiteConfig(), "everything")

    def test_rank_one_rejected(self):
        with pytest.raises(DomainError):
            run_suite(SuiteConfig(rank=1), "algebra")

    def test_deterministic_reports(self):
        a = run_suite(SuiteConfig(), "jv").to_json_dict()
        b = run_suite(SuiteConfig(), "jv").to_json_dict()
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)

    def test_records_sorted_by_id(self):
        report = run_suite(SuiteConfig(), "untwist")
        ids = [r.check_id for r in report.records]
        assert ids == sorted(ids)

    def test_mutated_suite_fails(self):
        from boundarylab.words import ReducedWord

        report = run_suite(
            SuiteConfig(radius=4, depth=1), "all", drop=ReducedWord.parse("a")
        )
        assert not report.passed
        failing = [r for r in report.records if not r.passed]
        assert failing and all(r.check_id == "final.lift-equals-shift" for r in failing)


class TestMain:
    def test_verify_exit_zero(self, capsys):
        assert main(["verify"]) == 0
        out = capsys.readouterr().out
        assert "all checks passed" in out

    def test_json_output(self, tmp_path, capsys):
        path = tmp_path / "report.json"
        assert main(["verify", "--json", str(path)]) == 0
        payload = json.loads(path.read_text())
        assert payload["pass"] is True
        assert payload["config"] == {"rank": 2, "radius": 4, "depth": 2}

    def test_json_is_reproducible(self, tmp_path, capsys):
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        main(["jv", "index", "--json", str(p1)])
        main(["jv", "index", "--json", str(p2)])
        assert p1.read_text() == p2.read_text()

    def test_global_flags_before_or_after_subcommand(self, capsys):
        assert main(["--rank", "3", "--radius", "3", "verify"]) == 0
        assert main(["verify", "--rank", "3", "--radius", "3"]) == 0

    def test_final_identity_pass(self, capsys):
        assert main(["final-identity", "--radius", "3", "--depth", "1"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["pass"] is True

    def test_final_identity_mutation_fails(self, capsys):
        code = main(
            ["final-identity", "--radius", "3", "--depth", "1", "--mutate", "drop:b"]
        )
        assert code == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["pass"] is False
        assert payload["discrepancy"] is not None

    def test_oplab_commutator(self, capsys):
        assert main(["oplab", "commutator", "--f", "chi(a)", "--gamma", "a", "--radius", "5"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["exact"] is True

    def test_jv_defect(self, capsys):
        assert main(["jv", "defect", "--gamma", "a", "--radius", "4"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["rank"] == 1

    def test_jv_defect_radius_too_small(self, capsys):
        assert main(["jv", "defect", "--gamma", "ab", "--radius", "4"]) == 2
        assert "error" in capsys.readouterr().err

    def test_untwist_check(self, capsys):
        assert main(["untwist", "check"]) == 0

    def test_bad_mutation_syntax(self, capsys):
        assert main(["final-identity", "--mutate", "scramble:a"]) == 2

    def test_radius_cap_env(self, monkeypatch, capsys):
        monkeypatch.setenv("BDL_MAX_RADIUS", "3")
        assert main(["verify", "--suite", "untwist", "--radius", "5"]) == 2


class TestExitCodes:
    @pytest.fixture
    def inflated_support(self, monkeypatch):
        """Every commutation certificate reports a support radius of 99."""
        real = operators.support_certificate
        monkeypatch.setattr(
            operators, "support_certificate",
            lambda *a, **k: dataclasses.replace(real(*a, **k), support_radius=99),
        )

    def test_commutation_record_fails_past_bound(self, inflated_support):
        report = run_suite(SuiteConfig(), "operators")
        rec = {r.check_id: r for r in report.records}["operators.left-right-commutation"]
        assert not rec.passed and rec.certificate["support_radius"] == 99

    def test_oplab_commutator_exit_one_past_bound(self, inflated_support, capsys):
        assert main(["oplab", "commutator", "--radius", "5"]) == 1
        assert json.loads(capsys.readouterr().out)["support_radius"] == 99

    def test_jv_defect_rank_equal_to_length_passes(self, capsys):
        assert main(["jv", "defect", "--gamma", "aB", "--radius", "6"]) == 0
        assert json.loads(capsys.readouterr().out)["rank"] == 2

    def test_jv_defect_exit_one_past_length(self, monkeypatch, capsys):
        monkeypatch.setattr(
            cli, "equivariance_defect",
            lambda n, g, R: SupportCertificate("stub", 2, len(g) + 1, R),
        )
        assert main(["jv", "defect", "--gamma", "a", "--radius", "4"]) == 1

    def test_certificate_written_to_json_path(self, tmp_path, capsys):
        path = tmp_path / "cert.json"
        assert main(["jv", "defect", "--gamma", "a", "--radius", "4", "--json", str(path)]) == 0
        assert json.loads(path.read_text()) == json.loads(capsys.readouterr().out)

    def test_jv_defect_length_four_at_radius_cap(self, capsys):
        assert main(["jv", "defect", "--gamma", "abab", "--radius", "12"]) == 0
        assert json.loads(capsys.readouterr().out)["rank"] == 4

    def test_malformed_radius_cap_env(self, monkeypatch, capsys):
        monkeypatch.setenv("BDL_MAX_RADIUS", "x")
        assert main(["verify"]) == 2
        assert "BDL_MAX_RADIUS" in capsys.readouterr().err


class TestHelpers:
    def test_parse_mutation(self):
        from boundarylab.words import ReducedWord

        assert _parse_mutation(None) == (None, None)
        drop, perturb = _parse_mutation("drop:ab")
        assert drop == ReducedWord.parse("ab") and perturb is None
        drop, perturb = _parse_mutation("perturb:B")
        assert drop is None and perturb == ReducedWord.parse("B")

    def test_random_points_deterministic(self):
        a = _random_boundary_points(2, 10)
        b = _random_boundary_points(2, 10)
        assert a == b
        assert len(set(a)) > 1


class TestLimitsBeforeWork:
    """Requests over a limit exit 2 before the first index is computed."""

    @pytest.fixture(autouse=True)
    def no_index(self, monkeypatch):
        def index_b(*args):
            raise AssertionError("index_b computed before the limit check")

        monkeypatch.setattr(cli, "index_b", index_b)

    def test_jv_index_radius_past_cap(self, capsys):
        assert main(["jv", "index", "--radius", "12"]) == 2
        assert "radius 13" in capsys.readouterr().err

    def test_rank_past_last_letter(self, capsys):
        assert main(["verify", "--suite", "jv", "--rank", "27"]) == 2
        assert "at most 26" in capsys.readouterr().err

    def test_rank_of_last_letter_accepted(self):
        SuiteConfig(rank=26).validate()
