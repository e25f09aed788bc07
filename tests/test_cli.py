import dataclasses
import json
from pathlib import Path

import pytest

from boundarylab import cli, crossed, modules, operators
from boundarylab.cli import (
    SUITES,
    SuiteConfig,
    _parse_mutation,
    _random_boundary_points,
    main,
    run_suite,
)
from boundarylab.config import DomainError
from boundarylab.operators import SupportCertificate

GOLDEN = Path(__file__).resolve().parent / "golden"


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

    def test_dual_coefficients_built_once(self, monkeypatch):
        # v, chi and every geodesic check read the same 2n coefficients
        calls = []
        tensor = crossed.tensor

        def counted(f, g):
            calls.append((f, g))
            return tensor(f, g)

        monkeypatch.setattr(crossed, "tensor", counted)
        crossed.dual_coefficient.cache_clear()
        run_suite(SuiteConfig(rank=4), "algebra")
        assert 0 < len(calls) <= 2 * 4

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

    def test_jv_defect_exit_one_below_length(self, monkeypatch, capsys):
        # the rule is rank == |gamma|, as in the jv.translation-defect record
        monkeypatch.setattr(
            cli, "equivariance_defect",
            lambda n, g, R: SupportCertificate("stub", 2, len(g) - 1, R),
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


class TestInputRules:
    """Malformed words and ranks exit 2 before any work."""

    def test_unclosed_cylinder_literal(self, capsys):
        assert main(["oplab", "commutator", "--f", "chi("]) == 2
        assert "unclosed" in capsys.readouterr().err

    def test_cylinder_letter_outside_rank(self, capsys):
        assert main(["oplab", "commutator", "--f", "chi(c)"]) == 2
        assert "outside the 2 generators" in capsys.readouterr().err

    def test_gamma_letter_outside_rank(self, capsys):
        assert main(["jv", "defect", "--gamma", "c"]) == 2
        assert "outside the 2 generators" in capsys.readouterr().err
        assert main(["jv", "defect", "--gamma", "c", "--rank", "3"]) == 0

    @pytest.mark.parametrize("mutation", ["drop:c", "drop:ab", "drop:"])
    def test_mutation_word_must_be_generator(self, mutation, monkeypatch, capsys):
        def final_identity_check(*args, **kwargs):
            raise AssertionError("flagship ran on a malformed mutation")

        monkeypatch.setattr(cli, "final_identity_check", final_identity_check)
        assert main(["final-identity", "--mutate", mutation]) == 2
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("suite", ["algebra", "operators", "jv", "untwist"])
    def test_mutation_rejected_where_no_check_reads_it(self, suite, monkeypatch, capsys):
        def no_work(*args, **kwargs):
            raise AssertionError(f"the {suite} suite ran with faults it ignores")

        monkeypatch.setattr(cli, "CHECKS", [dataclasses.replace(c, run=no_work) for c in cli.CHECKS])
        assert main(["verify", "--suite", suite, "--mutate", "drop:a"]) == 2
        assert "reads --mutate" in capsys.readouterr().err

    def test_rank_checked_by_every_command(self, capsys):
        assert main(["jv", "defect", "--gamma", "a", "--rank", "27"]) == 2
        assert "at most 26" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, work, message",
        [
            (["untwist", "check", "--depth", "-1"], "decay_check", "depth must be"),
            (["verify", "--radius", "-3"], "verify_v_identities", "radius must be"),
            (["jv", "defect", "--gamma", "a", "--depth", "-4"], "equivariance_defect", "depth must be"),
            (["oplab", "commutator", "--depth", "-2"], "lambda_rho_commute_check", "depth must be"),
            (["verify", "--radius", "13"], "verify_v_identities", "radius 13 exceeds"),
            (["verify", "--depth", "9"], "verify_v_identities", "depth 9 exceeds"),
        ],
        ids=["untwist-depth", "verify-radius", "jv-defect-depth", "oplab-depth", "radius-cap", "depth-cap"],
    )
    def test_radius_and_depth_checked_by_every_command(self, argv, work, message, monkeypatch, capsys):
        def no_work(*args, **kwargs):
            raise AssertionError(f"{work} ran before radius and depth were checked")

        monkeypatch.delenv("BDL_MAX_RADIUS", raising=False)
        monkeypatch.setattr(cli, work, no_work)
        assert main(argv) == 2
        assert message in capsys.readouterr().err


class TestRegistry:
    def test_check_ids_match_golden_report(self):
        golden = json.loads((GOLDEN / "verify-all.json").read_text())
        ids = [r.check_id for r in run_suite(SuiteConfig(), "all").records]
        assert ids == [c["check_id"] for c in golden["checks"]]

    def test_every_suite_selects_an_entry(self, monkeypatch):
        stubbed = [
            dataclasses.replace(c, run=lambda n, R, d, faults, c=c: iter([(c.anchor, {}, True, {})]))
            for c in cli.CHECKS
        ]
        monkeypatch.setattr(cli, "CHECKS", stubbed)
        for suite in SUITES:
            assert run_suite(SuiteConfig(), suite).records, suite
        assert len(run_suite(SuiteConfig(), "all").records) == len(stubbed)


class TestHelpers:
    def test_parse_mutation(self):
        from boundarylab.words import ReducedWord

        assert _parse_mutation(None, 2) == (None, None)
        drop, perturb = _parse_mutation("drop:a", 2)
        assert drop == ReducedWord.parse("a") and perturb is None
        drop, perturb = _parse_mutation("perturb:B", 2)
        assert drop is None and perturb == ReducedWord.parse("B")
        with pytest.raises(DomainError):
            _parse_mutation("drop:ab", 2)
        assert _parse_mutation("drop:e", 5) == (ReducedWord.parse("e"), None)

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

    @pytest.mark.parametrize(
        "argv", [["jv", "index", "--radius", "1"], ["verify", "--suite", "jv", "--radius", "0"]]
    )
    def test_jv_radius_below_two(self, argv, monkeypatch, capsys):
        # the shift-constancy record reads labels of ball(n, 2)
        def w_local_constancy(*args):
            raise AssertionError("shift constancy checked before the radius floor")

        monkeypatch.setattr(cli, "w_local_constancy", w_local_constancy)
        assert main(argv) == 2
        assert "radius at least 2" in capsys.readouterr().err

    @pytest.fixture
    def no_algebra(self, monkeypatch):
        """The algebra suite runs first; it must not start before the limit checks."""
        def verify_v_identities(n):
            raise AssertionError("algebra suite ran before the limit check")

        monkeypatch.setattr(cli, "verify_v_identities", verify_v_identities)

    def test_verify_all_radius_past_cap(self, no_algebra, capsys):
        # the jv radius is checked before the algebra suite, the first to run
        assert main(["verify", "--suite", "all", "--radius", "12"]) == 2
        assert "radius 13" in capsys.readouterr().err

    def test_final_identity_depth_past_cap(self, monkeypatch, capsys):
        # the flagship translates at labels of length R + 1: depth 9 at R 8
        def maps_agree(*args):
            raise AssertionError("flagship maps compared before the depth check")

        monkeypatch.setattr(modules, "maps_agree", maps_agree)
        assert main(["final-identity", "--rank", "2", "--radius", "8"]) == 2
        assert "cylinder depth 9 exceeds the configured bound 8" in capsys.readouterr().err

    def test_verify_all_depth_past_cap(self, no_algebra, capsys):
        assert main(["verify", "--suite", "all", "--radius", "8"]) == 2
        assert "cylinder depth 9" in capsys.readouterr().err

    def test_verify_all_below_operators_floor(self, no_algebra, capsys):
        # the commutation record needs radius 4 for monomials of depth+length 2
        assert main(["verify", "--suite", "all", "--radius", "3"]) == 2
        assert "the all suite needs radius at least 4, got 3" in capsys.readouterr().err

    def test_untwist_below_floor(self, monkeypatch, capsys):
        # the two-picture record reads labels of radius R - 1
        def decay_check(*args):
            raise AssertionError("decay record ran before the radius floor")

        monkeypatch.setattr(cli, "decay_check", decay_check)
        assert main(["verify", "--suite", "untwist", "--radius", "0"]) == 2
        assert "the untwist suite needs radius at least 1, got 0" in capsys.readouterr().err
