"""Command-line behavior: parsing, determinism, formats, and exit codes."""

import json

import pytest

import whirly_lab.experiments as experiments_module
import whirly_lab.tree as tree_module
from whirly_lab.cli import main, parse_set_spec
from whirly_lab.rng import RngStream
from whirly_lab.sets import DiskProduct


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSetSpecParsing:
    def test_disk_shorthand(self):
        s = parse_set_spec("disk:level1:r1.5")
        assert isinstance(s, DiskProduct)
        assert s.level == 1
        assert list(s.radii) == [1.5, 1.5]

    def test_disk_shorthand_with_center(self):
        s = parse_set_spec("disk:level0:r1.0:c0.5,-0.25")
        assert s.centers[0] == pytest.approx(0.5 - 0.25j)

    def test_inline_json(self):
        s = parse_set_spec(
            '{"kind": "disk-product", "level": 0, "centers": [[0.0, 0.0]], "radii": [1.0]}'
        )
        assert isinstance(s, DiskProduct)

    def test_set_file(self, tmp_path):
        path = tmp_path / "set.json"
        path.write_text(json.dumps(parse_set_spec("disk:level1:r2.0").to_json()))
        s = parse_set_spec(str(path))
        assert s.level == 1
        assert list(s.radii) == [2.0, 2.0]

    def test_bad_specs_are_usage_errors(self):
        import argparse

        for text in ("disk:levelx:r1", "disk:level0", "{not json", "/no/such/file.json"):
            with pytest.raises(argparse.ArgumentTypeError):
                parse_set_spec(text)


class TestSampleCommand:
    def test_json_output_is_deterministic(self, capsys):
        code1, out1, _ = run_cli(capsys, "sample", "--depth", "3", "--seed", "5")
        code2, out2, _ = run_cli(capsys, "sample", "--depth", "3", "--seed", "5")
        assert code1 == code2 == 0
        assert out1 == out2
        payload = json.loads(out1)
        assert payload["depth"] == 3
        assert len(payload["levels"]) == 4
        assert len(payload["levels"][3]) == 8

    def test_seed_changes_output(self, capsys):
        _, out1, _ = run_cli(capsys, "sample", "--depth", "2", "--seed", "5")
        _, out2, _ = run_cli(capsys, "sample", "--depth", "2", "--seed", "6")
        assert out1 != out2

    def test_env_seed_is_honored(self, capsys, monkeypatch):
        monkeypatch.setenv("WHIRLY_LAB_SEED", "5")
        _, out_env, _ = run_cli(capsys, "sample", "--depth", "2")
        monkeypatch.delenv("WHIRLY_LAB_SEED")
        _, out_flag, _ = run_cli(capsys, "sample", "--depth", "2", "--seed", "5")
        assert out_env == out_flag

    def test_csv_output_has_header(self, capsys):
        code, out, _ = run_cli(capsys, "sample", "--depth", "1", "--seed", "5", "--format", "csv")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "section,key,value"
        assert len(lines) == 1 + 1 + 2  # header, root, two leaves


class TestEstimateCommand:
    def test_reports_disk_mass(self, capsys):
        code, out, _ = run_cli(
            capsys, "estimate", "--set", "disk:level0:r1.0", "--samples", "20000", "--seed", "9"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["samples"] == 20000
        assert payload["estimate"] == pytest.approx(0.3935, abs=0.02)
        assert payload["ci"][0] < payload["estimate"] < payload["ci"][1]

    def test_shorthand_and_json_specs_agree(self, capsys):
        inline = json.dumps(parse_set_spec("disk:level0:r1.0").to_json())
        _, out1, _ = run_cli(capsys, "estimate", "--set", "disk:level0:r1.0", "--samples", "5000", "--seed", "9")
        _, out2, _ = run_cli(capsys, "estimate", "--set", inline, "--samples", "5000", "--seed", "9")
        assert out1 == out2

    def test_worker_invariance_is_byte_exact(self, capsys):
        args = ["estimate", "--set", "disk:level1:r1.2", "--samples", "30000", "--seed", "10"]
        _, out1, _ = run_cli(capsys, *args, "--workers", "1")
        _, out4, _ = run_cli(capsys, *args, "--workers", "4")
        assert out1 == out4

    def test_oversized_depth_exits_two_before_drawing(self, capsys, monkeypatch):
        def no_draw(gen, shape):
            raise AssertionError("drew before checking the budget")

        monkeypatch.setattr(tree_module, "standard_complex", no_draw)
        code, out, err = run_cli(
            capsys, "estimate", "--set", "disk:level0:r1.0", "--depth", "30", "--seed", "9"
        )
        assert code == 2
        assert out == ""
        assert "budget" in err

    def test_missing_set_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["estimate", "--samples", "1000"])
        assert exc.value.code == 2

    def test_bad_shorthand_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["estimate", "--set", "disk:level0"])
        assert exc.value.code == 2


class TestVerifyCommands:
    def test_action_identity_passes(self, capsys):
        code, out, err = run_cli(
            capsys, "verify-action-identity", "--trials", "20", "--seed", "3"
        )
        assert code == 0
        assert json.loads(out)["pass"] is True
        assert err.startswith("PASS")

    def test_stdout_excludes_runtime(self, capsys):
        _, out, _ = run_cli(capsys, "verify-action-identity", "--trials", "5", "--seed", "3")
        assert "runtime_ms" not in json.loads(out)

    def test_verify_output_is_deterministic(self, capsys):
        args = ["verify-convolve", "--samples", "5000", "--seed", "4"]
        _, out1, _ = run_cli(capsys, *args)
        _, out2, _ = run_cli(capsys, *args)
        assert out1 == out2

    def test_csv_format(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify-action-identity", "--trials", "5", "--seed", "3", "--format", "csv"
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "section,key,value"
        assert any(line.startswith("report,pass,") for line in lines)
        assert any(line.startswith("observed,max_residual,") for line in lines)

    def test_domain_errors_exit_two(self, capsys):
        code, _, err = run_cli(capsys, "verify-marginals", "--samples", "10", "--seed", "3")
        assert code == 2
        assert "error:" in err

    def test_deep_search_exits_two_before_allocating(self, capsys, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("allocated before checking the budget")

        monkeypatch.setattr(tree_module, "standard_complex", refuse)
        monkeypatch.setattr(experiments_module, "acted_set", refuse)
        code, out, err = run_cli(capsys, "whirly-search", "--max-depth", "30", "--seed", "9")
        assert code == 2
        assert out == ""
        assert "budget" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["positivity-scan", "--inner-samples", "400000000"],
            ["whirly-search", "--inner-samples", "400000000"],
            ["sharpness", "--dims", "100000", "--samples", "100000"],
            ["verify-action-identity", "--k", "30"],
        ],
    )
    def test_oversized_draws_exit_two_before_allocating(self, capsys, monkeypatch, argv):
        def refuse(*args, **kwargs):
            raise AssertionError("drew or built before checking the budget")

        monkeypatch.setattr(RngStream, "generator", refuse)
        monkeypatch.setattr(RngStream, "block", refuse)
        monkeypatch.setattr(experiments_module, "make_gsk", refuse)
        code, out, err = run_cli(capsys, *argv, "--seed", "9")
        assert code == 2
        assert out == ""
        assert "budget" in err

    def test_unknown_command_exits_two(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    def test_unknown_flag_exits_two(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["sample", "--frobnicate", "1"])
        assert exc.value.code == 2


class TestSuiteCommand:
    def test_list_names_all_criteria(self, capsys):
        code, out, _ = run_cli(capsys, "suite", "--list")
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 10
        assert lines[0].startswith("identities:")

    def test_subset_runs_and_reports(self, capsys):
        code, out, err = run_cli(
            capsys, "suite", "--quick", "--criteria", "identities,sharpness", "--seed", "17"
        )
        assert code == 0
        payload = json.loads(out)
        assert set(payload["criteria"]) == {"identities", "sharpness"}
        assert payload["pass"] is True
        assert payload["scale"] == 0.1
        assert "PASS identities" in err

    def test_subset_output_is_deterministic(self, capsys):
        args = ["suite", "--quick", "--criteria", "identities,whirly,continuity,estimator", "--seed", "17"]
        _, out1, _ = run_cli(capsys, *args)
        _, out2, _ = run_cli(capsys, *args)
        assert out1 == out2
        assert set(json.loads(out1)["criteria"]) == {"identities", "whirly", "continuity", "estimator"}

    def test_suite_output_does_not_depend_on_workers(self, capsys):
        args = ["suite", "--quick", "--criteria", "continuity,independence,convolution"]
        _, serial, _ = run_cli(capsys, *args, "--workers", "1")
        _, sharded, _ = run_cli(capsys, *args, "--workers", "2")
        assert serial == sharded

    def test_unknown_criterion_exits_two(self, capsys):
        code, _, err = run_cli(capsys, "suite", "--criteria", "nonsense")
        assert code == 2
        assert "unknown criteria" in err
