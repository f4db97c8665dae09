"""Command-line behavior: parsing, determinism, output, and exit codes."""

import argparse
import inspect
import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from numpy._core import _multiarray_umath

import whirly_lab.cli as cli_module
import whirly_lab.experiments as experiments_module
import whirly_lab.montecarlo as montecarlo_module
import whirly_lab.tree as tree_module
from whirly_lab.cli import build_parser, main, parse_set_spec
from whirly_lab.group import GroupElement, make_gsk
from whirly_lab.rng import RngStream
from whirly_lab.sets import DiskProduct, acted_set, disk_product


# A union is not a disk product, so its translates are scanned.
_UNION_SPEC = json.dumps(
    {"kind": "union", "children": [{"kind": "disk-product", "level": 0, "centers": [[0.0, 0.0]], "radii": [1.0]}]}
)


GOLDEN = Path(__file__).parent / "golden"
README = Path(__file__).parents[1] / "README.md"
SRC = Path(cli_module.__file__).parents[1]

# A level or depth from the command line far too deep to shift by.
ABSURD = 100_000_000_000


def _leaves(value, path=""):
    """Flatten parsed JSON to ``{dotted path: leaf}``."""
    if isinstance(value, dict):
        return {k: v for key, child in value.items() for k, v in _leaves(child, f"{path}.{key}" if path else key).items()}
    if isinstance(value, list):
        return {k: v for i, child in enumerate(value) for k, v in _leaves(child, f"{path}[{i}]").items()}
    return {path: value}


# The roundoff residuals of the exact identities, which move in their last
# digits with the SIMD kernels NumPy dispatches to on the machine at hand.
_RESIDUAL = re.compile(r"criteria\.identities\.observed\.(max_\w+_residual)")


def assert_matches_golden(out: str, name: str) -> None:
    """``out`` must be the sorted, two-space-indented JSON text of a report
    whose leaves equal those of ``tests/golden/<name>``, except that each
    identities residual is held to its limit in the report's own
    ``thresholds``, not to the recorded digits.  On a mismatch the message
    names every field that moved, with its recorded and new value."""
    try:
        parsed = json.loads(out)
    except json.JSONDecodeError:
        pytest.fail(f"output differs from {name} and is not JSON")
    old, new = _leaves(json.loads((GOLDEN / name).read_text())), _leaves(parsed)
    moved = []
    for key in sorted(old.keys() | new.keys()):
        residual = _RESIDUAL.fullmatch(key)
        if residual and key in old and key in new:
            limit = new.get(f"criteria.identities.thresholds.{residual[1]}.max")
            if not (isinstance(new[key], float) and limit is not None and 0.0 <= new[key] <= limit):
                moved.append(f"{key}: {new[key]!r} is not within its limit {limit!r}")
        elif old.get(key, ...) != new.get(key, ...):
            moved.append(f"{key}: {old.get(key, '<absent>')!r} -> {new.get(key, '<absent>')!r}")
    if moved:
        pytest.fail(f"output differs from {name}; moved fields:\n" + "\n".join(moved))
    layout = json.dumps(parsed, indent=2, sort_keys=True) + "\n"
    assert out == layout, f"output holds {name}'s fields in another layout"


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

    def test_bad_specs_are_usage_errors(self, tmp_path):
        # Sets too deep for the sampler budget are refused before their
        # level-wide arrays are built (16 GiB for level 30).
        deep_halfspace = tmp_path / "halfspace.json"
        deep_halfspace.write_text(
            json.dumps({"kind": "halfspace", "level": 40, "normal": [[1.0, 0.0]], "offset": 0.0})
        )
        disk = '{"kind": "disk-product", "level": 0, "centers": [[0.0, 0.0]], "radii": [1.0]}'
        for text in (
            "disk:levelx:r1", "disk:level0", "{not json", "/no/such/file.json",
            "disk:level30:r1", str(deep_halfspace),
            # Non-finite centers, normals and shifts, in shorthand and JSON.
            "disk:level0:r1:cnan,0", "disk:level0:r1:c0,inf", "disk:level0:r1:c-inf",
            disk.replace("[[0.0, 0.0]]", "[[NaN, 0.0]]"),
            '{"kind": "halfspace", "level": 0, "normal": [[Infinity, 0.0]], "offset": 0.0}',
            '{"kind": "affine-image", "scale": 1.0, "shift": [[0.0, -Infinity]], "base": ' + disk + "}",
            # A NaN phase, a NaN offset and an infinite scale.
            '{"kind": "acted-image", "element": {"level": 1, "phases": [[NaN, 0], [1, 0]]}, "base": ' + disk + "}",
            '{"kind": "halfspace", "level": 0, "normal": [[1.0, 0.0]], "offset": NaN}',
            '{"kind": "affine-image", "scale": Infinity, "shift": [[0.0, 0.0]], "base": ' + disk + "}",
            # Levels that are not JSON integers.
            disk.replace('"level": 0', '"level": 1.7'),
            disk.replace('"level": 0', '"level": true'),
            '{"kind": "acted-image", "element": {"level": 2.9, "phases": [[1, 0]]}, "base": ' + disk + "}",
            # Pairs that are not two JSON numbers, and scalars that are not JSON numbers.
            disk.replace("[[0.0, 0.0]]", "[[0]]"),
            disk.replace("[[0.0, 0.0]]", "[[0, 0, 7]]"),
            disk.replace("[[0.0, 0.0]]", '[["0", 0]]'),
            disk.replace("[[0.0, 0.0]]", "[0, 0]"),
            disk.replace("[1.0]", "[true]"),
            disk.replace("[1.0]", '"1.0"'),
            '{"kind": "halfspace", "level": 0, "normal": [[1.0, 0.0]], "offset": "0.5"}',
            '{"kind": "halfspace", "level": 0, "normal": [[1.0, 0.0]], "offset": 1' + "0" * 400 + "}",
            '{"kind": "affine-image", "scale": "2", "shift": [[0.0, 0.0]], "base": ' + disk + "}",
            '{"kind": "acted-image", "element": {"level": 1, "phases": [[1, 0, 0]]}, "base": ' + disk + "}",
        ):
            with pytest.raises(argparse.ArgumentTypeError):
                parse_set_spec(text)
        # An infinite radius is allowed: that factor is the whole plane.
        assert parse_set_spec("disk:level0:rinf").radii[0] == math.inf
        # A single JSON number is a radius for every path.
        shared = '{"kind": "disk-product", "level": 1, "centers": [[0, 0], [0, 0]], "radii": 1.5}'
        assert list(parse_set_spec(shared).radii) == [1.5, 1.5]

    def test_deeply_nested_set_is_a_usage_error(self, capsys, tmp_path, monkeypatch):
        disk = '{"kind": "disk-product", "level": 0, "centers": [[0.0, 0.0]], "radii": [1.0]}'
        spec = tmp_path / "deep.json"
        spec.write_text('{"kind": "complement", "child": ' * 5000 + disk + "}" * 5000)
        with pytest.raises(SystemExit) as exc:
            main(["estimate", "--set", str(spec), "--samples", "1000"])
        assert exc.value.code == 2
        assert capsys.readouterr().out == ""
        # Decoded, the same nesting overflows set_from_json instead.
        deep = json.loads(disk)
        for _ in range(5000):
            deep = {"kind": "complement", "child": deep}
        monkeypatch.setattr(json, "loads", lambda text: deep)
        with pytest.raises(argparse.ArgumentTypeError, match="recursion"):
            parse_set_spec("{}")


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

    @pytest.mark.parametrize("seed", ["5", "31415926"])
    @pytest.mark.parametrize("depth", [0, 1, 5, 12])
    def test_streamed_print_is_the_json_of_the_tree(self, capsys, seed, depth):
        code, out, _ = run_cli(capsys, "sample", "--depth", str(depth), "--seed", seed)
        tree = tree_module.sample_tree(depth, RngStream(int(seed)).generator())
        payload = {
            "depth": tree.depth,
            "levels": [[[z.real, z.imag] for z in level] for level in tree.levels],
            "seed": int(seed),
        }
        assert code == 0
        assert out == json.dumps(payload, indent=2, sort_keys=True) + "\n"

    def test_a_level_over_several_chunks_prints_whole(self, capsys, monkeypatch):
        _, whole, _ = run_cli(capsys, "sample", "--depth", "5")
        monkeypatch.setattr(cli_module, "_SAMPLE_CHUNK_FLOATS", 6)
        _, chunked, _ = run_cli(capsys, "sample", "--depth", "5")
        assert chunked == whole

    def test_depth_over_the_sampler_budget_exits_two_before_any_draw(self, capsys, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("drew before checking the sampler budget")

        monkeypatch.setattr(tree_module, "standard_complex", refuse)
        code, out, err = run_cli(capsys, "sample", "--depth", "26")
        assert code == 2
        assert out == ""
        assert "sampler budget" in err

    def test_print_holds_little_beside_the_tree(self, monkeypatch):
        # A depth-16 tree is 2.1 MB, and its print holds one chunk of
        # formatted numbers at a time.
        with open(os.devnull, "w") as sink:
            monkeypatch.setattr(sys, "stdout", sink)
            tracemalloc.start()
            try:
                assert main(["sample", "--depth", "16"]) == 0
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peak < 20_000_000


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
        assert payload["hits"] == 7734  # pinned draws

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

    def test_over_budget_set_exits_two_before_drawing(self, capsys, monkeypatch):
        def no_draw(*args, **kwargs):
            raise AssertionError("drew before checking the budget")

        for name in ("standard_complex", "sample_levels"):
            monkeypatch.setattr(montecarlo_module, name, no_draw)
        code, out, err = run_cli(capsys, "estimate", "--set", "disk:level20:r1.5", "--seed", "9")
        assert code == 2
        assert out == ""
        assert "budget" in err

    def test_deep_whirl_file_estimates_the_disk_mass(self, capsys, tmp_path):
        # A level-40 whirl is stored as its two phases and sampled on the
        # innovation path; the action keeps the unit disk's mass.
        spec = tmp_path / "whirl.json"
        spec.write_text(json.dumps(acted_set(make_gsk(0.5, 39), disk_product(0, 0j, 1.0)).to_json()))
        code, out, _ = run_cli(capsys, "estimate", "--set", str(spec), "--samples", "100000")
        assert code == 0
        payload = json.loads(out)
        exact = 1.0 - math.exp(-0.5)
        assert abs(payload["estimate"] - exact) < 4.0 * math.sqrt(exact * (1.0 - exact) / payload["samples"])

    def test_deep_set_off_every_fast_path_exits_two(self, capsys, tmp_path):
        # A level-40 pattern that is not alternating has neither an innovation
        # copy nor a read that fits; it is refused, not walked to a MemoryError.
        w = np.exp(0.4j)
        spec = tmp_path / "mixed.json"
        element = GroupElement(40, [w, np.conj(w), 1.0, 1.0])
        spec.write_text(json.dumps(acted_set(element, disk_product(0, 0j, 1.0)).to_json()))
        code, out, err = run_cli(capsys, "estimate", "--set", str(spec), "--seed", "9")
        assert code == 2
        assert out == ""
        assert "budget" in err

    def test_whirl_at_an_absurd_level_runs_on_the_innovation_path(self, capsys, tmp_path):
        # Its two phases are all it holds, so no 2**level integer is built.
        spec = tmp_path / "whirl.json"
        spec.write_text(json.dumps(acted_set(make_gsk(0.5, ABSURD - 1), disk_product(0, 0j, 1.0)).to_json()))
        code, out, _ = run_cli(capsys, "estimate", "--set", str(spec), "--samples", "1000")
        assert code == 0
        assert json.loads(out)["samples"] == 1000

    @pytest.mark.parametrize("workers", ["0", "-3"])
    def test_nonpositive_workers_exit_two_before_any_draw(self, capsys, monkeypatch, workers):
        def refuse(*args, **kwargs):
            raise AssertionError("drew before checking the worker count")

        monkeypatch.setattr(RngStream, "generator", refuse)
        monkeypatch.setattr(RngStream, "block", refuse)
        code, out, err = run_cli(
            capsys, "estimate", "--set", "disk:level0:r1", "--samples", "1000", "--workers", workers
        )
        assert code == 2
        assert out == ""
        assert "workers must be positive" in err

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
            # 64 level-20 vectors, the smallest block, exceed the budget.
            ["positivity-scan", "--set", "disk:level20:r1.5"],
            ["whirly-search", "--set", "disk:level20:r1.5", "--max-depth", "21"],
            ["sharpness", "--dims", "100000", "--samples", "100000"],
            ["verify-action-identity", "--k", "30"],
            ["verify-convolve", "--set", "disk:level20:r1.5"],
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

    @pytest.mark.parametrize(
        "argv",
        [
            ["sample", "--depth", str(ABSURD)],
            ["whirly-search", "--max-depth", str(ABSURD)],
            ["verify-action-identity", "--level", "0", "--k", str(ABSURD)],
            ["estimate", "--set", f"disk:level{ABSURD}:r1"],
            ["estimate", "--set", "mixed"],
        ],
        ids=["sample", "whirly-search", "action-identity", "disk", "acted-file"],
    )
    def test_absurd_levels_exit_two_before_any_shift(self, capsys, tmp_path, argv):
        # 2**ABSURD would take 12.5 GB; the budget refuses the level first.
        if argv[-1] == "mixed":
            w = np.exp(0.4j)
            element = {"level": ABSURD, "phases": [[w.real, w.imag], [w.real, -w.imag], [1, 0], [1, 0]]}
            spec = tmp_path / "mixed.json"
            spec.write_text(json.dumps({"kind": "acted-image", "element": element, "base": disk_product(0, 0j, 1.0).to_json()}))
            argv = [*argv[:-1], str(spec)]
        # A shorthand set is refused while the arguments are parsed.
        try:
            code = main([*argv, "--seed", "9"])
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert "budget" in captured.err

    def test_disk_search_does_not_budget_its_inner_samples(self, monkeypatch):
        # A disk product's translated measures are exact, and a scanned
        # target's blocks hold default_block_size level vectors, so no draw
        # holds inner_samples level vectors; the first draw is the base
        # estimate's.
        class FirstDraw(Exception):
            pass

        def first_draw(*args, **kwargs):
            raise FirstDraw

        monkeypatch.setattr(tree_module, "standard_complex", first_draw)
        for target in ([], ["--set", _UNION_SPEC]):
            with pytest.raises(FirstDraw):
                main(["whirly-search", *target, "--inner-samples", "70000000", "--samples", "1000", "--max-depth", "4"])

    def test_disk_positivity_does_not_budget_its_inner_samples(self, monkeypatch):
        # A disk product's hit counts are drawn from their binomial law, and a
        # scanned target's from blocks of default_block_size level vectors,
        # so no draw holds inner_samples level vectors; the first draw is the
        # base estimate's.
        class FirstDraw(Exception):
            pass

        def first_draw(*args, **kwargs):
            raise FirstDraw

        monkeypatch.setattr(tree_module, "standard_complex", first_draw)
        for target in ([], ["--set", _UNION_SPEC]):
            with pytest.raises(FirstDraw):
                main(["positivity-scan", *target, "--inner-samples", "400000000"])

    def test_deep_independence_fits_the_budget(self, capsys):
        code, out, err = run_cli(
            capsys, "verify-independence", "--set", "disk:level14:r1.5", "--m", "6", "--samples", "100",
            "--seed", "9",
        )
        assert code == 0, err
        assert json.loads(out)["parameters"]["level"] == 14

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_numbers_exit_two(self, capsys, value):
        # Each numeric flag that takes a real or complex number, and a
        # shorthand set's center, refuses NaN and the infinities while parsing.
        for argv in (
            ["verify-convolve", "--a", value],
            ["positivity-scan", "--a", value],
            ["sharpness", "--a", value],
            ["sharpness", "--b", value],
            ["verify-action-identity", "--s", value],
            ["verify-independence", "--s", value],
            ["verify-continuity", "--epsilon", value],
            ["whirly-search", "--epsilon", value],
            ["verify-continuity", "--radius", value],
            ["verify-continuity", "--center", f"0,{value}"],
            ["estimate", "--set", "disk:level0:r1", "--confidence", value],
            ["estimate", "--set", f"disk:level0:r1:c{value},0"],
        ):
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 2, argv
            assert capsys.readouterr().out == "", argv

    def test_unknown_command_exits_two(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    def test_unknown_flag_exits_two(self, capsys):
        # Each command line passes one flag its command does not take.
        for argv in (
            ["sample", "--frobnicate", "1"],
            ["estimate", "--set", "disk:level0:r1", "--stream", "1"],
            ["verify-continuity", "--relaxed-delta"],
            ["suite", "--scale", "0.5"],
            # Every command prints JSON; none takes a format.
            ["sample", "--format", "csv"],
            ["estimate", "--set", "disk:level0:r1", "--format", "csv"],
            ["verify-action-identity", "--format", "csv"],
        ):
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 2, argv

    @pytest.mark.parametrize(
        "argv",
        [
            # sqrt(1 + x*x) overflows above |x| ~ 1.34e154; the identities
            # hold for every strength and every translate.
            ["verify-convolve", "--a", "1e300", "--samples", "1000"],
            ["verify-action-identity", "--s", "1e200"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_huge_dilation_factors_pass(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv, "--seed", "3")
        assert code == 0, err
        assert json.loads(out)["pass"] is True

    @pytest.mark.parametrize(
        "argv",
        [
            # At |a| = 1e10 the squared radius and offsets pass 1e19, where
            # chndtr is NaN; a scan's binomial draw, or a search's sorted
            # measures, would take the NaN.
            ["positivity-scan", "--a", "1e10", "--z-samples", "10", "--inner-samples", "200"],
            ["whirly-search", "--epsilon", "1e-10", "--samples", "1000", "--max-depth", "3",
             "--z-samples", "20", "--inner-samples", "200"],
            # A disk of radius 1e6 about 1e6 has a NaN chndtr mass, which
            # once reached stdout under a PASS verdict.
            ["verify-continuity", "--radius", "1e6", "--center", "1e6,0", "--samples", "1000", "--pairs", "3"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_measures_out_of_chndtr_range_exit_two(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        assert "chndtr's range" in err
        assert "PASS" not in err


def _subparsers() -> dict[str, argparse.ArgumentParser]:
    return next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)).choices


# Each experiment command with every flag set to a small value other than its
# default, and the call those flags must make.
_EXPERIMENT_CALLS = [
    (
        ["verify-marginals", "--level", "2", "--samples", "2000"],
        experiments_module.verify_marginals, dict(n=2, samples=2000),
    ),
    (
        ["verify-action-identity", "--level", "2", "--k", "4", "--s", "0.5", "--trials", "30"],
        experiments_module.verify_action_identity, dict(n=2, k=4, s=0.5, trials=30),
    ),
    (
        [
            "verify-continuity", "--radius", "1.5", "--center", "0.2,-0.1", "--epsilon", "0.2", "--level", "3",
            "--samples", "2000", "--pairs", "4", "--workers", "2",
        ],
        experiments_module.verify_continuity,
        dict(radius=1.5, center=0.2 - 0.1j, epsilon=0.2, n=3, samples=2000, pairs=4, workers=2),
    ),
    (
        ["verify-convolve", "--set", "disk:level1:r1.2", "--a", "-1.5", "--samples", "2000", "--workers", "2"],
        experiments_module.verify_convolution,
        dict(target=disk_product(1, 0j, 1.2), a=-1.5, samples=2000, workers=2),
    ),
    (
        [
            "verify-independence", "--set", "disk:level0:r0.8", "--s", "0.7", "--m", "2", "--samples", "2000",
            "--workers", "2",
        ],
        experiments_module.verify_conditional_independence,
        dict(target=disk_product(0, 0j, 0.8), s=0.7, m=2, samples=2000, workers=2),
    ),
    (
        ["positivity-scan", "--set", "disk:level0:r1.3:c0.1,0.1", "--a", "1.5", "--z-samples", "30",
         "--inner-samples", "300"],
        experiments_module.positivity_scan,
        dict(target=disk_product(0, 0.1 + 0.1j, 1.3), a=1.5, z_samples=30, inner_samples=300),
    ),
    (
        [
            "whirly-search", "--set", "disk:level0:r1.1", "--epsilon", "0.6", "--samples", "2000", "--max-depth", "4",
            "--z-samples", "25", "--inner-samples", "300", "--workers", "2",
        ],
        experiments_module.whirly_search,
        dict(
            target=disk_product(0, 0j, 1.1), epsilon=0.6, samples=2000, max_depth=4, z_samples=25,
            inner_samples=300, workers=2,
        ),
    ),
    (
        ["sharpness", "--a", "1.5", "--b", "0.5", "--dims", "1200", "--samples", "30"],
        experiments_module.sharpness_check, dict(a=1.5, b=0.5, dims=1200, samples=30),
    ),
]


class TestExperimentCommands:
    """Each experiment command calls its function with options named after
    the function's parameters."""

    @pytest.mark.parametrize(
        "argv, experiment, options", _EXPERIMENT_CALLS, ids=[argv[0] for argv, _, _ in _EXPERIMENT_CALLS]
    )
    def test_every_flag_reaches_its_parameter(self, capsys, argv, experiment, options):
        flags = set(_subparsers()[argv[0]]._option_string_actions) - {"-h", "--help", "--seed"}
        assert flags == {arg for arg in argv if arg.startswith("--")}
        code, out, _ = run_cli(capsys, *argv, "--seed", "7")
        report = experiment(rng=RngStream(7), **options)
        assert out == json.dumps(report.json_dict(), indent=2, sort_keys=True) + "\n"
        assert code == (0 if report.passed else 1)

    def test_every_experiment_binds_its_defaults(self):
        bound = set()
        for name, command in _subparsers().items():
            experiment = command.get_default("experiment")
            if experiment is None:
                continue
            args = vars(build_parser().parse_args([name]))
            defaults = {k: v for k, v in args.items() if k not in ("command", "run", "experiment", "seed")}
            inspect.signature(experiment).bind(rng=RngStream(1), **defaults)
            bound.add(name)
        assert bound == {argv[0] for argv, _, _ in _EXPERIMENT_CALLS}


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
        args = [
            "suite", "--quick", "--criteria", "identities,whirly,continuity,estimator,positivity", "--seed", "17"
        ]
        _, out1, _ = run_cli(capsys, *args)
        _, out2, _ = run_cli(capsys, *args)
        assert out1 == out2
        assert set(json.loads(out1)["criteria"]) == {
            "identities", "whirly", "continuity", "estimator", "positivity"
        }

    def test_suite_output_does_not_depend_on_workers(self, capsys):
        args = ["suite", "--quick", "--criteria", "continuity,independence,convolution"]
        _, serial, _ = run_cli(capsys, *args, "--workers", "1")
        _, sharded, _ = run_cli(capsys, *args, "--workers", "2")
        assert serial == sharded

    # ``tests/golden/suite_quick.json`` and ``suite.json`` hold the stdout of
    # ``whirly-lab suite --quick`` and of the full-scale ``whirly-lab suite``
    # at the pinned seed.  A refactor or a kernel that must not move a draw or
    # a bit leaves them as they are; a change that alters the draws on purpose
    # re-records them and says so in CHANGES.md.  At this seed the quick suite
    # fails ``marginals`` alone and the full suite passes every criterion.

    def test_quick_suite_output_is_pinned(self, capsys):
        code, out, err = run_cli(capsys, "suite", "--quick")
        assert code == 1
        assert [line.split(":")[0] for line in err.splitlines() if line.startswith("FAIL")] == [
            "FAIL marginals"
        ]
        assert_matches_golden(out, "suite_quick.json")

    def test_full_suite_output_is_pinned(self, capsys):
        code, out, err = run_cli(capsys, "suite")
        assert code == 0
        assert not [line for line in err.splitlines() if line.startswith("FAIL")]
        assert_matches_golden(out, "suite.json")

    def test_golden_mismatch_names_the_moved_fields(self):
        recorded = (GOLDEN / "suite_quick.json").read_text()
        payload = json.loads(recorded)
        payload["criteria"]["positivity"]["observed"]["delta_at_95"] = 0.5
        with pytest.raises(pytest.fail.Exception) as failure:
            assert_matches_golden(json.dumps(payload, indent=2, sort_keys=True) + "\n", "suite_quick.json")
        lines = str(failure.value).splitlines()[1:]
        assert len(lines) == 1
        assert lines[0].startswith("criteria.positivity.observed.delta_at_95: ")
        assert lines[0].endswith(" -> 0.5")

    @pytest.mark.parametrize(
        "residual, held", [(9e-11, True), (2e-10, False), (-1e-16, False), (math.nan, False)]
    )
    def test_golden_residuals_are_held_to_their_limit(self, residual, held):
        payload = json.loads((GOLDEN / "suite_quick.json").read_text())
        payload["criteria"]["identities"]["observed"]["max_action_residual"] = residual
        out = json.dumps(payload, indent=2, sort_keys=True) + "\n"
        if held:
            assert_matches_golden(out, "suite_quick.json")
        else:
            with pytest.raises(pytest.fail.Exception, match="max_action_residual"):
                assert_matches_golden(out, "suite_quick.json")

    def test_golden_layout_is_pinned(self):
        payload = json.loads((GOLDEN / "suite_quick.json").read_text())
        with pytest.raises(AssertionError, match="layout"):
            assert_matches_golden(json.dumps(payload, indent=1, sort_keys=True) + "\n", "suite_quick.json")

    def test_quick_suite_matches_at_the_baseline_dispatch(self):
        # NumPy reads NPY_DISABLE_CPU_FEATURES when it is imported, so only
        # the child runs on the baseline SIMD kernels: every dispatch target
        # is disabled, and only the identities residuals may move.
        dispatch = _multiarray_umath.__cpu_dispatch__
        if not dispatch:
            pytest.skip("NumPy has no SIMD dispatch target above its baseline on this machine")
        env = dict(os.environ, NPY_DISABLE_CPU_FEATURES=" ".join(dispatch))
        env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
        child = subprocess.run(
            [sys.executable, "-m", "whirly_lab.cli", "suite", "--quick"],
            env=env, capture_output=True, text=True, timeout=600,
        )
        assert child.returncode == 1, child.stderr
        assert_matches_golden(child.stdout, "suite_quick.json")

    @pytest.mark.parametrize("workers", ["0", "-3"])
    def test_nonpositive_workers_exit_two_before_any_report(self, capsys, workers):
        # None of these criteria hands its worker count to a tally, so only
        # the criterion itself can refuse it.
        code, out, err = run_cli(
            capsys, "suite", "--quick", "--workers", workers, "--criteria", "sharpness,identities,positivity"
        )
        assert code == 2
        assert out == ""
        assert "workers must be positive" in err

    def test_unknown_criterion_exits_two(self, capsys):
        code, _, err = run_cli(capsys, "suite", "--criteria", "nonsense")
        assert code == 2
        assert "unknown criteria" in err


def test_readme_flags_are_accepted():
    # Every flag on a ``whirly-lab`` command line, and every flag the
    # README's "Command line" section names, is an option of some command.
    commands = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)).choices
    accepted = {flag for command in commands.values() for flag in command._option_string_actions}
    named = set()
    in_section = False
    for line in README.read_text().splitlines():
        if line.startswith("## "):
            in_section = line == "## Command line"
        if in_section or "whirly-lab" in line:
            named.update(re.findall(r"(?<![\w-])--[a-z][a-z0-9-]*", line))
    named.discard("--no-build-isolation")
    assert {"--seed", "--workers", "--quick"} <= named
    assert sorted(named - accepted) == []
