"""Command line surface: exit codes, determinism, argument plumbing."""

import json
import os
import subprocess
import sys
from pathlib import Path

PY = [sys.executable, "-m", "qstarlab.cli"]
# the child interpreter finds the package in this checkout, installed or not
SRC = str(Path(__file__).resolve().parents[1] / "src")
ENV = dict(os.environ, PYTHONPATH=os.pathsep.join(
    p for p in (SRC, os.environ.get("PYTHONPATH")) if p))


def run(*args):
    return subprocess.run(PY + list(args), capture_output=True, text=True,
                          env=ENV, timeout=120)


def test_validate_bundled_instance():
    out = run("validate", "bundled:m2_diag")
    assert out.returncode == 0
    payload = json.loads(out.stdout)
    assert payload["report"]["valid"] is True


def test_json_output_is_byte_identical():
    a = run("gastar", "bundled:m2_diag", "--family", "good")
    b = run("gastar", "bundled:m2_diag", "--family", "good")
    assert a.returncode == b.returncode == 0
    assert a.stdout == b.stdout


def test_global_flags_accepted_in_both_positions():
    before = run("--format", "json", "norm", "bundled:m2_diag",
                 "--family", "good", "--element", "basis:1")
    after = run("norm", "bundled:m2_diag", "--family", "good",
                "--element", "basis:1", "--format", "json")
    assert before.returncode == after.returncode == 0
    assert json.loads(before.stdout) == json.loads(after.stdout)


def test_text_format_renders():
    out = run("validate", "bundled:m2_diag", "--format", "text")
    assert out.returncode == 0
    assert "wall_ms" in out.stdout
    assert not out.stdout.lstrip().startswith("{")


def test_usage_error_is_exit_2():
    out = run("norm", "bundled:m2_diag", "--family", "good")  # missing --element
    assert out.returncode == 2


def test_unknown_source_is_exit_2():
    out = run("validate", "bundled:no_such_bundle")
    assert out.returncode == 2
    assert "unknown bundle" in out.stderr


def test_bad_element_syntax_is_exit_2():
    out = run("norm", "bundled:m2_diag", "--family", "good",
              "--element", "basis:notanumber")
    assert out.returncode == 2


def _bundle_with(tmp_path, entry=None, **fields):
    """m2_diag's bundle with a basis entry and top-level instance fields replaced."""
    bundle = json.loads((Path(SRC) / "qstarlab" / "bundled" / "m2_diag.json").read_text())
    if entry is not None:
        bundle["instance"]["basis"][1][0][1] = entry
    bundle["instance"].update(fields)
    path = tmp_path / "m2_diag_edited.json"
    path.write_text(json.dumps(bundle))
    return str(path)


def _assert_parse_error(out, field):
    assert out.returncode == 2
    assert out.stdout == ""
    assert out.stderr.startswith("error: ")
    assert f"field '{field}': expected finite number or [re, im] pair" in out.stderr
    assert "Traceback" not in out.stderr


def test_non_finite_instance_entry_is_exit_2(tmp_path):
    _assert_parse_error(run("validate", _bundle_with(tmp_path, float("nan"))), "basis[1]")


def test_boolean_instance_entry_is_exit_2(tmp_path):
    _assert_parse_error(run("validate", _bundle_with(tmp_path, True)), "basis[1]")


def _assert_field_error(out, field):
    assert out.returncode == 2
    assert f"field '{field}'" in out.stderr
    assert "Traceback" not in out.stderr


def test_empty_subalgebra_is_exit_2(tmp_path):
    _assert_field_error(run("validate", _bundle_with(tmp_path, a0_indices=[])), "a0_indices")


def test_boolean_dimension_is_exit_2(tmp_path):
    _assert_field_error(run("validate", _bundle_with(tmp_path, n=True)), "n")


def test_boolean_indices_are_exit_2(tmp_path):
    # false and true would otherwise pass as the indices 0 and 1
    _assert_field_error(run("validate", _bundle_with(tmp_path, unit_index=False)), "unit_index")
    _assert_field_error(run("validate", _bundle_with(tmp_path, a0_indices=[False, 3])),
                        "a0_indices")


def test_non_finite_element_is_exit_2():
    _assert_parse_error(run("norm", "bundled:m2_diag", "--family", "good",
                            "--element", "[NaN,0,0,0]"), "[0]")


def test_analysis_error_is_exit_3():
    # the bad family never separates points, so the norm is undefined
    out = run("norm", "bundled:m2_diag", "--family", "bad", "--element", "e")
    assert out.returncode == 3
    payload = json.loads(out.stdout)
    assert payload["error"] == "NotSufficient"
    assert payload["command"] == "norm"
    assert payload["detail"]


def test_norm_values_from_cli():
    out = run("norm", "bundled:m2_diag", "--family", "good",
              "--element", "basis:1")
    report = json.loads(out.stdout)["report"]
    assert abs(report["value"] - 1.0) < 1e-9
    assert report["hermitian"] is False


def _norm_value(element):
    out = run("norm", "bundled:m2_diag", "--family", "good", "--element", element)
    assert out.returncode == 0
    assert out.stderr == ""
    return json.loads(out.stdout)["report"]["value"]


def test_norm_of_tiny_element_does_not_underflow():
    assert abs(_norm_value("[1e-200,0,0,0]") - 1e-200) <= 1e-12 * 1e-200


def test_norm_of_huge_element_does_not_overflow():
    # squaring 1e300 overflows, so the routes must work on the scaled element
    assert abs(_norm_value("[1,0,0,1e300]") - 1e300) <= 1e-12 * 1e300


def test_weakprod_cli():
    out = run("weakprod", "bundled:m2_diag", "--family", "good",
              "--left", "basis:1", "--right", "basis:2")
    assert out.returncode == 0
    coeffs = json.loads(out.stdout)["coeffs"]
    # shift times its adjoint is the first diagonal unit: e - E22
    assert abs(coeffs[0][0] - 1.0) < 1e-9
    assert abs(coeffs[3][0] + 1.0) < 1e-9
    assert all(abs(im) < 1e-9 for _, im in coeffs)


def test_weakprod_ambiguous_is_exit_3():
    out = run("weakprod", "bundled:m2_flip", "--family", "amb",
              "--left", "basis:1", "--right", "basis:1")
    assert out.returncode == 3
    assert json.loads(out.stdout)["error"] == "AmbiguousProduct"


def test_lp_cli_frozen_value():
    out = run("lp", "--points", "2", "--exponent", "4",
              "--masses", "0.5,0.5", "--values", "1,2")
    assert out.returncode == 0
    payload = json.loads(out.stdout)
    assert abs(payload["holder"]["sup"] - 8.5 ** 0.5) < 1e-10
    assert payload["ascent_oracle"]["undershoots"] is True
    assert abs(payload["mult_norm"]["analytic"] - 2.0) < 1e-12
    assert payload["mult_norm"]["agrees"] is True


def test_lp_bad_exponent_is_exit_3():
    out = run("lp", "--points", "2", "--exponent", "1.5",
              "--masses", "0.5,0.5", "--values", "1,2")
    assert out.returncode == 3
    assert json.loads(out.stdout)["error"] == "BadExponent"


def test_all_command_covers_families():
    out = run("all", "bundled:m2_diag")
    assert out.returncode == 0
    fams = json.loads(out.stdout)["families"]
    assert set(fams) == {"good", "bad"}
    assert fams["good"]["gastar_verdict"] is True
    assert "gastar_verdict" not in fams["bad"]


def test_gastar_verdict_from_cli():
    good = json.loads(run("gastar", "bundled:m2_diag",
                          "--family", "good").stdout)
    bad = json.loads(run("gastar", "bundled:m2_diag",
                         "--family", "bad").stdout)
    assert good["report"]["verdict"] is True
    assert bad["report"]["verdict"] is False


def test_single_family_source_needs_no_flag():
    out = run("forms", "bundled:m2_flip")
    assert out.returncode == 0


def test_ambiguous_family_requires_flag():
    out = run("forms", "bundled:m2_diag")
    assert out.returncode == 2
    assert "--family" in out.stderr


def test_topology_defaults_to_unit():
    out = run("topology", "bundled:m2_diag", "--family", "good")
    assert out.returncode == 0
    payload = json.loads(out.stdout)
    sem = payload["seminorms"]
    assert abs(sem["star"] - sem["upper"]) < 1e-9   # unit is Hermitian
    assert abs(sem["lower"] - sem["upper"] ** 2) < 1e-9  # e weakly squares to e
    assert payload["element"] == "e"


def test_twist_depth_override_builds_a_shallower_family():
    deep = json.loads(run("forms", "bundled:m2_diag", "--family", "good").stdout)
    assert deep["report"]["closure_size"] == 2
    assert deep["sufficiency"]["sufficient"] is True
    flat = run("forms", "bundled:m2_diag", "--family", "good", "--twist-depth", "0")
    assert flat.returncode == 0
    flat = json.loads(flat.stdout)
    assert flat["report"]["closure_size"] == 1
    assert flat["sufficiency"]["sufficient"] is False
