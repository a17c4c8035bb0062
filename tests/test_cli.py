"""Command line surface: exit codes, determinism, argument plumbing."""

import argparse
import contextlib
import functools
import io
import json
import operator
import os
import random
import subprocess
import sys
from pathlib import Path

from qstarlab import cli

PY = [sys.executable, "-m", "qstarlab.cli"]
# the child interpreter finds the package in this checkout, installed or not
SRC = str(Path(__file__).resolve().parents[1] / "src")
ENV = dict(os.environ, PYTHONPATH=os.pathsep.join(
    p for p in (SRC, os.environ.get("PYTHONPATH")) if p))


def run(*args):
    return subprocess.run(PY + list(args), capture_output=True, text=True,
                          env=ENV, timeout=120)


def main(*args):
    """``cli.main`` in-process, with its exit code and output as ``run`` gives them."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(args))
    return subprocess.CompletedProcess(args, code, out.getvalue(), err.getvalue())


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


def _parsed(*args):
    return vars(cli.build_parser().parse_args(list(args), argparse.Namespace(**cli._DEFAULTS)))


def test_global_flags_accepted_in_both_positions():
    before = run("--format", "json", "norm", "bundled:m2_diag",
                 "--family", "good", "--element", "basis:1")
    after = run("norm", "bundled:m2_diag", "--family", "good",
                "--element", "basis:1", "--format", "json")
    assert before.returncode == after.returncode == 0
    assert json.loads(before.stdout) == json.loads(after.stdout)

    # non-default values: a leading flag must survive the subcommand's parse
    flags = ("--seed", "7", "--probes", "4")
    cmd = ("topology", "bundled:m2_full", "--family", "trace")
    leading, trailing = _parsed(*flags, *cmd), _parsed(*cmd, *flags)
    assert leading == trailing
    assert (leading["seed"], leading["probes"]) == (7, 4)
    assert main(*flags, *cmd).stdout == main(*cmd, *flags).stdout
    assert main(*flags, *cmd).stdout != main(*cmd).stdout

    # given in both positions, the trailing value wins
    assert _parsed("--seed", "3", *cmd, "--seed", "5")["seed"] == 5
    assert _parsed("--format", "text", "validate", "bundled:m2_diag",
                   "--format", "json")["format"] == "json"

    text = main("--format", "text", "validate", "bundled:m2_diag")
    assert text.returncode == 0
    assert "wall_ms" in text.stdout
    assert not text.stdout.lstrip().startswith("{")


def test_parser_is_built_once_per_process(monkeypatch):
    assert cli.build_parser() is cli.build_parser()
    built = []

    class Counting(argparse.ArgumentParser):
        def __init__(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(argparse, "ArgumentParser", Counting)
    assert main("norm", "bundled:m2_diag", "--family", "good", "--element", "e").returncode == 0
    assert main("validate", "bundled:m2_diag").returncode == 0
    assert built == []


def test_reused_parser_keeps_no_flags_between_calls(monkeypatch):
    seen = []

    def recording_tol(args, _tol=cli._tol):
        seen.append(vars(args).copy())
        return _tol(args)

    monkeypatch.setattr(cli, "_tol", recording_tol)
    topo = ("topology", "bundled:m2_full", "--family", "trace")
    norm = ("norm", "bundled:m2_diag", "--family", "good", "--element", "e")
    forms = ("forms", "bundled:m2_diag", "--family", "good")
    plain = {cmd: main(*cmd).stdout for cmd in (topo, norm, forms)}
    for flagged, later in ((("--probes", "4", "--seed", "7", *topo), topo),
                           (("--format", "text", *norm), norm),
                           ((*forms, "--twist-depth", "0"), forms),
                           (norm, norm[:2] + norm[4:])):
        assert main(*flagged).returncode == 0
        seen.clear()
        out = main(*later)
        assert {key: seen[0][key] for key in cli._DEFAULTS} == cli._DEFAULTS, flagged
        if later in plain:
            assert out.returncode == 0
            assert out.stdout == plain[later], flagged
    # the family-less norm on a two-family bundle is still refused
    assert seen[0]["family"] is None
    assert out.returncode == 2
    assert "choose a family" in out.stderr


def test_usage_error_leaves_the_next_command_intact():
    cmd = ("norm", "bundled:m2_diag", "--family", "good")
    failed = main(*cmd)
    assert failed.returncode == 2
    assert "--element" in failed.stderr
    ok = main(*cmd, "--element", "basis:1")
    assert ok.returncode == 0
    assert ok.stdout == run(*cmd, "--element", "basis:1").stdout


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


def test_only_shipped_bundle_names_load():
    # a bundle is looked up as <dir>/<name>.json; a name that reaches a
    # shipped file by another spelling is still no bundle's name
    unknown = main("validate", "bundled:no_such_bundle").stderr.replace("no_such_bundle", "{}")
    for name in ("../bundled/m2_diag", str(BUNDLES / "m2_diag"), "./m2_diag", "m2_diag.json",
                 "", "m2_diag/", "M2_DIAG", "m2_diag.", "m2_diag "):
        out = main("validate", f"bundled:{name}")
        assert out.returncode == 2, name
        assert out.stdout == "" and out.stderr == unknown.format(name), name
    assert main("validate", "bundled:m2_diag").returncode == 0


def test_bad_element_syntax_is_exit_2():
    out = run("norm", "bundled:m2_diag", "--family", "good",
              "--element", "basis:notanumber")
    assert out.returncode == 2


BUNDLES = Path(SRC) / "qstarlab" / "bundled"


def _m2_diag():
    return json.loads((BUNDLES / "m2_diag.json").read_text())


def _written(tmp_path, bundle):
    path = tmp_path / "m2_diag_edited.json"
    path.write_text(json.dumps(bundle))
    return str(path)


def _bundle_with(tmp_path, entry=None, **fields):
    """m2_diag's bundle with a basis entry and top-level instance fields replaced."""
    bundle = _m2_diag()
    if entry is not None:
        bundle["instance"]["basis"][1][0][1] = entry
    bundle["instance"].update(fields)
    return _written(tmp_path, bundle)


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


def test_families_must_be_an_object(tmp_path):
    bundle = _m2_diag()
    bundle["families"] = [1]
    _assert_field_error(main("validate", _written(tmp_path, bundle)), "families")


def test_malformed_twist_depth_is_exit_2(tmp_path):
    for depth in (None, "x", -1, 1.5, True):
        bundle = _m2_diag()
        bundle["families"]["good"]["twist_depth"] = depth
        _assert_field_error(main("forms", _written(tmp_path, bundle), "--family", "good"),
                            "twist_depth")


def test_non_boolean_balanced_is_exit_2(tmp_path):
    # read as a truth value, the string "false" made a balanced family
    for family in ("good", "bad"):
        for value in ("false", 0, "yes"):
            bundle = _m2_diag()
            bundle["families"][family]["balanced"] = value
            out = main("forms", _written(tmp_path, bundle), "--family", family)
            _assert_field_error(out, "balanced")
            assert out.stderr.startswith("error: ") and out.stdout == ""
    # a missing key reads as false, and every shipped bundle still loads
    bundle = _m2_diag()
    del bundle["families"]["good"]["balanced"]
    out = main("forms", _written(tmp_path, bundle), "--family", "good")
    assert out.returncode == 0
    assert json.loads(out.stdout)["report"]["balanced"] is False
    for path in sorted(BUNDLES.glob("*.json")):
        assert main("validate", f"bundled:{path.stem}").returncode == 0


def test_negative_twist_depth_flag_is_exit_2():
    for args in (("forms", "bundled:m2_diag", "--family", "good", "--twist-depth", "-1"),
                 ("--twist-depth", "-1", "forms", "bundled:m2_diag", "--family", "good"),
                 ("--twist-depth", "-3", "all", "bundled:m2_diag"),
                 ("all", "bundled:m2_diag", "--twist-depth", "-3"),
                 ("validate", "bundled:m2_diag", "--twist-depth", "-1"),
                 ("lp", "--points", "2", "--exponent", "4", "--twist-depth", "-5")):
        out = main(*args)
        _assert_field_error(out, "twist_depth")
        assert out.stderr.startswith("error: ")
        assert out.stdout == ""


def test_all_zero_family_is_a_typed_error(tmp_path):
    # the closure of a zero seed is empty: forms reports it, and the
    # commands that need a form exit 3 with a typed error, not a traceback
    bundle = _m2_diag()
    bundle["families"] = {"zero": {"generators": [{"kind": "vector_state", "S": [[0, 0], [0, 0]],
                                                   "label": "z"}],
                                   "balanced": True, "twist_depth": 1, "label": "zero"}}
    path = _written(tmp_path, bundle)
    out = run("forms", path, "--family", "zero")
    assert out.returncode == 0 and json.loads(out.stdout)["report"]["closure_size"] == 0
    for sub, error in (("topology", "EmptyFamily"), ("gastar", "ZeroForm"),
                       ("radical", "ZeroForm")):
        out = run(sub, path, "--family", "zero")
        assert out.returncode == 3, (sub, out.stderr)
        assert json.loads(out.stdout)["error"] == error
        assert "Traceback" not in out.stderr


def test_vector_state_of_the_wrong_size_is_exit_2(tmp_path):
    bundle = _m2_diag()
    bundle["families"]["good"]["generators"][0]["S"] = [[1]]
    out = main("forms", _written(tmp_path, bundle), "--family", "good")
    assert out.returncode == 2
    assert "vector_state payload is 1x1, the instance needs 2x2" in out.stderr


def test_unusable_flags_and_unreadable_files_are_exit_2(tmp_path):
    latin1 = tmp_path / "latin1.json"
    latin1.write_bytes(b'{"description": "caf\xe9"}')
    good = ("bundled:m2_diag", "--family", "good")
    for args in (("lp", "--points", "0", "--exponent", "4"),
                 ("validate", str(tmp_path)),
                 ("validate", str(latin1)),
                 ("norm", *good, "--element", f"@{tmp_path}"),
                 ("gastar", *good, "--tol-rank", "-1"),
                 ("gastar", *good, "--tol-psd", "nan"),
                 ("gastar", *good, "--tol-rank", "inf"),
                 ("topology", *good, "--probes", "-4"),
                 ("topology", *good, "--seed", "-1"),
                 ("lp", "--points", "2", "--exponent", "4", "--seed", "-1"),
                 ("lp", "--points", "2", "--exponent", "4", "--values", "nan,1"),
                 ("lp", "--points", "2", "--exponent", "4", "--values", "inf,1"),
                 ("lp", "--points", "2", "--exponent", "4", "--masses", "nan,1"),
                 ("lp", "--points", "2", "--exponent", "nan")):
        out = main(*args)
        assert out.returncode == 2, args
        assert out.stdout == ""
        assert out.stderr.startswith("error: ") and "Traceback" not in out.stderr
    # zero stays a usable tolerance and probe count
    assert main("gastar", *good, "--tol-rank", "0").returncode == 0
    assert main("topology", *good, "--probes", "0").returncode == 0


def test_lp_beyond_the_float_range_is_a_typed_error():
    # the squared norm underflows at 1e-200 and overflows at 1e200; both
    # exit 3 with no numpy warning on stderr
    for values in ("1e-200,1e-300", "1e200,1"):
        out = main("lp", "--points", "2", "--exponent", "4", "--masses", "0.5,0.5",
                   "--values", values)
        assert out.returncode == 3, values
        assert json.loads(out.stdout)["error"] == "OutOfFloatRange"
        assert out.stderr == ""


_CORRUPTIONS = (None, True, "x", [], {}, -1, 1e6, float("nan"))
_SUBCOMMANDS = ("validate", "forms", "gns", "cone", "norm", "weakprod", "radical",
                "topology", "gastar", "all")


def _json_paths(node, path=()):
    """The path to every value below the root of a JSON tree."""
    items = (node.items() if isinstance(node, dict)
             else enumerate(node) if isinstance(node, list) else ())
    for key, val in items:
        yield path + (key,)
        yield from _json_paths(val, path + (key,))


def test_corrupted_bundles_exit_cleanly(tmp_path):
    # each case deletes one key or replaces one value of a bundle and runs
    # one subcommand on it; drawing the depth first reaches the few
    # structural keys about as often as the many matrix entries
    rng = random.Random(2304)
    path = tmp_path / "corrupted.json"
    for case in range(300):
        bundle = json.loads(rng.choice(sorted(BUNDLES.glob("*.json"))).read_text())
        family = rng.choice(sorted(bundle["families"]))
        by_depth = {}
        for p in _json_paths(bundle):
            by_depth.setdefault(len(p), []).append(p)
        where = rng.choice(by_depth[rng.choice(sorted(by_depth))])
        parent = functools.reduce(operator.getitem, where[:-1], bundle)
        if isinstance(parent, dict) and rng.random() < 0.3:
            del parent[where[-1]]
        else:
            parent[where[-1]] = rng.choice(_CORRUPTIONS)
        path.write_text(json.dumps(bundle))
        sub = _SUBCOMMANDS[case % len(_SUBCOMMANDS)]
        argv = [sub, str(path)]
        if sub not in ("validate", "all"):
            argv += ["--family", family]
        if sub in ("cone", "norm", "topology"):
            argv += ["--element", "basis:1"]
        if sub == "weakprod":
            argv += ["--left", "basis:1", "--right", "basis:1"]
        assert main(*argv).returncode in (0, 2, 3), (where, argv)


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


def test_seminorms_of_huge_element_do_not_overflow():
    out = main("topology", "bundled:m2_diag", "--family", "good", "--element", "[1,0,0,1e300]")
    assert out.returncode == 0
    assert out.stderr == ""
    seminorms = json.loads(out.stdout)["seminorms"]
    for kind in ("upper", "lower", "star"):
        assert abs(seminorms[kind] - 1e300) <= 1e-12 * 1e300, kind


def test_cone_report_is_scale_invariant():
    # the verdicts and relative fields of a huge element are those of the
    # same element scaled down; only min_eig scales with it
    for sign in ("", "-"):
        reports = []
        for element in (f"[{sign}1,0,0,1e300]", f"[{sign}1e-300,0,0,1]"):
            out = main("cone", "bundled:m2_diag", "--family", "good", "--element", element)
            assert out.returncode == 0
            assert out.stderr == ""
            reports.append(json.loads(out.stdout)["report"])
        huge, small = reports
        assert huge["member"] == small["member"]
        for h, s in zip(huge["per_generator"], small["per_generator"], strict=True):
            assert h["passed"] == s["passed"]
            for key in ("herm_residual", "relative_margin"):
                assert abs(h[key] - s[key]) <= 1e-12, key
            assert abs(h["min_eig"] - 1e300 * s["min_eig"]) <= 1e-12 * abs(h["min_eig"])


def test_weakprod_overflow_fails_closed():
    # the product exists but is of order 1e600: a typed overflow, not an
    # inconsistent system, and no numpy warning on stderr
    out = run("weakprod", "bundled:m2_diag", "--family", "good",
              "--left", "[1,0,0,1e300]", "--right", "[1,0,0,1e300]")
    assert out.returncode == 3
    assert out.stderr == ""
    payload = json.loads(out.stdout)
    assert payload["error"] == "ProductOverflow"
    assert "overflows" in payload["detail"]


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


def test_closed_pipe_ends_quietly():
    # the read end closes while the child is still importing numpy, so
    # every write the child makes meets a broken pipe.  stdout is block
    # buffered, as in a shell pipeline, so the output is still buffered
    # when main() returns unless main() flushes it
    env = {k: v for k, v in ENV.items() if k != "PYTHONUNBUFFERED"}
    for args in (["forms", "bundled:m2_diag", "--family", "good"], ["--help"]):
        child = subprocess.Popen(PY + args, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                                 env=env)
        child.stdout.close()
        try:
            err = child.stderr.read().decode()
        finally:
            child.stderr.close()
            child.wait(timeout=120)
        assert "Traceback" not in err
        assert "Exception ignored" not in err


def test_twist_depth_override_builds_a_shallower_family():
    deep = json.loads(run("forms", "bundled:m2_diag", "--family", "good").stdout)
    assert deep["report"]["closure_size"] == 2
    assert deep["sufficiency"]["sufficient"] is True
    flat = run("forms", "bundled:m2_diag", "--family", "good", "--twist-depth", "0")
    assert flat.returncode == 0
    flat = json.loads(flat.stdout)
    assert flat["report"]["closure_size"] == 1
    assert flat["sufficiency"]["sufficient"] is False


# the top-level keys of each subcommand's report, in order: the head that
# the shared set-up writes, then the handler's own
_PAYLOAD_KEYS = {
    "validate": ("validate bundled:m2_diag",
                 ["command", "source", "description", "report"]),
    "forms": ("forms bundled:m2_diag --family good",
              ["command", "source", "family", "report", "sufficiency"]),
    "gns": ("gns bundled:m2_full --family trace",
            ["command", "source", "family", "representations"]),
    "cone": ("cone bundled:m2_diag --family good --element [0,0,0,-1]",
             ["command", "source", "family", "element", "report",
              "witness_pairing", "witness_norm"]),
    "norm": ("norm bundled:m2_diag --family good --element basis:1",
             ["command", "source", "family", "element", "report"]),
    "weakprod": ("weakprod bundled:m2_diag --family good --left basis:1 --right basis:2",
                 ["command", "source", "family", "left", "right", "coeffs", "report"]),
    "radical": ("radical bundled:m2_diag --family bad",
                ["command", "source", "family", "report"]),
    "topology": ("topology bundled:m2_diag --family good",
                 ["command", "source", "family", "set_size", "gamma", "element",
                  "seminorms", "subalgebra_mult_bounds", "upper_vs_star"]),
    "gastar": ("gastar bundled:m2_diag --family bad",
               ["command", "source", "family", "report"]),
    "lp": ("lp --points 2 --exponent 4",
           ["command", "points", "exponent", "masses", "values", "holder",
            "ascent_oracle", "mult_norm"]),
    "all": ("all bundled:m2_diag",
            ["command", "source", "description", "structure", "families"]),
}


def test_every_subcommand_reaches_its_handler_and_keeps_its_payload_order(monkeypatch):
    sub = next(a for a in cli.build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    assert list(sub.choices) == list(_PAYLOAD_KEYS)
    called = []
    for name, (reads, help_text, handler) in cli._COMMANDS.items():
        def spy(*args, _name=name, _handler=handler):
            called.append(_name)
            return _handler(*args)
        monkeypatch.setitem(cli._COMMANDS, name, (reads, help_text, spy))
    for name in sub.choices:
        argv, keys = _PAYLOAD_KEYS[name]
        out = main(*argv.split())
        assert out.returncode == 0, name
        payload = json.loads(out.stdout)
        assert list(payload) == keys, name
        assert payload["command"] == name
    assert called == list(sub.choices)
