"""Compare the reports of two source trees of qstarlab.

Usage::

    python tools/compare_reports.py <tree-a> <tree-b>

Each tree is a checkout (or ``git archive`` export) holding ``src/qstarlab``.
Each one's reports are produced in its own interpreter, with its ``src``
first on the path and BLAS on one thread; the inputs come from this
checkout's ``perfbench`` and ``tests/corpus.py``, so both trees see the
very same instances.  The reports are:

* the stdout and exit code of 762 CLI commands: every bundle family under
  forms, gns, radical, topology and gastar, cone and norm on every basis
  element and weakprod on every basis pair, each at twist depths 0-2, plus
  perfbench's fixed command list and its seeded commands for seeds 1-4
  (a text report's ``wall_ms`` line is left out);
* the structure, family, sufficiency, radical and gastar reports of 41
  corpus pairs: perfbench's gastar and intake pairs for seeds 1-4, and
  ``tests/corpus.py`` pairs at n = 4, 6 and 8.

It prints how many reports it compared and how many are byte-identical,
then every path at which two reports differ.  A difference passes the
refactor rule when verdicts, ranks, labels and error types (every
non-float value) match exactly and floats agree to ``cross_check`` of
``tolerances.py``, relative to the larger magnitude.  The exit status is 0
when every difference passes, 1 otherwise.  Nothing under ``perfbench`` is
written.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parents[1]
DEPTHS = (0, 1, 2)
CROSS_CHECK = 1e-8  # tolerances.DEFAULT_TOL.cross_check


def commands():
    """The CLI commands, in a fixed order, as argument strings."""
    import numpy as np
    import workloads
    from qstarlab import load_bundle
    out = []
    for bundle, fam in workloads.PAIRS:
        d = load_bundle(bundle)["instance"].dim
        for depth in DEPTHS:
            src = f"bundled:{bundle} --family {fam} --twist-depth {depth}"
            out += [f"{sub} {src}" for sub in ("forms", "gns", "radical", "topology", "gastar")]
            for i in range(d):
                out += [f"cone {src} --element basis:{i}", f"norm {src} --element basis:{i}"]
                out += [f"weakprod {src} --left basis:{i} --right basis:{j}" for j in range(d)]
    out += workloads.fixed_cli_commands()
    for seed in (1, 2, 3, 4):
        out += [cmd for cmd, _ in workloads.seeded_cli_commands(np.random.default_rng(seed))]
    return list(dict.fromkeys(out))


def corpus_pairs():
    """(name, instance, family) for each corpus pair, built afresh."""
    import corpus as perf_corpus
    import qstarlab
    tests_corpus = _load_tests_corpus()
    out = []
    for seed in (1, 2, 3, 4):
        for slots in (perf_corpus.GASTAR_SLOTS, perf_corpus.INTAKE_SLOTS):
            for raw in perf_corpus.make_pairs(seed, slots):
                out.append((f"perfbench/{seed}/{raw.slot.name}", *perf_corpus.build(qstarlab, raw)))
    for n in (4, 6, 8):
        for k, (inst, fam) in enumerate(tests_corpus.make_corpus(count=3, seed=40 + n,
                                                                 n_min=n, n_max=n)):
            out.append((f"tests-corpus/n{n}/{k}", inst, fam))
    return out


def _load_tests_corpus():
    """``tests/corpus.py`` by path: perfbench has a ``corpus`` module too."""
    import importlib.util
    spec = importlib.util.spec_from_file_location("tests_corpus", HERE / "tests" / "corpus.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _outcome(call):
    """A report's dict, or the name of the typed error it raised."""
    from qstarlab import QStarError
    try:
        return call().as_dict()
    except QStarError as exc:
        return {"raised": type(exc).__name__}


def emit():
    """Every report of the tree whose ``src`` is first on the path, as one
    JSON object of report texts, on stdout."""
    import qstarlab
    import qstarlab.cli
    from qstarlab.report import dumps
    reports = {}
    for cmd in commands():
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = qstarlab.cli.main(cmd.split())
        # a text report ends on its wall time, which no two runs share
        text = "".join(ln for ln in out.getvalue().splitlines(True) if not ln.startswith("wall_ms: "))
        reports[f"cli: {cmd}"] = f"exit {code}\n{text}"
    for name, inst, fam in corpus_pairs():
        parts = {"structure": _outcome(lambda: qstarlab.validate_structure(inst)),
                 "family": _outcome(lambda: qstarlab.validate_family(fam, inst)),
                 "sufficiency": _outcome(lambda: fam.sufficiency(inst)),
                 "radical": _outcome(lambda: qstarlab.radical(fam, inst)),
                 "gastar": _outcome(lambda: qstarlab.ga_star_check(fam, inst))}
        reports[f"corpus: {name}"] = dumps(parts)
    json.dump(reports, sys.stdout)


def reports_of(tree: Path) -> dict:
    """Run ``emit`` in a fresh interpreter on ``tree``'s sources."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1", PYTHONHASHSEED="0")
    env["PYTHONPATH"] = os.pathsep.join([str(tree / "src"), str(HERE / "perfbench")])
    proc = subprocess.run([sys.executable, str(Path(__file__).resolve()), "--emit"],
                          env=env, cwd=HERE, capture_output=True, text=True, check=False)
    if proc.returncode:
        sys.exit(f"{tree}: report run failed\n{proc.stderr}")
    return json.loads(proc.stdout)


def _parse(text):
    """A report text as ``(exit line, JSON value)``, or the text itself when it is not JSON."""
    head, _, body = text.partition("\n") if text.startswith("exit ") else ("", "", text)
    try:
        return head, json.loads(body)
    except ValueError:
        return head, body


def differences(a, b, path=""):
    """``(path, a, b, passes)`` for each leaf at which two JSON values differ."""
    if isinstance(a, dict) and isinstance(b, dict) and a.keys() == b.keys():
        for key in a:
            yield from differences(a[key], b[key], f"{path}/{key}")
    elif isinstance(a, list) and isinstance(b, list) and len(a) == len(b):
        for i, (x, y) in enumerate(zip(a, b)):
            yield from differences(x, y, f"{path}[{i}]")
    elif type(a) is not type(b) or (a != b and not (a != a and b != b)):
        close = type(a) is float and type(b) is float and \
            abs(a - b) <= CROSS_CHECK * max(abs(a), abs(b))
        yield path or "/", a, b, close


def compare(ra: dict, rb: dict) -> bool:
    """Print the comparison of two trees' reports; whether every difference passes."""
    if ra.keys() != rb.keys():
        sys.exit("the two trees produced different report sets")
    same = sum(ra[k] == rb[k] for k in ra)
    print(f"compared {len(ra)} reports: {same} byte-identical, {len(ra) - same} differ")
    ok = True
    for key in ra:
        if ra[key] == rb[key]:
            continue
        (ha, va), (hb, vb) = _parse(ra[key]), _parse(rb[key])
        diffs = [*differences(ha, hb, "/exit"), *differences(va, vb)]
        if not diffs:
            # equal values written in different bytes, such as key order or spacing
            print(f"{key}: same values, different text")
        for path, x, y, close in diffs:
            ok = ok and close
            verdict = "within cross_check" if close else "BREAKS the refactor rule"
            print(f"{key}: {path}: {x!r} -> {y!r} ({verdict})")
    return ok


def main(argv):
    if argv == ["--emit"]:
        emit()
        return 0
    if len(argv) != 2:
        print(__doc__.strip().splitlines()[0], "\nusage: compare_reports.py <tree-a> <tree-b>",
              file=sys.stderr)
        return 2
    ra, rb = (reports_of(Path(t).resolve()) for t in argv)
    return 0 if compare(ra, rb) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
