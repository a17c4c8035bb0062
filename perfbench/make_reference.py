"""Write reference.json: the answer fields of every operation with a stored reference.

    python3 perfbench/make_reference.py

Run from the root of the checkout whose answers are taken as correct.
Corpus answers are taken at several seeds and must agree, since each
slot's answers follow from its block pattern alone.  The seeded
cli-bundles commands and the known-defect probes are not stored: their
expectations are computed in workloads.py from closed forms and from the
documented contract.
"""

import json
import sys

import run

CORPUS_SEEDS = (1, 2, 3)


def answers(workload, seed, reference):
    import workloads

    ops, _ = workloads.build_ops(workload, seed, reference)
    _, _, outcomes = run.run_pass(ops)
    return {op.name: op.answer(o) for op, o in zip(ops, outcomes)}


def main():
    run.import_library()
    import workloads

    out = {}
    fixed = set(workloads.fixed_cli_commands())
    cli = answers("cli-bundles", 0, {})
    out["cli-bundles"] = {name: a for name, a in cli.items() if name in fixed}
    for workload in ("gastar-corpus", "intake-n8"):
        first, *rest = [answers(workload, s, {}) for s in CORPUS_SEEDS]
        for other in rest:
            for name, expected in first.items():
                bad = workloads.mismatches(expected, other[name], 1e-8)
                if bad:
                    sys.exit(f"{workload} {name}: answers depend on the seed: {bad}")
        out[workload] = first
    workloads.REFERENCE.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
