"""Record the reference CSVs the correctness gate compares against.

Run once from the repository root at the commit whose outputs are the
reference (the reference files were recorded at the commit that added
this benchmark, before any change to src/):

    python3 bench/record_reference.py

The figure presets are deterministic, so their references are the CLI
output itself.  The simulate references use many more trials than a
benchmark run and a seed of their own, so that a run with any seed can be
compared with them through the standard errors of both estimates.
"""
import subprocess
import sys

from run import REFERENCE, ROOT, WORKLOADS, child_env

REFERENCE_TRIALS = 20000
REFERENCE_SEED = 160101858


def main() -> int:
    REFERENCE.mkdir(exist_ok=True)
    for spec in WORKLOADS.values():
        for stem, template, trials in spec["commands"]:
            args = [a.replace("{seed}", str(REFERENCE_SEED))
                    for a in template]
            if trials:
                args[args.index("--trials") + 1] = str(REFERENCE_TRIALS)
            out = REFERENCE / f"{stem}.csv"
            code = ("import sys; from hetnet.cli import main; "
                    "sys.exit(main(sys.argv[1:]))")
            subprocess.run([sys.executable, "-c", code, *args,
                            "--out", str(out)],
                           cwd=ROOT, env=child_env(), check=True)
            print(f"wrote {out.relative_to(ROOT)}: {' '.join(args)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
