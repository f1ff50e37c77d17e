"""Every workload, end-to-end and per-layer, in one command.

    python3 perfbench/report.py --seed 1 --seconds 12

Runs ``run.py`` for each workload with ``--trace 0`` and ``--trace 1``,
one after another, and prints every metric by name with its unit, the
attempted/failed op counts, and every failed check.  Exits with status 1
if any run fails or any check does not hold.
"""

import argparse
import json
import os
import subprocess
import sys

WORKLOADS = ("serve-zipf", "serve-unique", "monitor", "sim")
_RUN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "run.py")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=12.0)
    args = parser.parse_args(argv)
    ok = True
    for workload in WORKLOADS:
        for trace in (0, 1):
            proc = subprocess.run(
                [
                    sys.executable,
                    _RUN,
                    "--workload",
                    workload,
                    "--seed",
                    str(args.seed),
                    "--seconds",
                    str(args.seconds),
                    "--trace",
                    str(trace),
                ],
                capture_output=True,
                text=True,
                check=False,
            )
            lines = proc.stdout.splitlines()
            try:
                result = json.loads(lines[-1])
            except (IndexError, json.JSONDecodeError):
                print(f"{workload} trace={trace}: no result (exit {proc.returncode})")
                print(proc.stderr[-2000:], end="")
                ok = False
                continue
            ok = ok and proc.returncode == 0 and result["correct"]
            print(
                f"{workload} trace={trace}: attempted {result['attempted']} "
                f"failed {result['failed']} correct {result['correct']}"
            )
            for name, metric in result["metrics"].items():
                print(f"  {name:42s} {metric['value']:14.6g} {metric['unit']}")
            for line in proc.stderr.splitlines():
                if line.startswith("check failed"):
                    print(f"  {line}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
