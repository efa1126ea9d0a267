"""One benchmark set-up, run in a fresh process and timed by its parent.

Imports qvnn, generates and writes the workload's inputs and, on the
simulate workload, certifies the stable stand-in with ``qvnn certify --out``
and checks that the certificate belongs to that config. The last stdout
line is a JSON object with the certify call's seconds (or null).

    python3 perfbench/prepare.py --workload NAME --out DIR
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import workloads


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()

    cli = workloads.import_cli()
    from qvnn.model import config_hash
    files = workloads.write_inputs(args.workload, args.out)
    certify_s = None
    if args.workload == "simulate":
        cert = args.out / "cert.json"
        rc, report, certify_s = workloads.invoke(
            cli, ["certify", str(files["stable"]), "--out", str(cert), "--json"])
        if rc != 0 or (report or {}).get("status") != "certified":
            print(f"set-up certify failed: exit code {rc}", file=sys.stderr)
            return 1
        doc = json.loads(files["stable"].read_text())
        cert_doc = json.loads(cert.read_text())
        if (cert_doc["config_hash"] != config_hash(doc)
                or cert_doc["n"] != doc["n"]):
            print("set-up certificate belongs to another config",
                  file=sys.stderr)
            return 1
    print(json.dumps({"certify_s": certify_s}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
