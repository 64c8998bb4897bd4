"""Record the reference outputs the benchmark checks against.

    python3 bench/record_refs.py

Writes ``bench/refs.json``: for every input variant, the exit code and
SHA-256 of each CLI report of the cli-cold mix (run in-process, which the
byte-identical report promise makes equal to a cold call), the digest of
the pairs workload's probe report, and the certified size of each search
operation.  Run it only at a commit whose outputs are taken as correct;
the `bound` figures are checked against ``oracle.py`` instead.
"""

import contextlib
import hashlib
import io
import json
import shutil
import sys
import tempfile
from pathlib import Path

import run  # noqa: F401  (module constants)

run.import_program()

import inputs  # noqa: E402
import ops  # noqa: E402
from negcurve import cli, equivalence_probe  # noqa: E402
from spans import Tracer  # noqa: E402


def cli_refs(seed: int, workdir: Path) -> dict:
    docs = inputs.cli_documents(seed)
    out = {}
    for kind, argv, expected in inputs.cli_argv(docs, workdir):
        ops.clear_caches()
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(argv)
        if code != expected:
            raise SystemExit(f"variant {seed}: {kind} exited {code}, expected {expected}")
        stdout = buf.getvalue().encode()
        ref = {"exit": code, "sha256": hashlib.sha256(stdout).hexdigest()}
        if kind == "bound_file":
            ref["pipeline_sha256"] = ops.digest(json.loads(stdout)["outputs"]["pipeline"])
        out[kind] = ref
    return out


def main() -> int:
    refs = {"cli": {}, "pairs": {}, "search": {}}
    workdir = Path(tempfile.mkdtemp(dir=run.ROOT, prefix=".bench_refs_"))
    try:
        for v in range(inputs.VARIANTS):
            refs["cli"][str(v)] = cli_refs(v, workdir)
            probe = equivalence_probe(3, ops.PROBE_SAMPLES, seed=5000 + v)
            refs["pairs"][str(v)] = {"probe_sha256": ops.digest(probe.to_json_dict())}
            # search sizes: build with placeholder references, run each op once
            placeholder = {"search": {str(v): {}}}
            wl = ops.search(v, workdir, Tracer(), run.child_env(), placeholder)
            refs["search"][str(v)] = {op.kind: op.run()[1].size for op in wl.ops}
            print(f"variant {v}: {refs['search'][str(v)]}", file=sys.stderr)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    refs["recorded_at"] = run.provenance()
    (run.BENCH / "refs.json").write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
