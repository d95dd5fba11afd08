#!/usr/bin/env python3
# Desk-scale evidence: coverage certificates and rank preservation.

import json
import tempfile
from pathlib import Path

from surjkit import (
    BoxSpec,
    certify_surjective_on_box,
    compose_with_base,
    evaluate_to_precision,
    extend_to_line,
    lift_dimension,
    make_diagonal_family,
    project_lift,
    support_rank,
)
from surjkit.cli import main as surjkit_main

# Pipeline: a sinh member composed after a surjection R^2 -> R^3.
base = project_lift(lift_dimension(extend_to_line()), 2)
member = make_diagonal_family([1.0], 3)[0]
pipe = compose_with_base(member, base)
print("pipeline:", pipe.describe())

# Certify eps-surjectivity on a compact box: every grid target gets a
# preimage witness, and each witness re-checks by forward evaluation alone.
box = BoxSpec(((-10.0, 10.0),) * 3, 5)
cert = certify_surjective_on_box(pipe, box, 1e-3)
print(f"\ncertificate: {cert.status}, {len(cert.witnesses)} targets at eps={cert.epsilon}")
worst = max(w.achieved_error for w in cert.witnesses)
print("worst achieved residual:", worst)

w = cert.witnesses[17]
value = evaluate_to_precision(pipe, w.preimage, 1e-5).value
print("spot re-check of one witness:",
      max(abs(a - b) for a, b in zip(value, w.target)), "<= 2*eps")

# Rank preservation under composition: pre-composing with a surjective base
# creates no linear relation, so the composed family's rank is the members'
# exact rank.
family = make_diagonal_family([0.5, 1.0, 1.5, 2.0, 2.5, 3.0], 3)
rank, _ = support_rank(family)
print(f"\nrank of {len(family)} members after the base: {rank} (full: {rank == len(family)})")

# The same machinery through the command line: write a spec file, certify,
# read the report back.
spec = {
    "base": {"construct": "extend_to_line", "project_to": 2},
    "family": {"diagonal_exponents": ["1.0", "2.0"], "coefficients": ["1", "1"]},
    "certify": {"box": [["-5", "5"], ["-5", "5"]], "grid": 7, "epsilon": "1e-3"},
}
with tempfile.TemporaryDirectory() as tmp:
    spec_path = Path(tmp) / "pipeline.json"
    report_path = Path(tmp) / "report.json"
    spec_path.write_text(json.dumps(spec, indent=2))
    code = surjkit_main(["certify", "--spec", str(spec_path), "--report", str(report_path)])
    report = json.loads(report_path.read_text())
    print(f"\nCLI exit code {code}; report status {report['certificate']['status']}, "
          f"rank {report['independence']['rank']}")
