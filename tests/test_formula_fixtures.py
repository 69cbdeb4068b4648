"""`formula` output in general mode, byte for byte, against SHA-256 digests
of the stdout of the enumeration-based placement tables (commit 612983c),
for six families whose cumulants are all nonzero, at d = 2..10."""

import hashlib
import json
from pathlib import Path

import pytest

from rvnorms import cli

DIGESTS = json.loads((Path(__file__).parent / "fixtures" / "formula_general_sha256.json").read_text())

DISTS = (
    "gamma:alpha=7/4,beta=3/4",
    "exponential:beta=5/4",
    "poisson:alpha=9/4",
    "bernoulli:q=2/7",
    "finite_discrete:atoms=-2|1|3,probs=1/6|1/3|1/2",
    "pareto:alpha=34/3",
)


def test_fixture_covers_every_case():
    assert len(DIGESTS) == len(DISTS) * 5 * 2


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("d", [2, 4, 6, 8, 10])
@pytest.mark.parametrize("dist", DISTS)
def test_formula_general_bytes_unchanged(dist, d, fmt, capsys):
    argv = ["formula", dist, "-d", str(d)] + (["--json"] if fmt == "json" else [])
    assert cli.main(argv) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == DIGESTS[f"{dist} -d {d} {fmt}"]
