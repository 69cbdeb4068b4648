"""`formula` output in general mode, byte for byte, against SHA-256 digests
of the stdout of the enumeration-based placement tables (commit 612983c),
for six families whose cumulants are all nonzero, at d = 2..10, and of the
per-part fold that followed them (commit f82f82d) for two families at
d = 12 and 14.  The d = 10 digests are also checked with every cache of
the program emptied before the call, as a fresh process runs it.  In
Hermitian mode, `write_formula` at d = 20 is pinned for an exact law
(text and JSON) and a float law (text), as written at commit 235c051."""

import hashlib
import io
import json
import sys
from pathlib import Path

import pytest

from rvnorms import cli
from rvnorms.cumulants import distribution_cumulants, parse_distribution
from rvnorms.normengine import write_formula

FIXTURES = Path(__file__).parent / "fixtures"
DIGESTS = json.loads((FIXTURES / "formula_general_sha256.json").read_text())
DIGESTS_D12_D14 = json.loads((FIXTURES / "formula_general_d12_d14_sha256.json").read_text())
DIGESTS_HERMITIAN_D20 = json.loads((FIXTURES / "formula_hermitian_d20_sha256.json").read_text())

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


DISTS_D12_D14 = ("gamma:alpha=7/4,beta=3/4", "finite_discrete:atoms=-2|1|3,probs=1/6|1/3|1/2")


def test_d12_d14_fixture_covers_every_case():
    assert len(DIGESTS_D12_D14) == len(DISTS_D12_D14) * 2 * 2


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("d", [12, 14])
@pytest.mark.parametrize("dist", DISTS_D12_D14)
def test_formula_general_bytes_unchanged_d12_d14(dist, d, fmt, capsys):
    argv = ["formula", dist, "-d", str(d)] + (["--json"] if fmt == "json" else [])
    assert cli.main(argv) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == DIGESTS_D12_D14[f"{dist} -d {d} {fmt}"]


def _program_caches():
    """Every functools cache held by a loaded rvnorms module, as a fresh
    process starts without them."""
    seen = {}
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] != "rvnorms" or module is None:
            continue
        for value in vars(module).values():
            if callable(getattr(value, "cache_clear", None)):
                seen[id(value)] = value
    return list(seen.values())


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("dist", DISTS)
def test_formula_general_bytes_unchanged_cold(dist, fmt, capsys):
    # the other fixture tests share warm caches across the test process;
    # this one empties every cache first, as a fresh `formula` process runs
    caches = _program_caches()
    assert any(cache.__name__ == "placement_terms" for cache in caches)
    for cache in caches:
        cache.cache_clear()
    argv = ["formula", dist, "-d", "10"] + (["--json"] if fmt == "json" else [])
    assert cli.main(argv) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == DIGESTS[f"{dist} -d 10 {fmt}"]


@pytest.mark.parametrize(
    "dist, fmt",
    [
        ("gamma:alpha=7/4,beta=3/4", "text"),
        ("gamma:alpha=7/4,beta=3/4", "json"),
        ("gamma:alpha=1.5,beta=0.3", "text"),
    ],
)
def test_hermitian_formula_bytes_unchanged_d20(dist, fmt):
    kappas = distribution_cumulants(parse_distribution(dist), 20)
    out = io.StringIO()
    write_formula(out.write, kappas, 20, hermitian_mode=True, as_json=fmt == "json")
    digest = hashlib.sha256(out.getvalue().encode()).hexdigest()
    assert digest == DIGESTS_HERMITIAN_D20[f"{dist} -d 20 {fmt}"]
