"""Mutation checks: named edits to src/ that named tests must catch.

usage: python3 tests/mutation_check.py   (from the root of a source checkout;
                                         about 25 s on two cores)

Each mutant is a name, a file under src/, an exact old text that must occur
there once, the new text, and the tests that must fail with the edit.  The
script copies src/, tests/ and pyproject.toml to a temporary directory, which
is pytest's rootdir there (pyproject.toml's pythonpath = ["src"] resolves
against it, so the copy's src/ is the one imported).  It applies one mutant
at a time and runs python -m pytest -x on its tests, one subprocess at a time,
each with a timeout, writing no bytecode so no stale .pyc can stand in for
the edited source.  It exits 1 if a mutant survives, or if an old text does
not occur exactly once, so a refactor that moves the code updates its
mutants here.  Pytest does not collect this file.
"""

import shutil
import subprocess
import sys
import tempfile
import time
from collections import namedtuple
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TIMEOUT = 120  # seconds per mutant

Mutant = namedtuple("Mutant", "name path old new tests")

MUTANTS = (
    Mutant(
        "split_once returns an unrefined node (alpha_z's last slot raised)",
        "src/bnseries/chains.py",
        "return alpha_y, complement_entries(alpha_y, d - r)",
        "return alpha_y, (*complement_entries(alpha_y, d - r)[:-1], complement_entries(alpha_y, d - r)[-1] + 1)",
        ("tests/test_split.py",),
    ),
    Mutant(
        "split_once admits a residual one over the criterion",
        "src/bnseries/chains.py",
        "alpha1[-1] <= low",
        "alpha1[-1] < low",
        ("tests/test_chains.py::test_soundness_and_completeness_small_grid",),
    ),
    Mutant(
        "split_once raises the node with one to spare",
        "src/bnseries/chains.py",
        "if total == g and",
        "if total >= g - 1 and",
        ("tests/test_split.py",),
    ),
    Mutant(
        "split_once raises every positive gap",
        "src/bnseries/chains.py",
        "y[r - j] += 1\n                break",
        "y[r - j] += 1",
        ("tests/test_split.py",),
    ),
    Mutant(
        "chain_violations checks only the left endpoint's context",
        "src/bnseries/chains.py",
        "if chain[0][1] != p.alpha1.entries:",
        "if len(chain[0][1]) != len(p.alpha1.entries):",
        ("tests/test_chains.py::test_verify_rejects_wrong_rho_and_endpoints",),
    ),
    Mutant(
        "_chain_entries looks up the residual under the genus-1 side's node",
        "src/bnseries/chains.py",
        "tails.get((d, alpha_z, alpha2))",
        "tails.get((d, alpha_y, alpha2))",
        ("tests/test_sweep.py",),
    ),
    Mutant(
        "witness_from_dict admits a genus-2 component",
        "src/bnseries/chains.py",
        "if genus not in (0, 1):",
        "if genus not in (0, 1, 2):",
        ("tests/test_chains.py::test_witness_from_dict_messages", "tests/test_golden.py"),
    ),
    Mutant(
        "lead_positions eliminates with the sign flipped",
        "src/bnseries/realize.py",
        "row[:] = [p * x - f * y for x, y in zip(row, pivot)]",
        "row[:] = [p * x + f * y for x, y in zip(row, pivot)]",
        ("tests/test_realize.py",),
    ),
    Mutant(
        "_Seq drops its per-entry type test",
        "src/bnseries/core.py",
        "if type(a) is not int:\n                _refuse_non_int(a,",
        "if False:\n                _refuse_non_int(a,",
        ("tests/test_value_classes.py",),
    ),
    Mutant(
        "rho charges g instead of r * g",
        "src/bnseries/core.py",
        "return (r + 1) * (d - r) - r * g - total1 - total2",
        "return (r + 1) * (d - r) - g - total1 - total2",
        ("tests/test_core.py",),
    ),
    Mutant(
        "criterion_excess pairs against d - r - g - 1",
        "src/bnseries/core.py",
        "for s in gaps(x, y, d - r - g):",
        "for s in gaps(x, y, d - r - g - 1):",
        ("tests/test_core.py",),
    ),
    Mutant(
        "the budget refuses a size equal to it",
        "src/bnseries/core.py",
        "if size > limit:",
        "if size >= limit:",
        ("tests/test_strata.py::test_eh_nonempty_refuses_over_budget_before_the_first_stratum",),
    ),
    Mutant(
        "2^bits counts as printable one bit past the digit limit",
        "src/bnseries/core.py",
        "(10**digits).bit_length() <= bits",
        "(10**digits).bit_length() < bits",
        ("tests/test_cli.py::test_oracle_verify_names_an_unprintable_top_cell_from_the_request_alone",),
    ),
    Mutant(
        "a sweep builds every criterion table on the zero row",
        "src/bnseries/cli.py",
        "table = criterion_table(g, r, d, e1) if len(seqs) > 1 else None",
        "table = criterion_table(g, r, d, seqs[0]) if len(seqs) > 1 else None",
        ("tests/test_sweep.py",),
    ),
    Mutant(
        "the refined complement is not reversed",
        "src/bnseries/strata.py",
        "return tuple([bound - a for a in reversed(entries)])",
        "return tuple([bound - a for a in entries])",
        ("tests/test_strata.py",),
    ),
    Mutant(
        "enumerate_refined_strata yields an unreversed complement",
        "src/bnseries/strata.py",
        "yield alpha_y, z[::-1]",
        "yield alpha_y, z",
        ("tests/test_acceptance.py::test_criterion_9_two_component_scan_with_oracle_base_cases",),
    ),
    # The rest are caught through the test-side references in tests/reference.py.
    Mutant(
        "a Stratum accepts a node pair one under compatibility",
        "src/bnseries/strata.py",
        "if min(node_gaps) < 0:",
        "if min(node_gaps) < -1:",
        ("tests/test_strata.py::test_a_stratum_is_built_exactly_for_the_compatible_pairs",),
    ),
    Mutant(
        "the generality predicate admits ord(P1 - P2) = d",
        "src/bnseries/oracle.py",
        "return m.order_diff > d",
        "return m.order_diff >= d",
        ("tests/test_oracle.py::test_ec_g1_nonempty_requires_generality",),
    ),
    Mutant(
        "profile_g1 leaves a special bundle's interior swap out",
        "src/bnseries/oracle.py",
        "orders[s - 1][1], orders[s][1] = orders[s][1], orders[s - 1][1]",
        "orders[s - 1][1], orders[s][1] = orders[s - 1][1], orders[s][1]",
        ("tests/test_acceptance.py::test_criterion_5c_genus1_oracle_degrees_6_and_7",),
    ),
    Mutant(
        "profile_g1 ignores diff_order",
        "src/bnseries/oracle.py",
        "for s in range(a % diff_order, d + 1, diff_order) if diff_order else (a,):",
        "for s in (a,):",
        ("tests/test_oracle.py::test_torsion_pair_merges_special_bundles",),
    ),
    Mutant(
        "a descriptor row's dimension is one too high",
        "src/bnseries/oracle.py",
        "rows.append((bundle, a, counts, dim_fit(coeffs), nonempty))",
        "rows.append((bundle, a, counts, len(coeffs), nonempty))",
        ("tests/test_oracle.py::test_ec_scan_identifies_witness_bundle",),
    ),
    Mutant(
        "point doubling takes the wrong tangent slope",
        "src/bnseries/elliptic.py",
        "slope = (3 * x1 * x1 + a) * pow(2 * y1, -1, p) % p",
        "slope = (2 * x1 * x1 + a) * pow(2 * y1, -1, p) % p",
        ("tests/test_elliptic.py::test_point_order_properties",),
    ),
)


def check_texts() -> list[str]:
    """One line per mutant whose old text does not occur exactly once in its file."""
    out = []
    for m in MUTANTS:
        found = (ROOT / m.path).read_text().count(m.old)
        if found != 1:
            out.append(f"{m.name}: old text occurs {found} times in {m.path}")
    return out


def run_mutant(tree: Path, m: Mutant) -> str:
    """'killed', 'SURVIVED' or 'ERROR ...' for one mutant applied in the copy at tree."""
    path = tree / m.path
    original = path.read_text()
    path.write_text(original.replace(m.old, m.new))
    try:
        out = subprocess.run(
            [sys.executable, "-B", "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *m.tests],
            cwd=tree, capture_output=True, text=True, timeout=TIMEOUT,
        )
    except subprocess.TimeoutExpired:
        return f"ERROR (no result in {TIMEOUT} s)"
    finally:
        path.write_text(original)
    # 1: a test failed; 2: a test module failed to import.  Anything else is not a verdict.
    return {0: "SURVIVED", 1: "killed", 2: "killed"}.get(out.returncode, f"ERROR (pytest exit {out.returncode})")


def main() -> int:
    stale = check_texts()
    for line in stale:
        print(f"STALE     {line}")
    if stale:
        return 1
    killed = 0
    start = time.perf_counter()
    with tempfile.TemporaryDirectory() as tmp:
        tree = Path(tmp)
        ignore = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
        for part in ("src", "tests"):
            shutil.copytree(ROOT / part, tree / part, ignore=ignore)
        shutil.copy(ROOT / "pyproject.toml", tree)
        for m in MUTANTS:
            began = time.perf_counter()
            verdict = run_mutant(tree, m)
            killed += verdict == "killed"
            print(f"{verdict:9} {time.perf_counter() - began:5.1f} s  {m.name}")
    print(f"{killed} of {len(MUTANTS)} mutants killed in {time.perf_counter() - start:.1f} s")
    return 0 if killed == len(MUTANTS) else 1


if __name__ == "__main__":
    sys.exit(main())
