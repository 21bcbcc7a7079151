"""Golden stdout battery: fixed CLI runs compared byte for byte.

Each case runs the CLI in-process on a catalog entry and compares its stdout
and exit code with the files recorded under ``tests/golden/``.  Refactors
that promise unchanged output are held to this battery.  Re-record (only
when an output change is intended) with

    PYTHONPATH=src python tests/test_golden.py --record [NAME ...]

which rewrites the named cases, or every case when no name is given.
"""

import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

from arrsheaf.arrangement import catalog, serialize_arrangement
from arrsheaf.cli import main
from conftest import build_arrangement

GOLDEN_DIR = Path(__file__).parent / "golden"
EXIT_CODES = GOLDEN_DIR / "exit_codes.json"

FP = "Fp 2147483647"

# name -> (catalog entry or a ``build_arrangement`` name, CLI arguments; "{f}"
# is the arrangement file[, field replacing the entry's "field Q" line])
CASES = {
    "lattice-braid4": (("braid", 4), ["lattice", "{f}"]),
    "freeness-braid3": (("braid", 3), ["freeness", "{f}"]),
    # ell = 4: free (exponents 1 2 3 4) and not free (eleven generators)
    "freeness-braid4": (("braid", 4), ["freeness", "{f}"]),
    "freeness-generic46": (("generic", 4, 6), ["freeness", "{f}"]),
    "derivations-boolean2": (
        ("boolean", 2), ["derivations", "{f}", "--flat", "3", "--degree", "1"]),
    # kernel basis over Q with non-unit coefficients, at the top flat
    "derivations-generic46-top-d3": (
        ("generic", 4, 6), ["derivations", "{f}", "--flat", "42", "--degree", "3"]),
    "cohomology-braid3": (("braid", 3), ["cohomology", "{f}", "--window", "-2:4"]),
    # ell = 4 D tables on the default window: level-1 cokernel differentials
    "cohomology-braid4": (("braid", 4), ["cohomology", "{f}"]),
    "cohomology-braid4-fp": (("braid", 4), ["cohomology", "{f}"], FP),
    "cohomology-generic46": (("generic", 4, 6), ["cohomology", "{f}"]),
    "cohomology-O-boolean2": (
        ("boolean", 2),
        ["cohomology", "{f}", "--functor", "O", "--window", "-5:3", "--kmax", "6"]),
    "oracle-generic34": (
        ("generic", 3, 4), ["oracle", "{f}", "--window", "-3:3", "--kmax", "5"]),
    "oracle-O-arrangement-boolean2": (
        ("boolean", 2),
        ["oracle", "{f}", "--module", "O", "--cover", "arrangement",
         "--window", "-4:2", "--kmax", "6"]),
    "report-braid3": (
        ("braid", 3), ["report", "{f}", "--kunneth-window", "-2:2", "--kmax", "4"]),
    # the Kunneth window reaches outside the report window (-4, 2)
    "report-boolean2-wide-kunneth": (
        ("boolean", 2), ["report", "{f}", "--kunneth-window", "-6:6", "--kmax", "6"]),
    # not free: tensor term through the top-level syzygies
    "report-generic34": (
        ("generic", 3, 4), ["report", "{f}", "--kunneth-window", "-2:2", "--kmax", "4"]),
    "report-braid3-table": (
        ("braid", 3), ["report", "{f}", "--skip-kunneth", "--format", "table"]),
    # the mod-p reducers: rank, kernels, quotients and restriction maps
    "report-braid3-fp": (
        ("braid", 3), ["report", "{f}", "--kunneth-window", "-2:2", "--kmax", "4"], FP),
    "derivations-braid3-fp-flat7-d2": (
        ("braid", 3), ["derivations", "{f}", "--flat", "7", "--degree", "2"], FP),
    # quotient residues of non-monomial cofactors over Q
    "oracle-arrangement-braid2": (
        ("braid", 2),
        ["oracle", "{f}", "--cover", "arrangement", "--window", "-3:3", "--kmax", "6"]),
    "cohomology-O-generic34": (
        ("generic", 3, 4),
        ["cohomology", "{f}", "--functor", "O", "--window", "-2:1", "--kmax", "3"]),
    "verify-kunneth-boolean2": (
        ("boolean", 2), ["verify-kunneth", "{f}", "--window", "-3:2", "--kmax", "6"]),
    # not free: top cells through the syzygies, one unstable cell excluded
    "verify-kunneth-generic34": (
        ("generic", 3, 4), ["verify-kunneth", "{f}", "--window", "-2:2", "--kmax", "4"]),
    # the O table on the full cover, under the tuple cap
    "cohomology-O-full-boolean3": (
        ("boolean", 3),
        ["cohomology", "{f}", "--functor", "O", "--cover", "full",
         "--window", "-4:1", "--kmax", "3"]),
    # D on the minimal flat cover: H^1 at d = 0, an H^2 cell stable at K = 2
    "oracle-arrangement-generic34": (
        ("generic", 3, 4),
        ["oracle", "{f}", "--cover", "arrangement", "--window", "-2:2", "--kmax", "4"]),
    # D on the coordinate cover at ell = 4
    "oracle-braid4": (("braid", 4), ["oracle", "{f}", "--window", "0:1", "--kmax", "4"]),
    # not free at ell = 4, with c_{h,k} in {+-1, +-2} and nonzero H^1 and H^2
    "report-nonfree47": ("nonfree-4-7", ["report", "{f}", "--skip-kunneth"]),
    "cohomology-nonfree47-fp": ("nonfree-4-7", ["cohomology", "{f}"], FP),
}


def run_case(name: str, workdir: Path) -> tuple[int, bytes]:
    entry, argv, *field = CASES[name]
    arr = build_arrangement(entry, "Q") if isinstance(entry, str) else catalog(*entry)
    text = serialize_arrangement(arr)
    if field:
        text = text.replace("field Q\n", f"field {field[0]}\n", 1)
    path = workdir / f"{name}.arr"
    path.write_text(text, encoding="utf-8")
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main([a.replace("{f}", str(path)) for a in argv])
    return code, buf.getvalue().encode("utf-8")


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_stdout(name, tmp_path):
    code, out = run_case(name, tmp_path)
    expected_codes = json.loads(EXIT_CODES.read_text(encoding="utf-8"))
    assert code == expected_codes[name]
    assert out == (GOLDEN_DIR / f"{name}.out").read_bytes()


def _record(names=()) -> None:
    """Rewrite the files and exit codes of ``names``, which keeps the other
    recorded cases, or of every case when ``names`` is empty."""
    import tempfile

    GOLDEN_DIR.mkdir(exist_ok=True)
    codes = json.loads(EXIT_CODES.read_text(encoding="utf-8")) if names else {}
    with tempfile.TemporaryDirectory() as tmp:
        for name in names or sorted(CASES):
            code, out = run_case(name, Path(tmp))
            (GOLDEN_DIR / f"{name}.out").write_bytes(out)
            codes[name] = code
    EXIT_CODES.write_text(json.dumps(codes, indent=2, sort_keys=True) + "\n",
                          encoding="utf-8")


if __name__ == "__main__":
    flag, *names = sys.argv[1:] or [None]
    if flag != "--record":
        sys.exit(__doc__)
    unknown = sorted(set(names) - set(CASES))
    if unknown:
        sys.exit("unknown cases: " + " ".join(unknown))
    _record(names)
