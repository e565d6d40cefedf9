import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_time_solvers_smoke():
    result = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "time_solvers.py"),
         "--order", "8", "--values"],
        capture_output=True, text=True)
    assert (result.returncode, result.stderr) == (0, "")
    lines = result.stdout.splitlines()
    values = {line.split("  ")[0].strip(): line for line in lines if "=" in line}
    assert len(values) == 29
    assert "domination_number=2 total_domination_number=4" in values["2K_4"]
    assert values["K_8"].endswith(" vertex_cover_number=7")
    assert "total_domination_number=6" in values["K_1,3 + 2K_2"]
    assert "total_domination_number=- " in values["E_8"]
    # zero forcing summed over the components of the disconnected graphs
    for label, z in (("E_8", 8), ("2K_4", 6), ("4K_2", 4), ("K_1,3 + 2K_2", 4)):
        assert f" zero_forcing_number={z} " in values[label], label
    header, *table = lines[29:]
    assert header.startswith("solver") and "29 graphs of order 8, best of 3" in header
    assert [row.split()[0] for row in table] == [
        "independence_number", "matching_number", "domination_number",
        "total_domination_number", "independent_domination_number",
        "min_maximal_matching", "zero_forcing_number", "vertex_cover_number"]


def test_time_solvers_rejects_an_order_it_cannot_build():
    result = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "time_solvers.py"),
         "--order", "10"], capture_output=True, text=True)
    assert result.returncode == 2
    assert "--order must be a multiple of 4" in result.stderr


def test_output_digests_smoke():
    result = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "output_digests.py")],
        capture_output=True, text=True)
    assert (result.returncode, result.stderr) == (0, "")
    corpora = ("cubic_connected_4_10.g6", "mixed_graphs.g6")
    names = [f"{corpus} {filters} {fmt}" for corpus in corpora
             for filters in ("both", "none", "generality", "dalmatian")
             for fmt in ("text", "structured")]
    names += [f"{corpus} {filters} top-k {top_k}" for corpus in corpora
              for filters in ("generality", "none") for top_k in (1, 3)]
    names += [f"{corpus} invariants {columns}" for corpus in corpora
              for columns in ("all", "alpha", "connected,order")]
    names += [f"{corpus} {run}" for run in ("cache-rewrites", "config")
              for corpus in corpora]
    names += [f"config-error {name}" for name in (
        "unknown-key", "repeated-key", "no-equals", "non-integer",
        "bad-filters", "bad-format")]
    names += ["verify bad-records", "structured-stdout-equals-export",
              *(f"help {command}" for command in (
                  "sharpbounds", "invariants", "conjecture", "verify"))]
    lines = result.stdout.splitlines()
    assert len(lines) == len(names) == 46
    digests = {}
    for line, name in zip(lines, names):
        head, _, value = line.rpartition(" ")
        assert head == name
        if name == "structured-stdout-equals-export":
            assert value == "True"
        else:
            assert len(value) == 64 and set(value) <= set("0123456789abcdef")
            digests[name] = value
    # the Dalmatian filter alone lists what both filters list
    for corpus in corpora:
        for fmt in ("text", "structured"):
            assert digests[f"{corpus} dalmatian {fmt}"] == \
                digests[f"{corpus} both {fmt}"]
