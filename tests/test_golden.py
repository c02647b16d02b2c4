"""Byte-exact reports pinned across refactors.

Each case runs one CLI experiment on a small config and compares its CSV
report with the reference file of the same name in ``tests/golden/``.  The
cases cover ``ball``, ``summable``, ``converge`` and ``dist --mode bracket`` on
Z, Z^2, Z x S3 and the infinite dihedral group, with trace, one, character,
table, vector and density states.  The ``custom_*`` cases run ``ball`` and
``dist --mode bracket`` with non-default generating sets: Z^2 with +-e1, +-e2,
+-(e1 + e2), the dihedral group generated by the reflections (0, 1) and
(1, 1), and Z x S3 generated by +-(1, e) and two transpositions.  The
``*_r<radius>`` cases run ``dist`` on the benchmark's radii (10^4 on Z, 150
on Z^2, 2000 on Z x S3, 5000 on the dihedral group), one with a table key
beyond the radius.  ``growth``
(a LAPACK least-squares fit) and the heuristic (LAPACK and Lanczos) are
left out, and characters stay on Z (one product per coefficient), so the
references do not depend on the BLAS build.

Each case's ``--format json`` report is checked against the same reference:
its cells, written as the CSV writes them (floats by ``repr``, ``inf``, an
empty cell for null, ``true``/``false``), must equal the reference's.

Regenerate the references only when an output change is intended:
``PYTHONPATH=src python tests/test_golden.py``.
"""

import json
from pathlib import Path

import pytest

from qmetric.cli import main

GOLDEN = Path(__file__).parent / "golden"

Z = {"family": "free_abelian", "rank": 1}
Z2 = {"family": "free_abelian", "rank": 2}
ZXS3 = {"family": "product_z_finite", "finite": {"name": "s3"}}
DIHEDRAL = {"family": "infinite_dihedral"}
Z2_HEX = {**Z2, "generators": [[1, 0], [-1, 0], [0, 1], [0, -1], [1, 1], [-1, -1]]}
DIHEDRAL_REFLECTIONS = {**DIHEDRAL, "generators": [[0, 1], [1, 1]]}
ZXS3_TRANSPOSITIONS = {**ZXS3, "generators": [[1, 0], [-1, 0], [0, 1], [0, 2]]}


def _items(pairs):
    return [{"element": el, "re": re, "im": im} for el, re, im in pairs]


def _char(re, im):
    return {"kind": "character", "z": [{"re": re, "im": im}]}


def _vector(pairs):
    return {"kind": "vector", "support": _items(pairs)}


def _density(pairs):
    return {"kind": "density", "b": _items(pairs)}


def _table(pairs):
    return {"kind": "table", "extend_zero": True, "entries": _items(pairs)}


TRACE, ONE = {"kind": "trace"}, {"kind": "one"}


def _dist(group, a, b, radius):
    return {"group": group, "state_a": a, "state_b": b, "radius": radius,
            "trunc": 2, "mode": "bracket"}


CASES = {
    "ball_z": ("ball", {"group": Z, "radius": 8}),
    "ball_z2": ("ball", {"group": Z2, "radius": 5}),
    "ball_zxs3": ("ball", {"group": ZXS3, "radius": 4}),
    "ball_dihedral": ("ball", {"group": DIHEDRAL, "radius": 8}),
    "summable_z": ("summable", {"group": Z, "radius": 12, "require_exceeds": 1.5}),
    "summable_z2": ("summable", {"group": Z2, "radius": 6}),
    "summable_zxs3": ("summable", {"group": ZXS3, "radius": 4,
                                   "require_exceeds": 100.0}),
    "summable_dihedral": ("summable", {"group": DIHEDRAL, "radius": 10}),
    "converge_z_character": ("converge", {
        "group": Z, "radius": 12, "epsilon": 0.5, "limit_state": TRACE,
        "sequence": {"kind": "character_inverse_n", "n_max": 6}}),
    "converge_dihedral_density": ("converge", {
        "group": DIHEDRAL, "radius": 10, "epsilon": 0.5, "limit_state": TRACE,
        "sequence": {"kind": "density_inverse_n", "n_max": 5,
                     "base_element": [0, 0], "step_element": [1, 0]}}),
    "converge_zxs3_explicit": ("converge", {
        "group": ZXS3, "radius": 4, "epsilon": 1.0, "limit_state": ONE,
        "sequence": {"kind": "explicit", "states": [
            _vector([([0, 0], 0.6, 0.0), ([1, 2], 0.0, 0.8)]),
            _table([([1, 0], 0.5, 0.0), ([-1, 0], 0.5, 0.0)]),
            TRACE]}}),
    "converge_z2_explicit": ("converge", {
        "group": Z2, "radius": 5, "epsilon": 2.0, "limit_state": TRACE,
        "sequence": {"kind": "explicit", "states": [
            _density([([0, 0], 1.0, 0.0), ([1, 0], 1.0, 0.0)]),
            _density([([0, 0], 1.0, 0.0), ([0, 1], 0.5, 0.0)]),
            ONE]}}),
    "dist_z_trace_character": ("dist", _dist(Z, TRACE, _char(0.6, 0.8), 30)),
    "dist_z_density_vector": ("dist", _dist(
        Z, _density([([0], 1.0, 0.0), ([2], 0.5, -0.5)]),
        _vector([([0], 0.6, 0.0), ([-1], 0.0, 0.8)]), 20)),
    "dist_z2_one_table": ("dist", _dist(
        Z2, ONE, _table([([1, 0], 0.25, 0.0), ([-1, 0], 0.25, 0.0),
                         ([0, 1], 0.25, 0.0), ([0, -1], 0.25, 0.0)]), 6)),
    "dist_z2_vector_density": ("dist", _dist(
        Z2, _vector([([0, 0], 0.8, 0.0), ([1, -1], 0.6, 0.0)]),
        _density([([0, 0], 1.0, 0.0), ([0, 1], 1.0, 1.0)]), 5)),
    "dist_zxs3_table_vector": ("dist", _dist(
        ZXS3, _table([([1, 0], 0.5, 0.0), ([-1, 0], 0.5, 0.0)]),
        _vector([([0, 1], 0.6, 0.0), ([1, 3], 0.0, 0.8)]), 5)),
    "dist_zxs3_trace_density": ("dist", _dist(
        ZXS3, TRACE, _density([([0, 0], 1.0, 0.0), ([0, 4], 0.5, 0.0),
                               ([1, 1], 0.0, 0.5)]), 4)),
    "dist_dihedral_one_vector": ("dist", _dist(
        DIHEDRAL, ONE, _vector([([0, 1], 0.6, 0.0), ([2, 0], 0.8, 0.0)]), 12)),
    "dist_dihedral_table_density": ("dist", _dist(
        DIHEDRAL, _table([([1, 0], 0.5, 0.0), ([-1, 0], 0.5, 0.0)]),
        _density([([0, 0], 1.0, 0.0), ([1, 1], 1.0, 0.0)]), 12)),
    "custom_ball_z2_hex": ("ball", {"group": Z2_HEX, "radius": 5}),
    "custom_ball_dihedral_reflections": ("ball", {"group": DIHEDRAL_REFLECTIONS,
                                                  "radius": 9}),
    "custom_ball_zxs3_transpositions": ("ball", {"group": ZXS3_TRANSPOSITIONS,
                                                 "radius": 6}),
    "custom_dist_z2_hex_trace_density": ("dist", _dist(
        Z2_HEX, TRACE, _density([([0, 0], 1.0, 0.0), ([1, 1], 0.5, 0.5),
                                 ([2, -1], 0.0, 0.5)]), 6)),
    "custom_dist_dihedral_reflections_one_vector": ("dist", _dist(
        DIHEDRAL_REFLECTIONS, ONE, _vector([([0, 1], 0.6, 0.0), ([3, 0], 0.0, 0.8)]),
        10)),
    "custom_dist_zxs3_transpositions_table_density": ("dist", _dist(
        ZXS3_TRANSPOSITIONS, _table([([1, 3], 0.5, 0.0), ([-1, 4], 0.5, 0.0)]),
        _density([([0, 0], 1.0, 0.0), ([0, 3], 0.5, 0.0), ([2, 1], 0.0, 0.5)]), 5)),
    "dist_z_density_table_r10000": ("dist", _dist(
        Z, _density([([0], 1.0, 0.0), ([3], 0.5, -0.25), ([-2], 0.0, 0.7)]),
        _table([([1], 0.3, 0.1), ([-1], 0.3, -0.1), ([12000], 0.2, 0.0)]), 10_000)),
    "dist_z2_trace_density_r150": ("dist", _dist(
        Z2, TRACE, _density([([0, 0], 1.0, 0.0), ([1, -2], 0.5, 0.5),
                             ([3, 1], 0.0, 0.4)]), 150)),
    "dist_zxs3_density_vector_r2000": ("dist", _dist(
        ZXS3, _density([([0, 0], 1.0, 0.0), ([1, 3], 0.5, 0.0), ([-2, 5], 0.0, 0.6)]),
        _vector([([0, 1], 0.6, 0.0), ([2, 4], 0.0, 0.8)]), 2000)),
    "dist_dihedral_vector_table_r5000": ("dist", _dist(
        DIHEDRAL, _vector([([1, 1], 0.6, 0.0), ([-3, 0], 0.0, 0.8)]),
        _table([([2, 0], 0.4, 0.0), ([-2, 0], 0.4, 0.0), ([7, 1], 0.1, 0.1)]), 5000)),
}


def render(name: str, tmp: Path, fmt: str = "csv") -> bytes:
    """Run one case through the CLI and return its report in the given format."""
    experiment, config = CASES[name]
    cfg, out = tmp / f"{name}.json", tmp / f"{name}-report.{fmt}"
    cfg.write_text(json.dumps(config))
    argv = [experiment, "--config", str(cfg), "--out", str(out), "--format", fmt]
    assert main(argv) in (0, 1)
    return out.read_bytes()


@pytest.mark.parametrize("name", sorted(CASES))
def test_report_matches_golden(name, tmp_path):
    assert render(name, tmp_path) == (GOLDEN / f"{name}.csv").read_bytes()


def _csv_text(value) -> str:
    """A JSON report value as the CSV report writes it."""
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    return repr(value) if isinstance(value, float) else str(value)


def _parse_csv(text: str) -> dict:
    """experiment, meta, passed, columns and rows of a CSV report, every value as text."""
    lines = text.splitlines()
    meta = {}
    while lines[0].startswith("# "):
        key, _, value = lines.pop(0)[2:].partition("=")
        meta[key] = value
    return {"experiment": meta.pop("experiment"), "passed": meta.pop("passed"),
            "meta": meta, "columns": lines[0].split(","),
            "rows": [line.split(",") for line in lines[1:]]}


@pytest.mark.parametrize("name", sorted(CASES))
def test_json_report_matches_golden(name, tmp_path):
    report = json.loads(render(name, tmp_path, "json"))
    assert sorted(report) == ["columns", "experiment", "meta", "passed", "rows"]
    assert {"experiment": report["experiment"], "passed": _csv_text(report["passed"]),
            "meta": {key: _csv_text(value) for key, value in report["meta"].items()},
            "columns": report["columns"],
            "rows": [[_csv_text(v) for v in row] for row in report["rows"]]} \
        == _parse_csv((GOLDEN / f"{name}.csv").read_text())


if __name__ == "__main__":
    import tempfile

    GOLDEN.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        for case in sorted(CASES):
            (GOLDEN / f"{case}.csv").write_bytes(render(case, Path(tmp)))
            print(f"wrote {GOLDEN / case}.csv")
