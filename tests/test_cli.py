import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qmetric import groups, metrics
from qmetric.errors import ResourceError
from qmetric.cli import main
from qmetric.experiments import (config_hash, run_ball, run_converge, run_dist, run_kappa,
                                  run_sandwich)
from qmetric.states import OneState, TraceState, state_from_json
from qmetric.wordlength import enumerate_ball

from conftest import z26_not_associative

Z_GROUP = {"family": "free_abelian", "rank": 1}


def write_json(path, payload):
    path.write_text(json.dumps(payload))
    return str(path)


DENSITY_01 = {"kind": "density", "b": [{"element": [0], "re": 1.0},
                                       {"element": [1], "re": 1.0}]}
DENSITY_02 = {"kind": "density", "b": [{"element": [0], "re": 3.0},
                                       {"element": [2], "re": 1.0}]}


@pytest.fixture
def ball_config(tmp_path):
    return write_json(tmp_path / "ball.json",
                      {"group": Z_GROUP, "radius": 5})


@pytest.fixture
def dist_config(tmp_path):
    return write_json(tmp_path / "dist.json", {
        "group": Z_GROUP,
        "state_a": {"kind": "trace"},
        "state_b": {"kind": "character", "z": [{"re": -1.0, "im": 0.0}]},
        "radius": 30, "trunc": 12, "support_radius": 2,
    })


def _table_dist(entry):
    return {"group": Z_GROUP, "state_a": {"kind": "trace"},
            "state_b": {"kind": "table", "entries": [entry]},
            "radius": 5, "mode": "bracket"}


def _table_ball(table):
    return {"group": {"family": "product_z_finite", "finite": {"table": table}},
            "radius": 3}


# what the error of a config-error case must name, by case id
_NAMED_IN_ERROR = {
    "table-extend-zero-false": "extend_zero",
    "cayley-table-not-associative-26": "associative",
}

_DIST_BASE = {"group": Z_GROUP, "state_a": {"kind": "trace"}, "state_b": {"kind": "one"},
              "radius": 5, "mode": "bracket"}
_SEQUENCE = {"kind": "character_inverse_n", "n_max": 3}
_CONVERGE_BASE = {"group": Z_GROUP, "radius": 5, "epsilon": 0.5,
                  "limit_state": {"kind": "trace"}, "sequence": _SEQUENCE}
_S3 = {"family": "product_z_finite", "finite": {"name": "s3"}}

# valid configs with one misspelt or foreign field, at every level of a config
MISSPELT = [
    ("ball", "ball", {"group": Z_GROUP, "radius": 3, "raduis": 4}),
    ("growth", "growth", {"group": Z_GROUP, "radius": 3, "radii": [3, 4]}),
    ("summable", "summable", {"group": Z_GROUP, "radius": 10, "require_exceed": 100.0}),
    ("dist", "dist", {**_DIST_BASE, "trunc": 4, "support_raduis": 2}),
    ("sandwich", "sandwich", {"group": Z_GROUP, "radius": 5, "trunc": 4, "suport_radius": 2,
                              "states": [{"kind": "trace"}, {"kind": "one"}]}),
    ("converge", "converge", {**_CONVERGE_BASE, "epsilon_": 0.1}),
    ("kappa", "kappa", {"group": Z_GROUP, "radius": 5, "states": [DENSITY_01],
                        "state_c": DENSITY_02}),
    ("dihedral-rank", "ball", {"group": {"family": "infinite_dihedral", "rank": 5},
                               "radius": 3}),
    ("free-abelian-generator", "ball", {"group": {**Z_GROUP, "generator": [[1]]},
                                        "radius": 3}),
    ("product-rank", "ball", {"group": {**_S3, "rank": 2}, "radius": 3}),
    ("finite-ordr", "ball", {"group": {**_S3, "finite": {"name": "s3", "ordr": 6}},
                             "radius": 3}),
    ("trace-z", "dist", {**_DIST_BASE, "state_a": {"kind": "trace", "z": []}}),
    ("one-extend-zero", "dist", {**_DIST_BASE, "state_b": {"kind": "one",
                                                           "extend_zero": True}}),
    ("character-angle", "dist", {**_DIST_BASE, "state_b": {
        "kind": "character", "z": [{"re": -1.0}], "angle": 3.14}}),
    ("vector-entries", "dist", {**_DIST_BASE, "state_b": {
        "kind": "vector", "support": [{"element": [0], "re": 1.0}], "entries": []}}),
    ("density-support", "dist", {**_DIST_BASE, "state_b": {**DENSITY_01, "support": []}}),
    ("table-extend-zeros", "dist", {**_DIST_BASE, "state_b": {
        "kind": "table", "extend_zeros": False, "entries": [{"element": [1], "re": 0.5}]}}),
    ("item-img", "dist", _table_dist({"element": [1], "re": 0.5, "img": 0.1})),
    ("z-imag", "dist", {**_DIST_BASE, "state_b": {
        "kind": "character", "z": [{"re": -1.0, "imag": 0.0}]}}),
    ("states-item-lable", "sandwich", {
        "group": Z_GROUP, "radius": 5, "trunc": 4, "support_radius": 2,
        "states": [{"label": "a", "lable": "b", "state": {"kind": "trace"}}, {"kind": "one"}]}),
    ("sequence-nmax", "converge", {**_CONVERGE_BASE, "sequence": {**_SEQUENCE, "nmax": 5}}),
    ("sequence-explicit-n-max", "converge", {**_CONVERGE_BASE, "sequence": {
        "kind": "explicit", "states": [{"kind": "one"}], "n_max": 1}}),
]


class TestExitCodes:
    def test_pass_is_zero(self, ball_config, tmp_path):
        assert main(["ball", "--config", ball_config,
                     "--out", str(tmp_path / "o.csv")]) == 0

    def test_assertion_failure_is_one(self, tmp_path, capsys):
        config = write_json(tmp_path / "s.json", {
            "group": Z_GROUP, "radius": 10, "require_exceeds": 100.0})
        assert main(["summable", "--config", config]) == 1
        out = capsys.readouterr().out
        assert "# passed=false" in out

    @pytest.mark.parametrize("experiment,payload", [
        pytest.param("ball", {"group": {"family": "nope"}, "radius": 3},
                     id="unknown-family"),
        pytest.param("ball", {"group": Z_GROUP, "radius": True}, id="radius-bool"),
        pytest.param("sandwich", {"group": Z_GROUP, "radius": 5, "trunc": 4,
                                  "states": [{"kind": "trace"}, {"kind": "one"}]},
                     id="sandwich-trunc-below-twice-support"),
        pytest.param("sandwich", {"group": Z_GROUP, "radius": 5, "trunc": "x",
                                  "states": [{"kind": "trace"}, {"kind": "one"}]},
                     id="sandwich-trunc-not-int"),
        pytest.param("dist", {"group": Z_GROUP, "state_a": {"kind": "trace"},
                              "state_b": {"kind": "one"}, "radius": 5, "trunc": 4,
                              "support_radius": 3},
                     id="dist-trunc-below-twice-support"),
        pytest.param("converge", {"group": Z_GROUP, "radius": 5, "epsilon": 0.5,
                                  "limit_state": {"kind": "trace"},
                                  "sequence": {"kind": "character_inverse_n",
                                               "n_max": 0}},
                     id="converge-n-max-zero"),
        pytest.param("converge", {"group": Z_GROUP, "radius": 5, "epsilon": "x",
                                  "limit_state": {"kind": "trace"},
                                  "sequence": {"kind": "character_inverse_n",
                                               "n_max": 3}},
                     id="converge-epsilon-not-number"),
        pytest.param("summable", {"group": Z_GROUP, "radius": 5,
                                  "require_exceeds": "x"},
                     id="summable-threshold-not-number"),
        pytest.param("dist", {"group": Z_GROUP, "state_a": {"kind": "trace"},
                              "state_b": {"kind": "table", "extend_zero": "false",
                                          "entries": [{"element": [1], "re": 0.5},
                                                      {"element": [-1], "re": 0.5}]},
                              "radius": 5},
                     id="table-extend-zero-string"),
        pytest.param("dist", {"group": Z_GROUP, "state_a": {"kind": "trace"},
                              "state_b": {"kind": "table", "extend_zero": False,
                                          "entries": [{"element": [1], "re": 0.5},
                                                      {"element": [-1], "re": 0.5}]},
                              "radius": 5},
                     id="table-extend-zero-false"),
        pytest.param("dist", {"group": {**Z_GROUP, "generators": [[0]]},
                              "state_a": {"kind": "trace"}, "state_b": {"kind": "one"},
                              "radius": 5, "mode": "bracket"},
                     id="identity-generator"),
        pytest.param("kappa", {"group": Z_GROUP, "radius": 5, "states": [
            {"label": "a", "state": DENSITY_01}, {"label": "a", "state": DENSITY_02}]},
                     id="kappa-duplicate-label"),
        pytest.param("sandwich", {"group": Z_GROUP, "radius": 5, "states": [
            {"label": "state1", "state": {"kind": "trace"}}, {"kind": "one"}]},
                     id="sandwich-duplicate-label"),
        pytest.param("dist", _table_dist({"element": [1], "re": "nan"}),
                     id="table-re-nan-string"),
        pytest.param("dist", _table_dist({"element": [1], "re": float("nan")}),
                     id="table-re-nan-literal"),
        pytest.param("dist", json.dumps(_table_dist({"element": [1], "re": 0.5}))
                     .replace("0.5", "1e400"), id="table-re-overflow"),
        pytest.param("dist", _table_dist({"element": [1], "re": "abc"}),
                     id="table-re-string"),
        pytest.param("summable", {"group": Z_GROUP, "radius": 5, "require_exceeds": "nan"},
                     id="summable-threshold-nan-string"),
        pytest.param("summable", {"group": Z_GROUP, "radius": 5, "require_exceeds": True},
                     id="summable-threshold-bool"),
        pytest.param("summable", {"group": Z_GROUP, "radius": 5, "require_exceeds": "1.5"},
                     id="summable-threshold-numeric-string"),
        pytest.param("converge", {"group": Z_GROUP, "radius": 5, "epsilon": True,
                                  "limit_state": {"kind": "trace"},
                                  "sequence": {"kind": "character_inverse_n",
                                               "n_max": 3}},
                     id="converge-epsilon-bool"),
        pytest.param("dist", {"group": Z_GROUP, "state_a": {"kind": "trace"},
                              "state_b": {"kind": "density",
                                          "b": [{"element": [0.9], "re": 1}]},
                              "radius": 5, "mode": "bracket"},
                     id="density-element-float"),
        pytest.param("dist", _table_dist({"element": ["2"], "re": 0.5}),
                     id="table-element-string"),
        pytest.param("dist", _table_dist({"element": [True], "re": 0.5}),
                     id="table-element-bool"),
        pytest.param("ball", {"group": {"family": "free_abelian", "rank": True},
                              "radius": 3}, id="rank-bool"),
        pytest.param("ball", _table_ball([[0, 1], [1, 0.5]]), id="cayley-table-float"),
        pytest.param("ball", _table_ball([[False, True], [True, "0"]]),
                     id="cayley-table-bool-and-string"),
        pytest.param("ball", _table_ball([[0, "abc"], ["abc", 0]]),
                     id="cayley-table-string"),
        pytest.param("ball", _table_ball(5), id="cayley-table-number"),
        pytest.param("ball", _table_ball([0, 1]), id="cayley-table-flat"),
        pytest.param("ball", _table_ball(z26_not_associative()),
                     id="cayley-table-not-associative-26"),
        pytest.param("dist", {"group": Z_GROUP, "state_a": {"kind": "trace"},
                              "state_b": {"kind": "character", "z": 5},
                              "radius": 5, "mode": "bracket"}, id="character-z-number"),
        pytest.param("ball", {"group": {**Z_GROUP, "generators": 7}, "radius": 3},
                     id="generators-number"),
        pytest.param("ball", {"group": {**Z_GROUP, "generators": {"a": [1]}}, "radius": 3},
                     id="generators-object"),
        pytest.param("ball", {"group": {"family": "product_z_finite", "finite": {"name": 5}},
                              "radius": 3}, id="finite-name-number"),
        pytest.param("ball", {"group": {"family": "product_z_finite", "finite": {
            "order": 5, "table": [[0, 1], [1, 0]]}}, "radius": 3}, id="finite-order-wrong"),
        pytest.param("ball", {"group": {"family": "product_z_finite", "finite": {
            "order": 2.0, "table": [[0, 1], [1, 0]]}}, "radius": 3}, id="finite-order-float"),
        pytest.param("ball", {"group": {"family": "product_z_finite", "finite": {
            "order": 3, "name": "s3"}}, "radius": 3}, id="finite-order-wrong-for-name"),
        pytest.param("ball", {"group": {"family": "product_z_finite", "finite": {
            "name": "z2", "table": [[0, 1], [1, 0]]}}, "radius": 3},
                     id="finite-name-and-table"),
        *[pytest.param("sandwich", {"group": Z_GROUP, "radius": 5, "states": [
            {"label": label, "state": {"kind": "trace"}}, {"kind": "one"}]}, id=f"label-{name}")
          for name, label in [("comma", "a,b"), ("pipe", "a|b"), ("lf", "c\nd"),
                              ("cr", "c\rd"), ("list", ["x"]), ("number", 5)]],
        pytest.param("ball", "[" * 100000 + "]" * 100000, id="json-nested-too-deep"),
        *[pytest.param(experiment, payload, id=f"misspelt-{name}")
          for name, experiment, payload in MISSPELT],
    ])
    def test_config_error_is_two(self, experiment, payload, tmp_path, capsys, request):
        # a str payload is written verbatim, for JSON that json.dumps cannot produce
        path = tmp_path / "bad.json"
        if isinstance(payload, str):
            path.write_text(payload)
        else:
            write_json(path, payload)
        assert main([experiment, "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert "config error" in err
        assert _NAMED_IN_ERROR.get(request.node.callspec.id, "") in err

    def test_missing_config_file_is_two(self, capsys):
        assert main(["ball", "--config", "/nonexistent/x.json"]) == 2

    def test_directory_is_two(self, tmp_path, capsys):
        config = write_json(tmp_path / "c.json", {"group": str(tmp_path), "radius": 3})
        assert main(["ball", "--config", str(tmp_path)]) == 2
        assert main(["ball", "--config", config]) == 2
        assert capsys.readouterr().err.count("config error") == 2

    @pytest.mark.parametrize("where", ["missing-dir", "directory"])
    def test_unwritable_out_is_two(self, ball_config, tmp_path, capsys, where):
        out = tmp_path / "missing" / "x.csv" if where == "missing-dir" else tmp_path
        assert main(["ball", "--config", ball_config, "--out", str(out)]) == 2
        assert "config error: --out" in capsys.readouterr().err
        assert not (tmp_path / "missing").exists()

    def test_not_utf8_is_two(self, tmp_path, capsys):
        latin1 = tmp_path / "latin1.json"
        latin1.write_bytes(json.dumps({"group": Z_GROUP, "radius": 3, "note": "\u00e9"},
                                      ensure_ascii=False).encode("latin-1"))
        group = tmp_path / "group.json"
        group.write_bytes(b'{"family": "free_abelian", "note": "\xe9"}')
        config = write_json(tmp_path / "c.json", {"group": str(group), "radius": 3})
        assert main(["ball", "--config", str(latin1)]) == 2
        assert main(["ball", "--config", config]) == 2
        assert capsys.readouterr().err.count("config error") == 2

    def test_missing_required_field_is_two(self, tmp_path):
        config = write_json(tmp_path / "c.json", {"group": Z_GROUP})
        assert main(["ball", "--config", config]) == 2

    def test_resource_cap_is_three(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("QMETRIC_MAX_BALL", "5")
        config = write_json(tmp_path / "c.json", {"group": Z_GROUP, "radius": 10})
        assert main(["ball", "--config", config]) == 3
        assert "resource cap" in capsys.readouterr().err

    @pytest.mark.parametrize("group", [
        Z_GROUP, {"family": "free_abelian", "rank": 2},
        {"family": "product_z_finite", "finite": {"name": "s3"}},
        {"family": "infinite_dihedral"}], ids=["z", "z2", "zxs3", "dihedral"])
    def test_ball_over_the_cap_is_three_before_any_row(self, tmp_path, monkeypatch, capsys,
                                                       group):
        def no_rows(self, radius):
            raise AssertionError("built the rows of a ball over the cap")

        for cls in (groups.FreeAbelian, groups.ProductZFinite, groups.InfiniteDihedral):
            monkeypatch.setattr(cls, "default_ball", no_rows)
        monkeypatch.delenv("QMETRIC_MAX_BALL", raising=False)
        config = write_json(tmp_path / "c.json", {
            "group": group, "state_a": {"kind": "trace"},
            "state_b": {"kind": "table", "entries": []}, "radius": 10 ** 9,
            "mode": "bracket"})
        assert main(["dist", "--config", config]) == 3
        assert "cap of 200000 elements at radius" in capsys.readouterr().err

    def test_cayley_table_over_the_cap_is_three(self, tmp_path, capsys):
        group = {"family": "product_z_finite", "finite": {"table": [[0]] * 1025}}
        config = write_json(tmp_path / "c.json", {"group": group, "radius": 1})
        assert main(["ball", "--config", config]) == 3
        assert "order 1025 is over the cap of 1024" in capsys.readouterr().err

    def test_rank_over_the_cap_is_three(self, tmp_path, capsys):
        group = {"family": "free_abelian", "rank": 1025}
        config = write_json(tmp_path / "c.json", {"group": group, "radius": 1})
        assert main(["ball", "--config", config]) == 3
        assert "rank 1025 is over the cap of 1024" in capsys.readouterr().err

    def test_heuristic_over_the_cap_is_three_before_any_solve(self, tmp_path, monkeypatch,
                                                               capsys):
        # ball(20) of Z holds 41 elements and ball(40), the drift ball, 81 > 50
        monkeypatch.setenv("QMETRIC_MAX_BALL", "50")
        solves = []
        solve = metrics._top_singular
        monkeypatch.setattr(metrics, "_top_singular",
                            lambda *args, **kw: solves.append(1) or solve(*args, **kw))
        z = groups.FreeAbelian(1)
        with pytest.raises(ResourceError, match="cap of 50 elements at radius 25"):
            metrics.connes_heuristic(TraceState(z), OneState(z), z, 3, 20)
        config = write_json(tmp_path / "c.json", {
            "group": Z_GROUP, "state_a": {"kind": "trace"}, "state_b": {"kind": "one"},
            "radius": 20, "trunc": 20, "support_radius": 3, "mode": "both"})
        assert main(["dist", "--config", config]) == 3
        assert "cap of 50 elements at radius 25" in capsys.readouterr().err
        assert solves == []

    def test_cap_above_2_to_30_is_three(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("QMETRIC_MAX_BALL", str(2 ** 30 + 1))
        config = write_json(tmp_path / "c.json", {"group": Z_GROUP, "radius": 3})
        assert main(["ball", "--config", config]) == 3
        assert "cap must be <= 2^30" in capsys.readouterr().err

    @pytest.mark.parametrize("generators", [False, True], ids=["default", "custom"])
    def test_rank_over_cap_is_three_before_building(self, tmp_path, monkeypatch, capsys,
                                                    generators):
        # the radius-1 ball of Z^rank holds 2 * rank + 1 elements: 11 > 10 at rank 5
        monkeypatch.setenv("QMETRIC_MAX_BALL", "10")
        built = []
        init = groups.FreeAbelian.__init__
        monkeypatch.setattr(groups.FreeAbelian, "__init__",
                            lambda self, *args: built.append(args) or init(self, *args))

        def config(rank):
            group = {"family": "free_abelian", "rank": rank}
            if generators:
                group["generators"] = [[s * (i == k) for i in range(rank)]
                                       for k in range(rank) for s in (1, -1)]
            return write_json(tmp_path / f"r{rank}.json", {"group": group, "radius": 1})

        assert main(["ball", "--config", config(5)]) == 3
        assert "cap of 10 elements at radius 1" in capsys.readouterr().err
        assert built == []
        assert main(["ball", "--config", config(4)]) == 0
        assert built and all(args[0] == 4 for args in built)


class TestOutputs:
    def test_csv_shape_and_meta(self, ball_config, tmp_path, capsys):
        main(["ball", "--config", ball_config])
        lines = capsys.readouterr().out.splitlines()
        meta = [l for l in lines if l.startswith("# ")]
        assert any(l.startswith("# experiment=ball") for l in meta)
        assert any(l.startswith("# config_hash=") for l in meta)
        assert any(l.startswith("# version=") for l in meta)
        header = [l for l in lines if not l.startswith("#")][0]
        assert header == "radius,ball_size,shell_size,partial_square_sum,tail_bound"
        data = [l for l in lines if not l.startswith("#")][1:]
        assert len(data) == 6
        assert data[0].startswith("0,1,1,")
        assert data[5].startswith("5,11,2,")

    def test_json_format(self, ball_config, capsys):
        main(["ball", "--config", ball_config, "--format", "json"])
        payload = json.loads(capsys.readouterr().out)
        assert payload["experiment"] == "ball"
        assert payload["passed"] is True
        assert payload["columns"][0] == "radius"
        assert payload["rows"][0][:3] == [0, 1, 1]

    def test_reruns_byte_identical(self, dist_config, tmp_path):
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["dist", "--config", dist_config, "--out", str(out1)]) == 0
        assert main(["dist", "--config", dist_config, "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_config_hash_embedded(self, ball_config, capsys):
        main(["ball", "--config", ball_config])
        out = capsys.readouterr().out
        with open(ball_config) as fh:
            expected = config_hash(json.load(fh))
        assert f"# config_hash={expected}" in out

    def test_infinity_serialized_as_inf(self, tmp_path, capsys):
        config = write_json(tmp_path / "d.json", {
            "group": {"family": "free_abelian", "rank": 2},
            "state_a": {"kind": "trace"},
            "state_b": {"kind": "one"},
            "radius": 6, "trunc": 4, "support_radius": 1, "mode": "bracket",
        })
        main(["dist", "--config", config])
        out = capsys.readouterr().out
        row = [l for l in out.splitlines() if not l.startswith("#")][1]
        assert "inf" in row.split(",")


class TestParser:
    @pytest.mark.parametrize("flag,value", [
        ("--group", "g.json"), ("--state-a", "a.json"), ("--state-b", "b.json"),
        ("--radius", "50"), ("--trunc", "8"), ("--mode", "heuristic")])
    def test_former_dist_flag_is_two(self, dist_config, capsys, flag, value):
        with pytest.raises(SystemExit) as exc:
            main(["dist", "--config", dist_config, flag, value])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag} {value}" in capsys.readouterr().err

    def test_help_names_every_experiment(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        assert "{ball,growth,summable,dist,sandwich,converge,kappa}" in capsys.readouterr().out

    def test_bracket_mode_needs_no_trunc(self, tmp_path, capsys):
        group = write_json(tmp_path / "g.json", Z_GROUP)
        sa = write_json(tmp_path / "a.json", {"kind": "trace"})
        sb = write_json(tmp_path / "b.json", {"kind": "one"})
        config = {"group": group, "state_a": sa, "state_b": sb, "radius": 20,
                  "mode": "bracket"}
        assert main(["dist", "--config", write_json(tmp_path / "d.json", config)]) == 0
        out = capsys.readouterr().out
        assert out == run_dist(config).to_csv()
        assert "# support_radius=\n" in out
        assert out.splitlines()[-1].endswith(",20,")
        # the bracket columns do not depend on trunc
        with_trunc = run_dist({**config, "trunc": 8}).rows[0]
        assert run_dist(config).rows[0][:-1] == with_trunc[:-1]
        for bad in ({"mode": "heuristic"}, {"support_radius": 2}):
            assert main(["dist", "--config", write_json(tmp_path / "h.json", {
                **config, **bad})]) == 2

    @pytest.mark.parametrize("mode", ["heuristic", "Both", None, 1])
    def test_mode_is_bracket_or_both(self, tmp_path, capsys, mode):
        config = write_json(tmp_path / "d.json", {
            "group": Z_GROUP, "state_a": {"kind": "trace"}, "state_b": {"kind": "one"},
            "radius": 5, "trunc": 4, "mode": mode})
        assert main(["dist", "--config", config]) == 2
        assert "mode: must be bracket or both" in capsys.readouterr().err


class TestRunners:
    def test_ball_matches_direct_call(self, ball_config):
        with open(ball_config) as fh:
            config = json.load(fh)
        report = run_ball(config)
        sizes = [row[1] for row in report.rows]
        assert sizes == [1, 3, 5, 7, 9, 11]

    def test_growth_meta(self, tmp_path, capsys):
        config = write_json(tmp_path / "g.json",
                            {"group": {"family": "infinite_dihedral"}, "radius": 20})
        assert main(["growth", "--config", config]) == 0
        out = capsys.readouterr().out
        assert "# shell_bound=4" in out
        assert "# shell_bound_provenance=analytic" in out

    def test_sandwich_runs(self, tmp_path, capsys):
        config = write_json(tmp_path / "s.json", {
            "group": Z_GROUP, "radius": 30, "trunc": 8, "support_radius": 2,
            "states": [{"label": "tau", "state": {"kind": "trace"}},
                       {"label": "rho", "state": {"kind": "density", "b": [
                           {"element": [0], "re": 1.0},
                           {"element": [1], "re": 1.0}]}}],
        })
        assert main(["sandwich", "--config", config]) == 0
        out = capsys.readouterr().out
        assert "tau|rho" in out

    def test_converge_explicit_sequence(self, tmp_path):
        config = {
            "group": Z_GROUP, "radius": 30, "epsilon": 0.5,
            "limit_state": {"kind": "trace"},
            "sequence": {"kind": "density_inverse_n", "n_max": 20,
                         "base_element": [0], "step_element": [1]},
        }
        report = run_converge(config)
        assert report.passed
        final = report.rows[-1]
        assert final[1] < 0.5
        assert all(report.rows[i][1] >= report.rows[i + 1][1] - 1e-12
                   for i in range(len(report.rows) - 1))

    def test_kappa_runs(self, tmp_path, capsys):
        config = write_json(tmp_path / "k.json", {
            "group": Z_GROUP, "radius": 40,
            "states": [{"label": "rho", "state": {"kind": "density", "b": [
                {"element": [0], "re": 1.0}, {"element": [1], "re": 1.0}]}}],
        })
        assert main(["kappa", "--config", config]) == 0
        out = capsys.readouterr().out
        assert "state,rho," in out

    def test_kappa_density_beyond_int64(self, tmp_path, capsys):
        # rho = e + (lam_N + lam_-N) / 2 with N = 10^20: only e acts on the ball
        far = {"kind": "density", "b": [{"element": [0], "re": 1.0},
                                        {"element": [10 ** 20], "re": 1.0}]}
        config = write_json(tmp_path / "k.json", {
            "group": Z_GROUP, "radius": 10,
            "states": [{"label": "far", "state": far}, {"label": "near", "state": DENSITY_01}]})
        assert main(["kappa", "--config", config, "--format", "json"]) == 0
        rows = json.loads(capsys.readouterr().out)["rows"]
        assert rows[0][:4] == ["state", "far", 1.0, 4.0]
        assert rows[2][:2] == ["pair", "far|near"]

    def test_kappa_rejects_non_density(self, tmp_path):
        config = write_json(tmp_path / "k.json", {
            "group": Z_GROUP, "radius": 10,
            "states": [{"kind": "trace"}],
        })
        assert main(["kappa", "--config", config]) == 2


# Each group's states: a trace first (the converge limit), two densities
# (the kappa states) and a fourth kind; Z^2 has no shell bound, so its d2_hi is inf.
RUNNER_STATES = {
    "z": (Z_GROUP, [{"kind": "trace"}, DENSITY_01, DENSITY_02,
                    {"kind": "vector", "support": [{"element": [0], "re": 0.6, "im": 0.0},
                                                   {"element": [-2], "re": 0.0, "im": 0.8}]}]),
    "z2": ({"family": "free_abelian", "rank": 2}, [
        {"kind": "trace"},
        {"kind": "density", "b": [{"element": [0, 0], "re": 1.0},
                                  {"element": [1, -1], "re": 0.0, "im": 0.5}]},
        {"kind": "density", "b": [{"element": [0, 0], "re": 2.0},
                                  {"element": [0, 1], "re": 1.0}]},
        {"kind": "one"}]),
    "dihedral": ({"family": "infinite_dihedral"}, [
        {"kind": "trace"},
        {"kind": "density", "b": [{"element": [0, 0], "re": 1.0},
                                  {"element": [1, 1], "re": 1.0}]},
        {"kind": "density", "b": [{"element": [0, 0], "re": 1.0},
                                  {"element": [2, 0], "re": 0.5, "im": 0.5}]},
        {"kind": "table", "extend_zero": True,
         "entries": [{"element": [1, 0], "re": 0.5}, {"element": [-1, 0], "re": 0.5}]}]),
}


@pytest.mark.parametrize("family", sorted(RUNNER_STATES))
def test_runners_report_the_bracket_fields_bit_for_bit(family):
    spec, specs = RUNNER_STATES[family]
    group = groups.group_from_json(spec)
    states = {f"s{k}": state_from_json(group, s) for k, s in enumerate(specs)}
    labelled = [{"label": f"s{k}", "state": s} for k, s in enumerate(specs)]
    radius = 12
    ball = enumerate_ball(group, radius)

    def bits(*values):
        return [np.float64(v).tobytes() for v in values]

    def bracket(a, b):
        return metrics.connes_bracket(states[a], states[b], ball)

    sandwich = run_sandwich({"group": spec, "radius": radius, "trunc": 4,
                             "support_radius": 2, "states": labelled})
    assert len(sandwich.rows) == 6
    for row in sandwich.rows:
        cell = dict(zip(sandwich.columns, row))
        expected = bracket(*cell["pair"].split("|"))
        assert bits(cell["d_inf_lo"], cell["d2_lo"], cell["d2_hi"]) == \
            bits(expected.d_inf.lo, expected.d_2.lo, expected.d_2.hi)
        assert cell["d2_divergent"] is (expected.d_2.hi == math.inf)

    kappa = run_kappa({"group": spec, "radius": radius, "states": labelled[1:3]})
    pairs = [dict(zip(kappa.columns, row)) for row in kappa.rows if row[0] == "pair"]
    assert [cell["label"] for cell in pairs] == ["s1|s2"]
    assert bits(pairs[0]["value_lo"]) == bits(bracket("s1", "s2").d_2.hi)

    converge = run_converge({"group": spec, "radius": radius, "epsilon": 1.0,
                             "limit_state": specs[0],
                             "sequence": {"kind": "explicit", "states": specs}})
    assert [row[0] for row in converge.rows] == [1, 2, 3, 4]
    for n, d_inf_hi, d2_hi in converge.rows:
        expected = bracket(f"s{n - 1}", "s0")
        assert bits(d_inf_hi, d2_hi) == bits(expected.d_inf.hi, expected.d_2.hi)


# Small valid configs on Z and Z x Z2 that between them set every documented
# field of the group, state and experiment specs.
Z_X_Z2_TABLE = {"family": "product_z_finite",
                "finite": {"order": 2, "table": [[0, 1], [1, 0]]}}
Z_X_Z2_NAME = {"family": "product_z_finite", "finite": {"name": "z2", "order": 2}}
FUZZ_BASES = [
    ("ball", {"group": {**Z_GROUP, "generators": [[1], [-1]]}, "radius": 3}),
    ("summable", {"group": Z_X_Z2_TABLE, "radius": 3, "require_exceeds": 1.0}),
    ("converge", {"group": Z_GROUP, "radius": 4, "epsilon": 0.5,
                  "limit_state": {"kind": "trace"},
                  "sequence": {"kind": "explicit", "states": [
                      {"kind": "character", "z": [{"re": -1.0, "im": 0.0}]},
                      {"kind": "one"}]}}),
    ("kappa", {"group": Z_GROUP, "radius": 4,
               "states": [{"label": "a", "state": DENSITY_01}, DENSITY_02]}),
    ("dist", {"group": Z_X_Z2_NAME, "radius": 4, "mode": "bracket",
              "state_a": {"kind": "vector", "support": [
                  {"element": [0, 0], "re": 0.6}, {"element": [1, 1], "re": 0.0, "im": 0.8}]},
              "state_b": {"kind": "table", "extend_zero": True,
                          "entries": [{"element": [1, 0], "re": 0.25}]}}),
]


def _fields(value, path=()):
    """Every position in a parsed config: the path of keys and list indices to it."""
    items = (value.items() if isinstance(value, dict)
             else enumerate(value) if isinstance(value, list) else ())
    for key, child in items:
        yield path + (key,)
        yield from _fields(child, path + (key,))


FUZZ_FIELDS = [(experiment, config, path) for experiment, config in FUZZ_BASES
               for path in _fields(config)]

# no path separator, so a string read as a path names ".", ".." or a missing file
_TEXT = st.sampled_from(["z2", "s3", "trace", "one", "re", "."]) | st.text(
    alphabet="abz019.,|-\n\x00\u00e9", max_size=4)
_SCALAR = (st.none() | st.booleans() | st.integers(-10, 300)
           | st.floats(allow_nan=False, allow_infinity=False) | _TEXT)


def _nested(inner):
    return inner | st.lists(inner, max_size=3) | st.dictionaries(_TEXT, inner, max_size=3)


_JSON_VALUE = _nested(_nested(_SCALAR))  # nested at most two deep


def _at(config, path):
    for key in path:
        config = config[key]
    return config


def _replaced(config, path, value):
    config = json.loads(json.dumps(config))
    _at(config, path[:-1])[path[-1]] = value
    return config


# Integers stop at 300 because building FreeAbelian(rank) is quadratic in the rank.
@settings(derandomize=True, max_examples=300, deadline=None)
@given(st.sampled_from(FUZZ_FIELDS), _JSON_VALUE)
def test_fuzzed_field_never_escapes_main(field, value):
    experiment, config, path = field
    with tempfile.TemporaryDirectory() as root, pytest.MonkeyPatch.context() as mp:
        (Path(root) / "cwd").mkdir()
        mp.chdir(Path(root) / "cwd")
        config_path = write_json(Path(root) / "config.json", _replaced(config, path, value))
        argv = [experiment, "--config", config_path, "--out", str(Path(root) / "out")]
        assert main(argv) in (0, 1, 2, 3)


def _objects(value, path=()):
    """The path of every JSON object in a parsed config, the config itself first."""
    if isinstance(value, dict):
        yield path
    items = (value.items() if isinstance(value, dict)
             else enumerate(value) if isinstance(value, list) else ())
    for key, child in items:
        yield from _objects(child, path + (key,))


# each field of each object of the fuzz bases, repeated under its name less the last letter
MISSPELT_FIELDS = [(experiment, config, path, key) for experiment, config in FUZZ_BASES
                   for path in _objects(config) for key in _at(config, path)]


@pytest.mark.parametrize("experiment,config,path,key", MISSPELT_FIELDS,
                         ids=[f"{e}-{'.'.join(map(str, p))}-{k}"
                              for e, _, p, k in MISSPELT_FIELDS])
def test_misspelt_field_is_two(experiment, config, path, key, tmp_path, capsys):
    config = json.loads(json.dumps(config))
    target = _at(config, path)
    assert key[:-1] not in target
    target[key[:-1]] = target[key]
    assert main([experiment, "--config", write_json(tmp_path / "c.json", config)]) == 2
    assert f"unknown field {key[:-1]!r}" in capsys.readouterr().err


_SPARSE_LOADED_SCRIPT = """
import json
import sys
from qmetric.cli import main

loaded = {}
for experiment, config, out in zip(*[iter(sys.argv[1:])] * 3):
    code = main([experiment, "--config", config, "--out", out])
    loaded[experiment] = [code, "scipy.sparse" in sys.modules]
print(json.dumps(loaded))
"""


def test_only_sparse_operators_import_scipy_sparse(tmp_path):
    configs = {
        "dist": _DIST_BASE,
        "ball": {"group": Z_GROUP, "radius": 5},
        "growth": {"group": Z_GROUP, "radius": 5},
        "summable": {"group": Z_GROUP, "radius": 10},
        "converge": {**_CONVERGE_BASE, "radius": 30, "sequence": {
            "kind": "density_inverse_n", "n_max": 20,
            "base_element": [0], "step_element": [1]}},
        "kappa": {"group": Z_GROUP, "radius": 5,
                  "states": [{"label": "rho", "state": DENSITY_01}]},
    }
    argv = []
    for experiment, config in configs.items():
        argv += [experiment, write_json(tmp_path / f"{experiment}.json", config),
                 str(tmp_path / f"{experiment}.out")]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(__file__).resolve().parent.parent / "src")]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    result = subprocess.run([sys.executable, "-c", _SPARSE_LOADED_SCRIPT, *argv], env=env,
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    # kappa, run last, is the first to build a sparse operator
    assert json.loads(result.stdout) == {
        experiment: [0, experiment == "kappa"] for experiment in configs}
    assert "state,rho," in (tmp_path / "kappa.out").read_text()
