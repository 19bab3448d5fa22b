import ast
import csv
import hashlib
import io
import json
import os
import re
import subprocess
import sys
import threading
import warnings

import pytest

import binsa
import binsa._parse
import binsa._repr
import binsa.cli
import binsa.io
from binsa.cli import main
from binsa.core import pearson, spearman
from binsa.io import fmt_number
from test_io import _FileFailingOnWrite


def run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_sample_then_analyze_round_trip(tmp_path, capsys):
    out = str(tmp_path)
    code, stdout, _ = run(
        ["sample", "--model", "toy_portfolio", "--n", "1000", "--seed", "3", "--out", out],
        capsys,
    )
    assert code == 0
    dataset = stdout.strip()
    code, stdout, _ = run(["analyze", dataset, "--out", out], capsys)
    assert code == 0
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["schema_version"] == 1
    assert set(report["first_order"]) == {"Ps", "Cs", "Pt", "Ct", "Pj", "Cj"}
    assert (tmp_path / "report_tables.csv").exists()
    assert (tmp_path / "combined_indices.svg").exists()


def test_analyze_reruns_are_byte_identical(tmp_path, capsys):
    out1, out2 = str(tmp_path / "r1"), str(tmp_path / "r2")
    args = ["analyze", "--model", "ishigami", "--n", "2000", "--seed", "5"]
    assert run(args + ["--out", out1], capsys)[0] == 0
    assert run(args + ["--out", out2], capsys)[0] == 0
    for name in ("report.json", "report_tables.csv", "combined_indices.svg"):
        a = (tmp_path / "r1" / name).read_bytes()
        b = (tmp_path / "r2" / name).read_bytes()
        assert a == b, name


# sha256 of every file of the README's CLI tour at 2000 rows, seed 1. A
# change that moves any byte of them must edit these values and say why.
_TOUR_SHA256 = {
    "combined_indices.svg": "14999b9c181e1521501ff80f339e834122800b08ee72178b1975ad2ff993b900",
    "compare.json": "9e3228099d5f886002351028fdc4b030c3a473fe9e6ec78b3ad84cdeb2e52de8",
    "dataset.csv": "341c7090503e36e029483bca044655df04d18f6367ca17a2b47569f74bc2fcf6",
    "report.json": "081e7207301f687d368e8745bea8c93ccb45e1598881ffbe72235eefba68f00e",
    "report_tables.csv": "b105481125c5a570a99db5b5d64d192adaf5a89991eb4f02749de6530ef07466",
    "scenarios.csv": "e3ba6a79614c1994f9fc7c2105e480cafc76098c2e34bb5d95df3cd1236047eb",
    "simdec.svg": "c1886f487862f79d3cf3bb1c2b4d6776d0d545a2009ac03532a55e8bbbfea8be",
    "sweep.csv": "450c9289f70bdd52d83fffb2adbecb02b1384f57997872a67fc2a462c2bf703f",
}


@pytest.mark.parametrize("cpus", [1, 2])
def test_tour_outputs_keep_their_sha256(tmp_path, capsys, monkeypatch, cpus):
    monkeypatch.setattr(binsa.binning, "_usable_cpus", lambda: cpus)
    out = str(tmp_path)
    common = ["--n", "2000", "--seed", "1", "--out", out]
    data = os.path.join(out, "dataset.csv")
    for argv in (["sample", "--model", "toy_portfolio"] + common,
                 ["analyze", data, "--out", out],
                 ["simdec", data, "--out", out],
                 ["compare", "--model", "ishigami"] + common,
                 ["sweep-dependence", "--model", "two_factor_multiplicative"] + common):
        assert run(argv, capsys)[0] == 0, argv
    got = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in tmp_path.iterdir()}
    assert got == _TOUR_SHA256


def test_tour_outputs_keep_their_sha256_where_the_reader_has_no_long_double(
    tmp_path, capsys, monkeypatch
):
    # where numpy has no x87 long double the reader settles each cell that
    # the double fast path cannot with float(): the same bytes come out
    monkeypatch.setattr(binsa._parse, "_LONG_DOUBLE", False)
    test_tour_outputs_keep_their_sha256(tmp_path, capsys, monkeypatch, 2)


def test_simdec_default_and_states_file(tmp_path, capsys):
    out = str(tmp_path)
    code, stdout, _ = run(
        ["simdec", "--model", "nested_interaction", "--n", "2000", "--out", out], capsys
    )
    assert code == 0
    table = (tmp_path / "scenarios.csv").read_text()
    assert table.splitlines()[1].startswith("color,scenario")
    assert (tmp_path / "simdec.svg").read_text().startswith("<svg")

    states = tmp_path / "states.json"
    states.write_text(
        json.dumps(
            [
                {"input": "A", "states": [
                    {"name": "low", "min": 0.0, "max": 0.34},
                    {"name": "mid", "min": 0.34, "max": 0.67},
                    {"name": "high", "min": 0.67, "max": 1.0},
                ]},
                {"input": "B", "states": [
                    {"name": "low", "min": 0.0, "max": 0.5},
                    {"name": "high", "min": 0.5, "max": 1.0},
                ]},
                {"input": "C", "states": [
                    {"name": "low", "min": 0.0, "max": 0.5},
                    {"name": "high", "min": 0.5, "max": 1.0},
                ]},
            ]
        )
    )
    code, _, _ = run(
        [
            "simdec", "--model", "nested_interaction", "--n", "2000",
            "--states", str(states), "--out", out,
        ],
        capsys,
    )
    assert code == 0
    lines = (tmp_path / "scenarios.csv").read_text().splitlines()
    assert len(lines) == 2 + 12  # meta + header + 3*2*2 scenarios


def test_compare_emits_deltas(tmp_path, capsys):
    out = str(tmp_path)
    code, _, _ = run(
        ["compare", "--model", "ishigami", "--n", "3000", "--seed", "1", "--out", out], capsys
    )
    assert code == 0
    payload = json.loads((tmp_path / "compare.json").read_text())
    assert set(payload["first_order"]) == {"x1", "x2", "x3"}
    for entry in payload["first_order"].values():
        assert entry["delta"] == pytest.approx(entry["binning"] - entry["oracle"])
    assert payload["oracle_evaluations"] == 1500 * 8


def test_sweep_dependence_csv(tmp_path, capsys):
    out = str(tmp_path)
    code, _, _ = run(
        ["sweep-dependence", "--model", "two_factor_additive", "--n", "2000", "--out", out],
        capsys,
    )
    assert code == 0
    lines = (tmp_path / "sweep.csv").read_text().splitlines()
    assert lines[1].split(",")[:3] == ["model", "dependence", "parameter"]
    data = [ln.split(",") for ln in lines[2:]]
    assert len(data) == 2 * 7  # two dependence kinds x seven grid points
    assert all(r[-1] == "ok" for r in data)  # default grid never fully couples


def test_sweep_rows_equal_plain_calls_on_each_plan(tmp_path, capsys):
    # the sweep computes what column a shares across the grid once; each row
    # must still be what the public calls give for its plan alone
    code, _, _ = run(
        ["sweep-dependence", "--model", "two_factor_multiplicative", "--n", "2000",
         "--out", str(tmp_path)],
        capsys,
    )
    assert code == 0
    rows = list(csv.reader((tmp_path / "sweep.csv").read_text().splitlines()[1:]))
    model = binsa.get_model("two_factor_multiplicative")
    specs = binsa.default_specs(model)
    sampling = binsa.SamplingPlan(method="QMC", n=2000, seed=0)
    expected = [rows[0]]
    for kind in ("copula", "equal_portion"):
        for value in (-0.75, -0.5, -0.25, 0.0, 0.25, 0.5, 0.75):
            if kind == "copula":
                plan = binsa.DependencePlan(kind=kind, pair=(0, 1), rho=value)
            else:
                plan = binsa.DependencePlan(kind=kind, pair=(0, 1), fraction=abs(value),
                                            sign="negative" if value < 0 else "positive")
            x = binsa.sample_inputs(sampling, specs, dependence=(plan,))
            report = binsa.analyze(
                binsa.Dataset(inputs=x, output=binsa.evaluate(model, x), specs=specs)
            )
            values = (pearson(x[:, 0], x[:, 1]), spearman(x[:, 0], x[:, 1]),
                      report.first_order[0], report.first_order[1],
                      report.second_order[0, 1], binsa.conservation_check(report))
            expected.append(["two_factor_multiplicative", kind, fmt_number(value)]
                            + [fmt_number(v) for v in values] + ["ok"])
    assert rows == expected


def test_sweep_dependence_flags_degenerate_full_coupling(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(
        json.dumps(
            {
                "model": "two_factor_additive",
                "sampling": {"n": 2000},
                "sweep_grid": [-1.0, 0.0, 1.0],
                "out": str(tmp_path),
            }
        )
    )
    code, _, _ = run(["sweep-dependence", "--config", str(cfg)], capsys)
    assert code == 0
    lines = (tmp_path / "sweep.csv").read_text().splitlines()
    data = [ln.split(",") for ln in lines[2:]]
    degenerate = [r for r in data if r[-1] == "degenerate"]
    # additive Y = A + (lo + hi - A) is exactly constant under the full
    # negative equal portion; the copula at rho=-1 only reaches it up to
    # floating-point noise and stays analyzable
    assert ("equal_portion", "-1.0") in {(r[1], r[2]) for r in degenerate}


def test_sweep_dependence_row_check_reads_the_plans_n(tmp_path, capsys):
    # FFD on the two inputs draws floor(sqrt(n))**2 rows: 81 at n = 99
    argv = ["sweep-dependence", "--model", "two_factor_additive", "--sampler", "ffd",
            "--out", str(tmp_path)]
    code, _, err = run(argv + ["--n", "99"], capsys)
    assert code == 2 and "sweep-dependence requires at least 100 rows" in err
    assert not (tmp_path / "sweep.csv").exists()
    code, _, _ = run(argv + ["--n", "100"], capsys)
    assert code == 0
    assert len((tmp_path / "sweep.csv").read_text().splitlines()[2:]) == 14


def test_sweep_dependence_unknown_model_is_exit_2(tmp_path, capsys):
    code, _, err = run(["sweep-dependence", "--model", "bogus", "--out", str(tmp_path)], capsys)
    assert code == 2 and "unknown model 'bogus'" in err


@pytest.mark.parametrize("command, message", [
    ("sample", "sample requires a model"),
    ("compare", "compare requires a model-based config"),
    ("sweep-dependence", "sweep-dependence requires a two-factor model"),
], ids=["sample", "compare", "sweep-dependence"])
def test_a_model_only_command_on_a_dataset_config_is_exit_2(tmp_path, capsys, command, message):
    data = tmp_path / "d.csv"
    data.write_text("a,b,output\n" + "".join(f"{i},{i % 7},{i * i}\n" for i in range(200)))
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"dataset": str(data), "out": str(tmp_path)}))
    code, _, err = run([command, "--config", str(cfg)], capsys)
    assert code == 2
    assert err == f"error: {message}\n"
    assert {p.name for p in tmp_path.iterdir()} == {"d.csv", "cfg.json"}


def test_missing_input_is_exit_2(capsys):
    code, _, err = run(["analyze"], capsys)
    assert code == 2
    assert "error:" in err


def test_bad_dataset_path_is_exit_2(capsys):
    code, _, err = run(["analyze", "/nonexistent/file.csv"], capsys)
    assert code == 2
    assert "/nonexistent/file.csv" in err


def test_malformed_csv_is_exit_2_with_location(tmp_path, capsys):
    p = tmp_path / "bad.csv"
    rows = ["a,b,output"] + [f"{i},{i},{2 * i}" for i in range(1, 200)]
    rows[17] = "17,noise,34"
    p.write_text("\n".join(rows) + "\n")
    code, _, err = run(["analyze", str(p)], capsys)
    assert code == 2
    assert "row 18" in err and "'b'" in err


def test_undecodable_byte_after_many_rows_is_exit_2(tmp_path, capsys):
    p = tmp_path / "late.csv"
    rows = "".join(f"{i},{i % 7},{i * i}\n" for i in range(20_000))
    p.write_bytes(b"a,b,output\n" + rows.encode() + b"1,2,\xff\n")
    code, _, err = run(["analyze", str(p), "--out", str(tmp_path)], capsys)
    assert code == 2
    assert f"cannot read dataset {p}" in err


def test_json_errors_flag(tmp_path, capsys):
    p = tmp_path / "bad.csv"
    p.write_text("a,output\n1,2\nbad,4\n")
    code, _, err = run(["--json-errors", "analyze", str(p)], capsys)
    assert code == 2
    payload = json.loads(err)
    assert payload["exit_code"] == 2 and "row 3" in payload["error"]


def test_unknown_model_is_exit_2_class_error(capsys):
    code, _, err = run(["sample", "--model", "not_a_model", "--out", "/tmp"], capsys)
    assert code == 2
    assert "unknown model" in err


@pytest.mark.parametrize("cell", ["1e400", "nan"])
def test_non_finite_cell_is_exit_2_with_location(tmp_path, capsys, cell):
    p = tmp_path / "bad.csv"
    rows = ["a,b,output"] + [f"{i},{i},{2 * i}" for i in range(1, 200)]
    rows[40] = f"40,{cell},80"
    p.write_text("\n".join(rows) + "\n")
    code, _, err = run(["analyze", str(p), "--out", str(tmp_path)], capsys)
    assert code == 2
    assert f"row 41, column 'b': non-finite cell '{cell}'" in err


def test_model_parameters_are_exit_2(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"model": {"name": "two_factor_additive", "scale": 2}}))
    for command in ("sample", "sweep-dependence"):
        code, _, err = run([command, "--config", str(cfg), "--out", str(tmp_path)], capsys)
        assert code == 2
        assert "takes no parameters" in err


def test_cli_import_loads_no_scipy():
    # nor what xml.sax.saxutils pulls in
    src = os.path.dirname(os.path.dirname(binsa.__file__))
    code = (
        "import binsa.cli, sys\n"
        "for name in ('scipy', 'xml.sax', 'urllib.request', 'http.client', 'email'):\n"
        "    assert name not in sys.modules, name + ' imported'\n"
    )
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_cli_imports_no_private_name():
    # the CLI parses, dispatches and formats through the modules' public names
    with open(binsa.cli.__file__, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    private = [
        f"{'.' * node.level}{node.module or ''}.{alias.name}"
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.level
        for alias in node.names
        if alias.name.startswith("_") and not alias.name.endswith("__")
    ]
    assert not private


def test_svg_escape_equals_saxutils():
    from xml.sax.saxutils import escape as sax_escape

    from binsa.svg import escape

    for text in ("&<>\"'", "a &amp; b", "x<y>z & 'q' \"r\"", "caf\u00e9 \u2264 \u03c3 <\u00b5>", ""):
        assert escape(text) == sax_escape(text)


def test_compare_rejects_dependence_config(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(
        json.dumps(
            {
                "model": "two_factor_additive",
                "dependence": [{"kind": "copula", "pair": [0, 1], "rho": 0.5}],
            }
        )
    )
    code, _, err = run(["compare", "--config", str(cfg), "--out", str(tmp_path)], capsys)
    assert code == 2
    assert "independent" in err


def test_config_file_drives_analysis(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(
        json.dumps(
            {
                "model": "ishigami",
                "sampling": {"n": 1500, "method": "QMC"},
                "seed": 7,
                "out": str(tmp_path),
            }
        )
    )
    code, _, _ = run(["analyze", "--config", str(cfg)], capsys)
    assert code == 0
    meta = json.loads((tmp_path / "report.json").read_text())["metadata"]
    assert meta["seed"] == 7 and meta["n"] == 1500


def test_outputs_of_a_dataset_file_carry_no_sampling_metadata(tmp_path, capsys):
    # the file was drawn with its own n, seed and sampler, which the config
    # defaults do not describe
    out = str(tmp_path)
    argv = ["--model", "toy_portfolio", "--n", "2000", "--seed", "1", "--sampler", "mc"]
    code, stdout, _ = run(["sample", *argv, "--out", out], capsys)
    assert code == 0
    dataset = stdout.strip()
    assert run(["analyze", dataset, "--out", out], capsys)[0] == 0
    assert run(["simdec", dataset, "--out", out], capsys)[0] == 0
    want = {"tool": "binsa", "version": binsa.__version__, "rows": 2000}
    assert json.loads((tmp_path / "report.json").read_text())["metadata"] == want
    for name in ("report_tables.csv", "scenarios.csv"):
        first = (tmp_path / name).read_text().splitlines()[0]
        assert json.loads(first.removeprefix("# meta ")) == want
    for name in ("combined_indices.svg", "simdec.svg"):
        desc = re.search("<desc>(.*?)</desc>", (tmp_path / name).read_text()).group(1)
        assert json.loads(desc) == want
    # a run that samples keeps them
    assert run(["analyze", *argv, "--out", out], capsys)[0] == 0
    meta = json.loads((tmp_path / "report.json").read_text())["metadata"]
    assert meta == {**want, "n": 2000, "seed": 1, "sampler": "MC"}


def test_a_dataset_path_given_with_a_config_replaces_its_model(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"model": "ishigami", "sampling": {"n": 1000}}))
    missing = str(tmp_path / "nonexistent.csv")
    code, _, err = run(["analyze", missing, "--config", str(cfg), "--out", str(tmp_path)], capsys)
    assert code == 2 and f"cannot read dataset {missing}" in err
    assert not (tmp_path / "report.json").exists()


def test_a_model_given_with_a_config_replaces_its_source(tmp_path, capsys):
    out = str(tmp_path)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"model": "ishigami", "sampling": {"n": 1000}}))
    code, stdout, _ = run(
        ["sample", "--config", str(cfg), "--model", "toy_portfolio", "--out", out], capsys
    )
    assert code == 0
    dataset = stdout.strip()
    with open(dataset, encoding="utf-8") as fh:
        assert next(ln for ln in fh if not ln.startswith("#")) == "Ps,Cs,Pt,Ct,Pj,Cj,output\n"
    cfg.write_text(json.dumps({"dataset": str(tmp_path / "nonexistent.csv")}))
    code, _, _ = run(["analyze", "--config", str(cfg), "--model", "ishigami", "--out", out], capsys)
    assert code == 0
    assert set(json.loads((tmp_path / "report.json").read_text())["first_order"]) == {
        "x1", "x2", "x3"}
    # two sources on the command line are still one too many
    code, _, err = run(["analyze", dataset, "--model", "ishigami", "--config", str(cfg)], capsys)
    assert code == 2 and "exactly one of model or dataset" in err


def test_bin_count_below_two_is_exit_2(tmp_path, capsys):
    code, _, err = run(
        ["analyze", "--model", "ishigami", "--n", "1000", "--bins", "1", "--out", str(tmp_path)],
        capsys,
    )
    assert code == 2
    assert "--bins must be an integer >= 2, got 1" in err
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"model": "ishigami", "binning": {"n_bins_second_per_dim": 1}}))
    code, _, err = run(["analyze", "--config", str(cfg), "--out", str(tmp_path)], capsys)
    assert code == 2
    assert "binning.n_bins_second_per_dim must be an integer >= 2, got 1" in err
    assert not (tmp_path / "report.json").exists()


def test_too_small_n_is_exit_2(capsys, tmp_path):
    code, _, err = run(
        ["analyze", "--model", "ishigami", "--n", "50", "--out", str(tmp_path)], capsys
    )
    assert code == 2
    assert "at least 100 rows" in err


@pytest.mark.parametrize("command, model", [
    ("simdec", "ishigami"),
    ("compare", "ishigami"),
    ("sweep-dependence", "two_factor_multiplicative"),
])
def test_every_report_command_needs_100_rows(capsys, tmp_path, command, model):
    out = tmp_path / "out"
    code, _, err = run([command, "--model", model, "--n", "50", "--out", str(out)], capsys)
    assert code == 2, err
    assert f"{command} requires at least 100 rows" in err
    assert not out.exists()


def _states(*edges):
    """A states file entry's states, one per pair of consecutive edges."""
    return [{"name": f"s{j}", "min": lo, "max": hi}
            for j, (lo, hi) in enumerate(zip(edges, edges[1:]))]


@pytest.mark.parametrize(
    "states, message",
    [
        ([{"input": "x1", "states": [{"name": "a", "min": -4, "max": 0},
                                     {"name": "b", "max": 4}]}],
         r"states file entry 0, state 1 needs a finite number for 'min', got None"),
        ({"input": "x1", "states": _states(-4, 0, 4)},
         "must hold a JSON list, got dict"),
        (["x1"], "states file entry 0 must be a JSON object with a list of states"),
        ([{"input": "x1", "states": _states(*range(-4, 8))}],
         "states file entry 0: the first input has 11 states; at most 10 have a color"),
        ([{"input": "x1", "states": _states(-1, 0, 1)}],
         r"states file entry 0, states for input index 0 do not cover the observed range"),
        ([{"input": "x1", "states": [{"name": "a", "min": -4, "max": 0},
                                     {"name": "b", "min": 0.5, "max": 4}]}],
         r"states file entry 0, state 1: min 0\.5 must equal the max of state 0, 0\.0"),
        ([{"input": "x1", "states": _states(-4, 0, 4)},
          {"input": "x2", "states": [{"name": "a", "min": 0, "max": -4},
                                     {"name": "b", "min": -4, "max": 4}]}],
         r"states file entry 1, state 0: min 0\.0 must not exceed max -4\.0"),
        ([{"input": "x1", "states": [{"name": "a", "min": -4, "max": 1},
                                     {"name": "b", "min": 0, "max": 4}]}],
         r"states file entry 0, state 1: min 0\.0 must equal the max of state 0, 1\.0"),
        ([{"input": "x1", "states": [{"name": "a", "min": -4, "max": 10**400},
                                     {"name": "b", "min": 10**400, "max": 10**401}]}],
         r"states file entry 0, state 0 needs a finite number for 'max', got 1000"),
        ([{"input": "x1", "states": [{"name": 3, "min": -4, "max": 0},
                                     {"name": "b", "min": 0, "max": 4}]}],
         "states file entry 0, state 0: name must be a string, got 3"),
        ([{"input": "x1", "states": _states(-4, 0, 4)},
          {"input": "x1", "states": _states(-4, 4)}],
         "states file entry 1 repeats input 'x1'"),
        ([{"input": "x1", "states": [3, {"name": "b", "min": 0, "max": 4}]}],
         "states file entry 0, state 0 must be a JSON object, got 3"),
        ([], "states file defines no inputs"),
    ],
    ids=["missing-min", "top-level-object", "entry-not-object", "eleven-states", "not-covering",
         "gap", "descending", "overlap", "huge-int", "label-not-string", "repeated-input",
         "state-not-object", "no-entries"],
)
def test_bad_states_file_is_exit_2_naming_the_entry(tmp_path, capsys, states, message):
    path = tmp_path / "states.json"
    path.write_text(json.dumps(states))
    out = tmp_path / "out"
    code, _, err = run(["simdec", "--model", "ishigami", "--n", "2000", "--states", str(path),
                        "--out", str(out)], capsys)
    assert code == 2, err
    assert re.search(message, err), err
    assert not out.exists()


@pytest.mark.parametrize("command, chart", [("analyze", "bar_chart"),
                                            ("simdec", "stacked_histogram")])
def test_a_command_that_fails_on_its_chart_writes_no_file(tmp_path, capsys, monkeypatch, command,
                                                           chart):
    def fail(*args, **kwargs):
        raise RuntimeError("no chart")

    monkeypatch.setattr(binsa.cli, chart, fail)
    out = tmp_path / "out"
    code, stdout, err = run([command, "--model", "ishigami", "--n", "2000", "--out", str(out)],
                            capsys)
    assert code == 1
    assert (stdout, err) == ("", "error: no chart\n")
    assert not out.exists()


def _sample_failing_on_a_later_block(monkeypatch, error):
    """sample at 10000 rows, five blocks, whose third block to be formatted
    raises error."""
    repr_bytes, calls = binsa._repr.repr_bytes, []

    def failing(values, **kwargs):
        calls.append(None)
        if len(calls) == 3:
            raise error
        return repr_bytes(values, **kwargs)

    monkeypatch.setattr(binsa._repr, "repr_bytes", failing)
    monkeypatch.setattr(binsa.binning, "_usable_cpus", lambda: 2)


def test_a_sample_that_fails_while_it_writes_leaves_no_dataset(tmp_path, capsys, monkeypatch):
    _sample_failing_on_a_later_block(monkeypatch, RuntimeError("no third block"))
    out = tmp_path / "out"
    code, stdout, err = run(["sample", "--model", "toy_portfolio", "--n", "10000",
                             "--out", str(out)], capsys)
    assert code == 1
    assert (stdout, err) == ("", "error: no third block\n")
    assert out.is_dir() and list(out.iterdir()) == []


def test_an_interrupted_sample_leaves_no_dataset(tmp_path, capsys, monkeypatch):
    _sample_failing_on_a_later_block(monkeypatch, KeyboardInterrupt())
    out = tmp_path / "out"
    with pytest.raises(KeyboardInterrupt):
        main(["sample", "--model", "toy_portfolio", "--n", "10000", "--out", str(out)])
    assert capsys.readouterr().out == ""
    assert out.is_dir() and list(out.iterdir()) == []


def test_a_sample_whose_disk_fills_leaves_no_dataset(tmp_path, capsys, monkeypatch):
    # the header is write 1 and the first block's two halves writes 2 and 3
    monkeypatch.setattr(binsa.io, "open", lambda path, mode: _FileFailingOnWrite(path, mode, 3),
                        raising=False)
    out = tmp_path / "out"
    code, stdout, err = run(["sample", "--model", "toy_portfolio", "--n", "10000",
                             "--out", str(out)], capsys)
    assert code == 1
    assert (stdout, err) == ("", "error: [Errno 28] No space left on device\n")
    assert out.is_dir() and list(out.iterdir()) == []


def test_a_file_that_cannot_be_opened_removes_the_ones_before_it_and_no_other(tmp_path, capsys):
    out = tmp_path / "out"
    (out / "report_tables.csv").mkdir(parents=True)
    (out / "kept.txt").write_text("kept\n")
    code, stdout, err = run(["analyze", "--model", "ishigami", "--n", "2000", "--out", str(out)],
                            capsys)
    assert code == 1
    assert stdout == ""
    assert err.startswith("error: ") and "report_tables.csv" in err and err.count("\n") == 1, err
    assert {p.name for p in out.iterdir()} == {"report_tables.csv", "kept.txt"}
    assert (out / "report_tables.csv").is_dir() and (out / "kept.txt").read_text() == "kept\n"


def test_repeated_input_name_is_exit_2(tmp_path, capsys):
    p = tmp_path / "dup.csv"
    p.write_text("a,a,y\n" + "".join(f"{i},{i % 7},{i * i}\n" for i in range(200)))
    code, _, err = run(["analyze", str(p), "--out", str(tmp_path)], capsys)
    assert code == 2
    assert "header repeats the column name 'a'" in err


def test_constant_output_is_exit_2(tmp_path, capsys):
    p = tmp_path / "flat.csv"
    p.write_text("a,b,output\n" + "".join(f"{i},{i % 7},3\n" for i in range(200)))
    for command in ("analyze", "simdec"):
        code, _, err = run([command, str(p), "--out", str(tmp_path)], capsys)
        assert code == 2
        assert "output column 'output' is constant (3.0)" in err


@pytest.mark.parametrize("value", ["3", "1e17", "-1e17", "1.7976931348623157e308"])
def test_constant_input_column_is_analyzed_as_degenerate(tmp_path, capsys, value):
    # from |value| >= 2**53 on, value + 1 == value: the column still needs a
    # non-empty spec range
    p = tmp_path / "const.csv"
    p.write_text("a,b,output\n" + "".join(f"{value},{i % 7},{i * i}\n" for i in range(200)))
    with pytest.warns(UserWarning, match="degenerate input column 'a'"):
        code, _, err = run(["analyze", str(p), "--out", str(tmp_path / "out")], capsys)
    assert code == 0, err
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["warnings"] == ["degenerate input column 'a': indices set to 0"]
    assert report["first_order"]["a"] == 0.0
    # b alone does not reach the cumulative threshold, and a, whose combined
    # index is 0, is not selected: its constant column gets no states
    with pytest.warns(UserWarning, match="degenerate input column 'a'"):
        code, _, err = run(["simdec", str(p), "--out", str(tmp_path / "out")], capsys)
    assert code == 0, err
    table = (tmp_path / "out" / "scenarios.csv").read_text().splitlines()
    assert table[1] == "color,scenario,b,min,mean,max,probability"


def test_simdec_with_nothing_to_decompose_is_exit_2(tmp_path, capsys):
    # every input is constant, so every combined index is 0
    p = tmp_path / "flat_inputs.csv"
    p.write_text("a,b,y\n" + "".join(f"3,5,{i * i}\n" for i in range(200)))
    with pytest.warns(UserWarning, match="degenerate input column"):
        code, _, err = run(["simdec", str(p), "--out", str(tmp_path / "out")], capsys)
    assert code == 2, err
    assert f"error: {p}: nothing to decompose" in err
    assert not (tmp_path / "out").exists()


def test_column_range_wider_than_the_largest_float_is_exit_2(tmp_path, capsys):
    # max - min of column 'a' overflows to inf, which no equal-width bin can cut
    p = tmp_path / "wide.csv"
    p.write_text("a,b,output\n" + "".join(
        f"{(-1) ** i * 1.5e308 if i < 2 else float(i)},{i % 7},{i * i}\n" for i in range(200)))
    for command in ("analyze", "simdec"):
        code, _, err = run([command, str(p), "--out", str(tmp_path / "out")], capsys)
        assert code == 2, err
        assert f"{p}: input column 'a' spans [-1.5e+308, 1.5e+308]: its width or its bin scale " \
            "overflows a float" in err
        assert not (tmp_path / "out").exists()


def test_column_range_too_narrow_for_a_bin_scale_is_exit_2(tmp_path, capsys):
    # column 'b' spans [0, 1e-323]: nb / (max - min) overflows to inf
    p = tmp_path / "narrow.csv"
    p.write_text("a,b,output\n" + "".join(
        f"{i},{1e-323 if i % 2 else 0.0},{i * i}\n" for i in range(200)))
    for command in ("analyze", "simdec"):
        code, _, err = run([command, str(p), "--out", str(tmp_path / "out")], capsys)
        assert code == 2, err
        assert f"{p}: input column 'b' spans [0.0, 1e-323]: its width or its bin scale " \
            "overflows a float" in err
        assert not (tmp_path / "out").exists()


def _modules_loaded_by(argv, tmp_path):
    """Names of the modules loaded by a fresh process that runs binsa argv."""
    src = os.path.dirname(os.path.dirname(binsa.__file__))
    code = (
        "import json, sys, binsa.cli\n"
        "code = binsa.cli.main(sys.argv[1:])\n"
        "print(json.dumps(sorted(sys.modules)))\n"
        "sys.exit(code)\n"
    )
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-c", code, *argv, "--n", "2000", "--out", str(tmp_path)],
        env=env, capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_compare_on_uniform_model_loads_no_scipy(tmp_path):
    modules = _modules_loaded_by(["compare", "--model", "ishigami"], tmp_path)
    assert "binsa.oracle" in modules
    assert [m for m in modules if m == "scipy" or m.startswith("scipy.")] == []


# the two commands that draw normal quantiles (toy portfolio marginals) and
# run the gaussian copula (the dependence sweep)
sampling_commands = pytest.mark.parametrize(
    "argv",
    [
        ["sample", "--model", "toy_portfolio"],
        ["sweep-dependence", "--model", "two_factor_multiplicative"],
    ],
    ids=["sample", "sweep-dependence"],
)


@sampling_commands
def test_sampling_commands_load_no_scipy_stats(tmp_path, argv):
    # normal quantiles and the copula are numpy ports: no scipy module at all
    modules = _modules_loaded_by(argv, tmp_path)
    assert [m for m in modules if m == "scipy" or m.startswith("scipy.")] == []


@sampling_commands
def test_sampling_commands_run_with_scipy_blocked(tmp_path, argv):
    # sys.modules["scipy"] = None makes every scipy import fail, as if scipy
    # were not installed; the files written must not change
    src = os.path.dirname(os.path.dirname(binsa.__file__))
    outputs = {}
    for blocked in (False, True):
        out = tmp_path / ("blocked" if blocked else "free")
        code = (
            ("import sys; sys.modules['scipy'] = None\n" if blocked else "import sys\n")
            + "import binsa.cli\n"
            + "sys.exit(binsa.cli.main(sys.argv[1:]))\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code, *argv, "--n", "2000", "--out", str(out)],
            env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
        outputs[blocked] = {f.name: f.read_bytes() for f in sorted(out.iterdir())}
    assert outputs[True] and outputs[True] == outputs[False]


@pytest.mark.parametrize(
    "command, config, flags, message",
    [
        ("analyze", [{"model": "ishigami"}], [], "config must be a JSON object, got list"),
        ("sample", {"model": "ishigami", "sampling": [100]}, [],
         "sampling must be a JSON object"),
        ("sample", {"model": "two_factor_additive",
                    "dependence": [{"kind": "copula", "pair": [0, 5], "rho": 0.5}]}, [],
         r"dependence\[0\]\.pair names input 5; the inputs are 0\.\.1"),
        ("sample", {"model": "two_factor_additive",
                    "dependence": [{"kind": "copula", "pair": [0, 1.5], "rho": 0.5}]}, [],
         r"dependence\[0\]\.pair must hold input indices"),
        ("sample", {"model": "two_factor_additive", "dependence": ["copula"]}, [],
         r"dependence\[0\] must be a JSON object"),
        ("sample", {"model": "toy_portfolio",
                    "dependence": [{"kind": "copula", "pair": [0, 1], "rho": 0.5}]}, [],
         r"dependence\[0\]\.pair names input 0 \('Ps'\), which is not uniform"),
        ("sample", {"model": "ishigami"}, ["--sampler", "ffd", "--n", "3"],
         r"--n must be >= 2\*\*3 = 8 for FFD on 3 inputs, got 3"),
        ("sweep-dependence", {"model": "two_factor_additive"}, ["--sampler", "ffd", "--n", "3"],
         r"--n must be >= 2\*\*2 = 4 for FFD on 2 inputs, got 3"),
        ("simdec", {"model": "ishigami", "simdec": {"n_output_bins": 0}}, [],
         "simdec.n_output_bins must be a whole number >= 1, got 0"),
        ("analyze", {"model": "toy_portfolio", "law": "lognormal"}, [],
         "law must be 'normal' or 'uniform', got 'lognormal'"),
        ("compare", {"model": "ishigami", "oracle": {"n": 0}}, [],
         "oracle.n must be a whole number >= 128, got 0"),
        ("compare", {"model": "ishigami", "oracle": {"sampler": "ffd"}}, [],
         "oracle.sampler must be 'MC' or 'QMC', got 'FFD'"),
        ("sweep-dependence", {"model": "two_factor_additive", "sweep_grid": [0.5, 2.0]}, [],
         r"sweep_grid\[1\] must be a number in \[-1, 1\], got 2\.0"),
        ("simdec", {"model": "ishigami", "simdec": {"max_inputs": 0}}, [],
         "simdec.max_inputs must be a whole number >= 1, got 0"),
        ("simdec", {"model": "ishigami", "simdec": {"max_inputs": -1}}, [],
         "simdec.max_inputs must be a whole number >= 1, got -1"),
        ("simdec", {"model": "ishigami", "simdec": {"cum_threshold": 5}}, [],
         r"simdec\.cum_threshold must lie in \(0, 1\], got 5\.0"),
        ("simdec", {"model": "ishigami", "simdec": {"cum_threshold": 0}}, [],
         r"simdec\.cum_threshold must lie in \(0, 1\], got 0\.0"),
        ("sweep-dependence", {"model": "two_factor_additive",
                              "dependence": [{"kind": "copula", "pair": [0, 1], "rho": 0.9}]}, [],
         "sweep-dependence builds its own dependence plans over sweep_grid; "
         "remove the config's dependence list"),
        ("sample", {"model": "ishigami"}, ["--seed", "-3"],
         "--seed must be a whole number >= 0, got -3"),
        ("sample", {"model": "ishigami", "sampling": {"seed": -1}}, [],
         r"sampling\.seed must be a whole number >= 0, got -1"),
        ("sample", {"model": "ishigami", "seed": -1}, [],
         "error: seed must be a whole number >= 0, got -1"),
        ("sample", {"model": "ishigami", "sampling": {"seed": 1.5}}, [],
         r"sampling\.seed must be a whole number >= 0, got 1\.5"),
        ("sample", {"model": "ishigami", "sampling": {"seed": True}}, [],
         r"sampling\.seed must be a whole number >= 0, got True"),
        ("sample", {"model": "ishigami", "sampling": {"n": 500.7}}, [],
         r"sampling\.n must be a whole number >= 2, got 500\.7"),
        ("sample", {"model": "ishigami", "sampling": {"n": "1000"}}, [],
         r"sampling\.n must be a whole number >= 2, got '1000'"),
        ("sample", {"model": "ishigami", "sampling": {"n": 2000000000}}, [],
         r"sampling\.n must be <= 1073741824 for QMC, got 2000000000"),
        ("sample", {"model": "ishigami"}, ["--n", "2000000000"],
         "--n must be <= 1073741824 for QMC, got 2000000000"),
        ("sample", {"model": "ishigami", "sampling": {"scramble": "false"}}, [],
         r"sampling\.scramble must be true or false, got 'false'"),
        ("simdec", {"model": "ishigami", "simdec": {"max_inputs": 2.7}}, [],
         r"simdec\.max_inputs must be a whole number >= 1, got 2\.7"),
        ("simdec", {"model": "ishigami", "simdec": {"n_output_bins": 10.5}}, [],
         r"simdec\.n_output_bins must be a whole number >= 1, got 10\.5"),
        ("compare", {"model": "ishigami", "oracle": {"n": 1500.5}}, [],
         r"oracle\.n must be a whole number >= 128, got 1500\.5"),
        ("sample", {"model": "two_factor_additive",
                    "dependence": [{"kind": "copula", "pair": [0, 1], "rho": True}]}, [],
         r"dependence\[0\]\.rho must be a number in \[-1, 1\], got True"),
        ("sample", {"model": "two_factor_additive",
                    "dependence": [{"kind": "copula", "pair": [0, 1], "rho": 1.5}]}, [],
         r"dependence\[0\]\.rho must be a number in \[-1, 1\], got 1\.5"),
        ("sample", {"model": "two_factor_additive",
                    "dependence": [{"kind": "equal_portion", "pair": [0, 1], "fraction": "0.5"}]},
         [], r"dependence\[0\]\.fraction must be a number in \[0, 1\], got '0\.5'"),
        ("sample", {"model": "two_factor_additive",
                    "dependence": [{"kind": "equal_portion", "pair": [0, 1], "fraction": 0.5,
                                    "sign": "up"}]}, [],
         r"dependence\[0\]\.sign must be 'positive' or 'negative', got 'up'"),
        ("sample", {"model": "ishigami", "sampling": {"method": 5}}, [],
         r"sampling\.method must be 'MC', 'QMC' or 'FFD', got 5"),
        ("compare", {"model": "ishigami", "oracle": {"sampler": 5}}, [],
         r"oracle\.sampler must be 'MC' or 'QMC', got 5"),
        ("simdec", {"model": "ishigami", "simdec": {"cum_threshold": "0.5"}}, [],
         r"simdec\.cum_threshold must lie in \(0, 1\], got '0\.5'"),
        ("sample", {"model": "two_factor_additive",
                    "dependence": {"kind": "copula", "pair": [0, 1], "rho": 0.5}}, [],
         "dependence must be a JSON list of objects, got {"),
        ("sample", {"model": "two_factor_additive",
                    "dependence": [{"kind": "copula", "pair": [0, 1, 1], "rho": 0.5}]}, [],
         r"dependence\[0\]\.pair must name two distinct inputs, got \[0, 1, 1\]"),
        ("sample", {"model": "two_factor_additive",
                    "dependence": [{"kind": "copula", "pair": [1, 1], "rho": 0.5}]}, [],
         r"dependence\[0\]\.pair must name two distinct inputs, got \[1, 1\]"),
        ("sample", {"model": "two_factor_additive",
                    "dependence": [{"kind": "copula", "rho": 0.5}]}, [],
         r"dependence\[0\]\.pair must hold input indices, got None"),
        ("sweep-dependence", {"model": "two_factor_additive", "sweep_grid": 0.5}, [],
         "sweep_grid must be a JSON list of numbers, got 0.5"),
        ("simdec", {"model": "ishigami", "simdec": {"cum_threshold": 10**400}}, [],
         r"simdec\.cum_threshold must lie in \(0, 1\], got 10{400}$"),
        ("analyze", {"model": "ishigami", "binnig": {"n_bins_first": 12}}, ["--n", "500"],
         "unknown config key 'binnig'"),
        ("analyze", {"model": "ishigami", "sampling": {"nn": 300}}, ["--n", "500"],
         r"unknown config key 'sampling\.nn'"),
        ("analyze", {"model": "ishigami", "oracle": {"nn": 5}}, ["--n", "500"],
         r"unknown config key 'oracle\.nn'"),
        ("analyze", {"model": "two_factor_additive",
                     "dependence": [{"kind": "copula", "pair": [0, 1], "fraction": 0.5}]},
         ["--n", "500"], r"unknown config key 'dependence\[0\]\.fraction'"),
        ("analyze", {"dataset": False}, [], "dataset must be a non-empty string, got False"),
        ("analyze", {"dataset": 5}, [], "dataset must be a non-empty string, got 5"),
        ("analyze", {"model": "ishigami", "out": 7}, [], "out must be a non-empty string, got 7"),
        ("sweep-dependence", {"model": "two_factor_additive", "sweep_grid": []}, [],
         "sweep_grid must not be empty"),
        ("sample", {"model": {"name": "ishigami", "zz": 1}}, [],
         "model 'ishigami' has no parameter 'zz'"),
        ("sample", {"model": {"name": "ishigami", "a": "7"}}, [],
         "ishigami parameter 'a' must be a finite number, got '7'"),
        ("sample", {"model": {"name": "ishigami", "a": True}}, [],
         "ishigami parameter 'a' must be a finite number, got True"),
        ("compare", {"model": {"name": "ishigami"}, "sampling": {"method": "ffd", "n": 7}}, [],
         r"sampling\.n must be >= 2\*\*3 = 8 for FFD on 3 inputs, got 7"),
        ("analyze", {"model": "ishigami"}, ["--n", "2000", "--bins", str(2**70)],
         f"--bins must be an integer <= {2**63 - 1}, got {2**70}$"),
        ("analyze", {"model": "ishigami", "binning": {"n_bins_second_per_dim": 2**70}},
         ["--n", "2000"],
         rf"binning\.n_bins_second_per_dim must be an integer <= {2**63 - 1}, got {2**70}$"),
        # a count that numpy can index, but not allocate: the estimator's
        # error, still a user-input one
        ("analyze", {"model": "ishigami"}, ["--n", "2000", "--bins", str(2**62)],
         "error: array is too big"),
        ("analyze", {"model": "ishigami", "binning": {"n_bins_second_per_dim": 2**62}},
         ["--n", "2000"], "error: array is too big"),
        ("sweep-dependence", {"model": "two_factor_additive"},
         ["--n", "2000", "--bins", str(2**62)], "error: array is too big"),
        ("compare", {"model": "ishigami", "oracle": {"n": 2**31}}, [],
         r"oracle\.n must be <= 1073741824 for QMC, got 2147483648"),
        ("sample", {"model": {"a": 5}}, [], r"model\.name must be a model name, got None"),
        ("sample", {"model": {"name": 3}}, [], r"model\.name must be a model name, got 3"),
    ],
    ids=["top-level-list", "section-not-object", "pair-out-of-range", "pair-not-int",
         "dependence-not-object", "pair-not-uniform", "ffd-too-few-rows", "sweep-ffd-too-few-rows",
         "zero-output-bins", "law", "oracle-n", "oracle-sampler", "sweep-grid",
         "zero-max-inputs", "negative-max-inputs", "cum-threshold-above-1", "zero-cum-threshold",
         "sweep-dependence-list", "negative-seed-flag", "negative-seed", "negative-top-level-seed",
         "fractional-seed", "bool-seed", "fractional-n", "string-n", "qmc-n-too-large",
         "qmc-n-flag-too-large", "string-scramble", "fractional-max-inputs",
         "fractional-output-bins", "fractional-oracle-n", "bool-rho", "rho-out-of-range",
         "string-fraction", "bad-sign", "int-method", "int-oracle-sampler",
         "string-cum-threshold", "dependence-object", "three-index-pair", "repeated-pair",
         "missing-pair", "scalar-sweep-grid", "huge-int-cum-threshold", "unknown-section",
         "unknown-sampling-key", "unknown-oracle-key", "key-of-another-kind", "bool-dataset",
         "int-dataset", "int-out", "empty-sweep-grid", "unknown-model-parameter",
         "string-model-parameter", "bool-model-parameter", "config-ffd-too-few-rows",
         "bins-flag-2-70", "pair-bins-2-70", "bins-flag-2-62", "pair-bins-2-62",
         "sweep-bins-flag-2-62", "oracle-n-too-large-for-qmc", "model-without-name",
         "model-name-not-a-string"],
)
def test_bad_config_value_is_exit_2_naming_the_key(tmp_path, capsys, command, config, flags,
                                                     message):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    out = tmp_path / "out"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, _, err = run([command, "--config", str(cfg), *flags, "--out", str(out)], capsys)
    assert code == 2, err
    assert re.search(message, err), err
    assert not out.exists()
    # the error is the one line printed: no note (a warning, which the process
    # prints on stderr) comes before it, as a sparse-bin note could before an
    # analysis refused for its bin count
    assert err.count("\n") == 1 and not caught, (err, [str(w.message) for w in caught])


@pytest.mark.parametrize("command, target", [
    ("analyze", "analyze"),
    ("simdec", "decompose"),
])
def test_an_allocation_the_host_cannot_make_is_exit_2(tmp_path, capsys, monkeypatch, command,
                                                       target):
    # a bin or output-bin count that numpy can index but the host cannot
    # allocate raises MemoryError; patched here, as a real request of many TiB
    # would depend on the host's overcommit policy
    def refuse(*args, **kwargs):
        raise MemoryError("Unable to allocate 7.28 TiB for an array with shape (1000000000000,)")

    monkeypatch.setattr(binsa.cli, target, refuse)
    out = tmp_path / "out"
    code, _, err = run([command, "--model", "ishigami", "--n", "2000", "--out", str(out)], capsys)
    assert code == 2, err
    assert err == "error: Unable to allocate 7.28 TiB for an array with shape (1000000000000,)\n"
    assert not out.exists()


@pytest.mark.parametrize("command, below_a_file, from_config", [
    ("analyze", False, False),
    ("sample", True, False),
    ("sample", True, True),
], ids=["existing-file", "below-a-file", "config-key"])
def test_an_out_that_cannot_be_a_directory_is_exit_2(tmp_path, capsys, command, below_a_file,
                                                       from_config):
    blocker = tmp_path / "file"
    blocker.write_text("kept\n")
    out = blocker / "x" if below_a_file else blocker
    model = "toy_portfolio" if command == "sample" else "ishigami"
    if from_config:
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"model": model, "out": str(out)}))
        argv, key = ["--config", str(cfg)], "out"
    else:
        argv, key = ["--model", model, "--out", str(out)], "--out"
    code, stdout, err = run([command, *argv, "--n", "1000"], capsys)
    assert code == 2, err
    assert err.startswith(f"error: {key} must name a directory, got {str(out)!r}: "), err
    assert stdout == ""
    assert {p.name for p in tmp_path.iterdir()} == ({"file", "cfg.json"} if from_config
                                                    else {"file"})
    assert blocker.read_text() == "kept\n"


def _cli_env():
    # block-buffered stdout, as in a shell pipeline, and this checkout's binsa
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(binsa.__file__)))
    env.pop("PYTHONUNBUFFERED", None)
    return env


# the `binsa` console script runs `sys.exit(run())`, as pip writes it
_LAUNCHERS = {
    "module": ["-m", "binsa.cli"],
    "script": ["-c", "import sys; from binsa.cli import run; sys.exit(run())"],
}


def _run_process(launcher, argv, tmp_path, tag):
    """Exit code, stdout and stderr of argv in a fresh process whose streams
    go to files."""
    paths = tmp_path / f"{tag}.stdout", tmp_path / f"{tag}.stderr"
    with open(paths[0], "wb") as out, open(paths[1], "wb") as err:
        code = subprocess.run([sys.executable, *_LAUNCHERS[launcher], *argv], env=_cli_env(),
                              stdout=out, stderr=err, timeout=300).returncode
    return code, paths[0].read_text(), paths[1].read_text()


def test_tour_processes_keep_their_sha256_through_the_process_exit(tmp_path):
    out = tmp_path / "out"
    common = ["--n", "2000", "--seed", "1", "--out", str(out)]
    data = str(out / "dataset.csv")
    for argv, printed in ((["sample", "--model", "toy_portfolio"] + common, "dataset.csv"),
                          (["analyze", data, "--out", str(out)], "report.json"),
                          (["simdec", data, "--out", str(out)], "scenarios.csv"),
                          (["compare", "--model", "ishigami"] + common, "compare.json"),
                          (["sweep-dependence", "--model", "two_factor_multiplicative"] + common,
                           "sweep.csv")):
        code, stdout, stderr = _run_process("module", argv, tmp_path, argv[0])
        assert code == 0, stderr
        assert stdout == str(out / printed) + "\n"
    got = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in out.iterdir()}
    assert got == _TOUR_SHA256


@pytest.mark.parametrize("launcher", sorted(_LAUNCHERS))
def test_process_exit_codes_and_error_lines(tmp_path, launcher):
    bad = ["analyze", "--model", "not_a_model", "--out", str(tmp_path / "out")]
    code, stdout, stderr = _run_process(launcher, bad, tmp_path, "plain")
    assert (code, stdout) == (2, "")
    assert stderr.startswith("error: unknown model 'not_a_model'") and stderr.count("\n") == 1
    code, stdout, stderr = _run_process(launcher, ["--json-errors"] + bad, tmp_path, "json")
    assert (code, stdout) == (2, "")
    payload = json.loads(stderr)
    assert payload["exit_code"] == 2 and "unknown model" in payload["error"]
    code, _, stderr = _run_process(launcher, ["analyze", "--bins", "x"], tmp_path, "usage")
    assert code == 2 and "usage: binsa" in stderr
    code, stdout, _ = _run_process(launcher, ["--help"], tmp_path, "help")
    assert code == 0 and stdout.startswith("usage: binsa")
    assert not (tmp_path / "out").exists()


def test_a_closed_stdout_is_exit_1_with_one_error_line(tmp_path):
    # the read end is closed before the command starts, so its one printed
    # line, held in stdout's buffer, fails at run's flush
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "binsa.cli", "analyze", "--model", "ishigami", "--n", "1000",
             "--out", str(tmp_path)],
            env=_cli_env(), stdout=write_end, stderr=subprocess.PIPE, timeout=300,
        )
    finally:
        os.close(write_end)
    assert proc.returncode == 1
    assert proc.stderr.decode() == "error: [Errno 32] Broken pipe\n"
    assert (tmp_path / "report.json").exists()


@pytest.mark.parametrize("shape", ["read-only", "closed"])
def test_a_closed_stderr_keeps_the_exit_code_and_stdout_clean(tmp_path, shape):
    # read-only: descriptor 2 is open but not for writing, so a write raises
    # EBADF; closed: it is closed at exec, so sys.stderr is None
    argv = [sys.executable, "-m", "binsa.cli", "analyze", "--model", "not_a_model",
            "--out", str(tmp_path / "out")]
    blocker = tmp_path / "stderr"
    blocker.write_bytes(b"")
    with open(blocker, "rb") as read_only:
        if shape == "closed":
            argv = ["sh", "-c", 'exec "$@" 2>&-', "sh", *argv]
        proc = subprocess.run(argv, env=_cli_env(), stdout=subprocess.PIPE, stderr=read_only,
                              timeout=300)
    assert (proc.returncode, proc.stdout) == (2, b"")
    assert blocker.read_bytes() == b""
    assert not (tmp_path / "out").exists()


class _Stream(io.StringIO):
    """A text stream that logs its flushes into events."""

    def __init__(self, name, events):
        super().__init__()
        self.name, self.events = name, events

    def flush(self):
        self.events.append(("flush", self.name))
        super().flush()


@pytest.mark.parametrize("argv, code", [
    (["sample", "--model", "toy_portfolio", "--n", "10017"], 0),
    (["analyze", "--model", "ishigami", "--n", "1000"], 0),
    (["analyze", "--model", "not_a_model"], 2),
    (["analyze", "--bins", "x"], 2),
    (["--help"], 0),
], ids=["sample", "analyze", "bad-model", "usage", "help"])
def test_run_ends_the_process_with_mains_code_after_flushing(tmp_path, monkeypatch, argv, code):
    # two workers, so that sample's writer and analyze start threads
    monkeypatch.setattr(binsa.binning, "_usable_cpus", lambda: 2)
    events = []
    monkeypatch.setattr(sys, "stdout", _Stream("stdout", events))
    monkeypatch.setattr(sys, "stderr", _Stream("stderr", events))
    monkeypatch.setattr(sys, "argv", ["binsa", *argv, "--out", str(tmp_path)])
    monkeypatch.setattr(os, "_exit", lambda c: events.append(("exit", c, threading.active_count())))
    binsa.cli.run()
    assert events[-3:] == [("flush", "stdout"), ("flush", "stderr"), ("exit", code, 1)]
    assert [e for e in events if e[0] == "exit"] == [("exit", code, 1)]
