import json

import numpy as np
import pytest

from binsa import (
    Dataset,
    InputSpec,
    MarginalDistribution,
    SamplingPlan,
    UserInputError,
    analyze,
    conservation_check,
    default_specs,
    default_states,
    decompose,
    evaluate,
    get_model,
    read_dataset_csv,
    report_tables_csv,
    report_to_dict,
    sample_inputs,
    scenario_table_csv,
    write_dataset_csv,
)
from binsa.io import config_from_dict, fmt_number, load_config, load_states_file


def _dataset(n=500, seed=0, model="toy_portfolio"):
    m = get_model(model)
    specs = default_specs(m)
    x = sample_inputs(SamplingPlan(method="QMC", n=n, seed=seed), specs)
    return Dataset(inputs=x, output=evaluate(m, x), specs=specs)


def test_fmt_number_shortest_round_trip():
    assert fmt_number(0.1) == "0.1"
    assert fmt_number(1 / 3) == repr(1 / 3)
    assert float(fmt_number(np.pi)) == np.pi
    assert fmt_number(5) == "5"


def test_dataset_csv_round_trip_is_value_exact(tmp_path):
    ds = _dataset()
    p = tmp_path / "d.csv"
    write_dataset_csv(p, ds, metadata={"seed": 0})
    back = read_dataset_csv(p, specs=ds.specs)
    assert np.array_equal(back.inputs, ds.inputs)
    assert np.array_equal(back.output, ds.output)


def test_dataset_csv_second_write_is_byte_identical(tmp_path):
    ds = _dataset()
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    write_dataset_csv(p1, ds, metadata={"seed": 0})
    back = read_dataset_csv(p1, specs=ds.specs)
    write_dataset_csv(p2, back, metadata={"seed": 0})
    assert p1.read_bytes() == p2.read_bytes()


def test_read_csv_without_specs_infers_uniform(tmp_path):
    p = tmp_path / "d.csv"
    p.write_text("a,b,output\n1,10,11\n2,20,22\n3,30,33\n")
    ds = read_dataset_csv(p)
    assert ds.names == ("a", "b")
    assert ds.specs[0].distribution.kind == "uniform"
    assert ds.output.tolist() == [11.0, 22.0, 33.0]


def test_read_csv_skips_comment_lines(tmp_path):
    p = tmp_path / "d.csv"
    p.write_text('# meta {"seed": 1}\na,output\n1,2\n3,4\n')
    ds = read_dataset_csv(p)
    assert ds.n_rows == 2


def test_read_csv_errors_name_row_and_column(tmp_path):
    p = tmp_path / "bad.csv"
    rows = ["a,b,output"] + [f"{i},{i},{2 * i}" for i in range(1, 20)]
    rows[17] = "17,oops,34"  # data row 17 -> file line 18
    p.write_text("\n".join(rows) + "\n")
    with pytest.raises(UserInputError) as err:
        read_dataset_csv(p)
    msg = str(err.value)
    assert "row 18" in msg and "'b'" in msg and "oops" in msg


def test_read_csv_ragged_row_rejected(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("a,output\n1,2\n3\n")
    with pytest.raises(UserInputError, match="row 3"):
        read_dataset_csv(p)


def test_read_csv_empty_and_tiny_rejected(tmp_path):
    p = tmp_path / "e.csv"
    p.write_text("")
    with pytest.raises(UserInputError, match="empty"):
        read_dataset_csv(p)
    p.write_text("a,output\n1,2\n")
    with pytest.raises(UserInputError, match="at least 2 data rows"):
        read_dataset_csv(p)


def test_categorical_csv_round_trip(tmp_path):
    specs = (
        InputSpec("c", MarginalDistribution.categorical(("lo", "hi"), (0.5, 0.5))),
        InputSpec("u", MarginalDistribution.uniform(0, 1)),
    )
    inputs = np.array([[0.0, 0.1], [1.0, 0.9], [0.0, 0.4]])
    ds = Dataset(inputs=inputs, output=inputs.sum(axis=1), specs=specs)
    p = tmp_path / "c.csv"
    write_dataset_csv(p, ds)
    text = p.read_text()
    assert "lo" in text and "hi" in text
    back = read_dataset_csv(p, specs=specs)
    assert np.array_equal(back.inputs, ds.inputs)
    p.write_text(text.replace("hi", "huh"))
    with pytest.raises(UserInputError, match="unknown level"):
        read_dataset_csv(p, specs=specs)


def test_report_to_dict_schema():
    # seed 3: a plain left-to-right sum of these indices differs from the
    # order-canonical one in the last bit
    rep = analyze(_dataset(n=2000, seed=3))
    d = report_to_dict(rep, metadata={"seed": 3})
    assert d["schema_version"] == 1
    assert set(d["first_order"]) == set(rep.names)
    assert len(d["second_order"]) == 15  # C(6,2)
    assert "Ps*Cs" in d["second_order"]
    assert d["conservation_sum"] == conservation_check(rep)
    json.dumps(d)  # must be JSON-serializable


def test_report_tables_csv_layout():
    rep = analyze(_dataset(n=2000))
    text = report_tables_csv(rep, metadata={"seed": 0})
    lines = text.splitlines()
    assert lines[0].startswith("# meta ")
    assert lines[2].startswith("first_order,")
    assert any(ln.startswith("combined,") for ln in lines)


def test_scenario_table_csv():
    ds = _dataset(n=2000, model="nested_interaction")
    deco = decompose(ds, default_states(ds, (0, 1)))
    text = scenario_table_csv(deco, ds.names)
    lines = text.splitlines()
    assert lines[0].split(",")[:2] == ["color", "scenario"]
    assert len(lines) == 1 + 6


def test_config_requires_exactly_one_source():
    with pytest.raises(UserInputError, match="exactly one"):
        config_from_dict({})
    with pytest.raises(UserInputError, match="exactly one"):
        config_from_dict({"model": "ishigami", "dataset": "d.csv"})


def test_config_overrides_and_defaults(tmp_path):
    cfg = config_from_dict(
        {"model": "ishigami", "sampling": {"n": 2000, "method": "MC"}, "seed": 9},
        overrides={"n": 3000, "sampler": "qmc", "bins": 12, "out": "odir"},
    )
    assert cfg.sampling.n == 3000
    assert cfg.sampling.method == "QMC"
    assert cfg.sampling.seed == 9
    assert cfg.n_bins_first == 12
    assert cfg.out_dir == "odir"


def test_config_model_params_and_dependence():
    cfg = config_from_dict(
        {
            "model": {"name": "ishigami", "a": 5.0},
            "dependence": [{"kind": "copula", "pair": [0, 1], "rho": 0.5}],
        }
    )
    assert cfg.model == "ishigami" and cfg.model_params == {"a": 5.0}
    assert cfg.dependence[0].rho == 0.5
    with pytest.raises(UserInputError, match="unknown dependence kind"):
        config_from_dict({"model": "ishigami", "dependence": [{"kind": "frank", "pair": [0, 1]}]})


def test_load_config_file_errors(tmp_path):
    p = tmp_path / "cfg.json"
    p.write_text("{not json")
    with pytest.raises(UserInputError, match="cannot read config"):
        load_config(p)
    with pytest.raises(UserInputError):
        load_config(tmp_path / "missing.json")


def test_load_states_file(tmp_path):
    ds = _dataset(n=500, model="nested_interaction")
    p = tmp_path / "states.json"
    p.write_text(
        json.dumps(
            [
                {
                    "input": "A",
                    "states": [
                        {"name": "low", "min": 0.0, "max": 0.5},
                        {"name": "high", "min": 0.5, "max": 1.0},
                    ],
                }
            ]
        )
    )
    defs = load_states_file(p, ds)
    assert defs[0].input_index == 0
    assert [s.label for s in defs[0].states] == ["low", "high"]


def test_load_states_file_errors(tmp_path):
    ds = _dataset(n=500, model="nested_interaction")
    p = tmp_path / "states.json"
    p.write_text(json.dumps([{"input": "Z", "states": []}]))
    with pytest.raises(UserInputError, match="unknown column"):
        load_states_file(p, ds)
    p.write_text(json.dumps([{"input": "A", "states": [{"name": "only", "min": 0, "max": 1}]}]))
    with pytest.raises(UserInputError, match="at least 2 states"):
        load_states_file(p, ds)
    p.write_text("[")
    with pytest.raises(UserInputError, match="cannot read states"):
        load_states_file(p, ds)
