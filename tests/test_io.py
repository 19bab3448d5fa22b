import csv
import io
import json
import re
import tracemalloc
import warnings

import numpy as np
import pytest

import binsa.io

from binsa import (
    Dataset,
    InputSpec,
    MarginalDistribution,
    SamplingPlan,
    analyze,
    conservation_check,
    default_specs,
    default_states,
    decompose,
    evaluate,
    get_model,
    read_dataset_csv,
    sample_inputs,
    write_dataset_csv,
)
from binsa.io import (
    UserInputError,
    config_from_dict,
    fmt_number,
    load_config,
    load_states_file,
    report_tables_csv,
    report_to_dict,
    scenario_table_csv,
)


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


def test_dataset_csv_matches_cell_by_cell_reference(tmp_path):
    # more rows than one write block, with a categorical column whose labels
    # need quotes (a comma, a quote, a carriage return), are empty or start
    # with a space
    n = 2 * binsa.io._ROWS_PER_WRITE + 1
    rng = np.random.default_rng(5)
    levels = ("lo", "a,b", "", " x", "a\rb", 'q"')
    specs = (
        InputSpec("u", MarginalDistribution.uniform(0, 1)),
        InputSpec("c", MarginalDistribution.categorical(levels, (1 / 6,) * 6)),
    )
    scale = 10.0 ** rng.integers(-5, 5, n)
    inputs = np.column_stack([rng.normal(size=n) * scale, rng.integers(0, len(levels), n)])
    ds = Dataset(inputs=inputs, output=rng.normal(size=n), specs=specs)
    p = tmp_path / "d.csv"
    write_dataset_csv(p, ds, metadata={"seed": 5})
    ref = io.StringIO()
    ref.write('# meta {"seed": 5}\n')
    writer = csv.writer(ref, lineterminator="\n")
    writer.writerow(["u", "c", "output"])
    for r in range(n):
        u, c = ds.inputs[r]
        label = specs[1].distribution.levels[int(c)]
        writer.writerow([fmt_number(u), label, fmt_number(ds.output[r])])
    assert p.read_bytes() == ref.getvalue().encode("utf-8")


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


def test_read_csv_error_rows_are_file_line_numbers(tmp_path):
    p = tmp_path / "bad.csv"
    head = '# meta {"seed": 1}\na,b,output\n1,2,3\n# note\n'
    p.write_text(head + "4,oops,6\n7,8,9\n")  # the bad cell is on file line 5
    with pytest.raises(UserInputError, match=r"row 5, column 'b': non-numeric cell 'oops'"):
        read_dataset_csv(p)
    p.write_text(head + "4,5,6\n\n#\n7,8\n")
    with pytest.raises(UserInputError, match="row 8 has 2 cells, expected 3"):
        read_dataset_csv(p)


def test_read_csv_rejects_repeated_input_name(tmp_path):
    p = tmp_path / "d.csv"
    p.write_text("a,b,a,output\n1,2,3,4\n5,6,7,8\n")
    with pytest.raises(UserInputError, match="header repeats the column name 'a'"):
        read_dataset_csv(p)


def test_read_csv_rejects_constant_output(tmp_path):
    # once through the bulk parser, once through the checked loop
    p = tmp_path / "d.csv"
    p.write_text("a,y\n1,2.5\n3,2.5\n4,2.5\n")
    with pytest.raises(UserInputError, match=r"output column 'y' is constant \(2\.5\)"):
        read_dataset_csv(p)
    spec = (InputSpec("c", MarginalDistribution.categorical(("u", "v"), (0.5, 0.5))),)
    p.write_text("c,output\nu,0\nv,0\n")
    with pytest.raises(UserInputError, match="output column 'output' is constant"):
        read_dataset_csv(p, specs=spec)


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


def _read_both_ways(path, monkeypatch, read=read_dataset_csv):
    """(read(path), whether the bulk parser produced its rows, read(path)
    with the bulk parser switched off)."""
    bulk_rows = binsa.io._bulk_rows
    results = []

    def spy(fh, n_cols):
        results.append(bulk_rows(fh, n_cols))
        return results[-1]

    with monkeypatch.context() as m:
        m.setattr(binsa.io, "_bulk_rows", spy)
        fast = read(path)
    with monkeypatch.context() as m:
        m.setattr(binsa.io, "_bulk_rows", lambda fh, n_cols: None)
        loop = read(path)
    return fast, any(r is not None for r in results), loop


@pytest.mark.parametrize(
    "text, bulk",
    [
        ("a,b,output\n1.5,-2,0.25\n3,4e-3,5\n-0.0,7,8\n", True),
        ("a,b,output\n1.5,-2,0.25\n\n3,4e-3,5\n\n\n-0.0,7,8\n\n", True),
        ("a,b,output\r\n1.5,-2,0.25\r\n3,4e-3,5\r\n-0.0,7,8", True),
        ("a,b,output\n 1.5 ,\t-2,0.25  \n3,4e-3 ,5\n-0.0, 7,8\n", True),
        ('# meta {}\na,b,output\n1.5,-2,0.25\n# note\n3,4e-3,5\n#\n-0.0,7,8\n', True),
        ('a,b,output\n"1.5",-2,0.25\n3,4e-3,5\n-0.0,7,8\n', False),
        ("a,b,output\n1.5,-2,0.25\n3,4e-3,5\n-0.0,7,1_0\n", False),
        ('"a\nx",b,output\n1.5,-2,0.25\n3,4e-3,5\n-0.0,7,8\n', True),
    ],
    ids=["plain", "blank-lines", "crlf", "padded", "comment-lines", "quoted", "underscore",
         "two-line-header"],
)
def test_bulk_and_checked_reads_agree_bitwise(tmp_path, monkeypatch, text, bulk):
    p = tmp_path / "d.csv"
    p.write_bytes(text.encode())
    fast, used_bulk, loop = _read_both_ways(p, monkeypatch)
    assert used_bulk == bulk
    assert fast.specs == loop.specs
    assert fast.inputs.tobytes() == loop.inputs.tobytes()
    assert fast.output.tobytes() == loop.output.tobytes()


def _read_or_error(path):
    """The arrays and specs read from path, or the text of the error."""
    try:
        ds = read_dataset_csv(path)
    except UserInputError as exc:
        return str(exc)
    return ds.specs, ds.inputs.tobytes(), ds.output.tobytes()


@pytest.mark.parametrize(
    "text, bulk",
    [
        ("a,b,output\n1.5,-2,0.25\n1#2,3,4\n-0.0,7,8\n", False),
        ("a,b,output\n1.5,-2,0.25\n  # note\n3,4e-3,5\n-0.0,7,8\n", False),
        ("a,b,output\n1.5,-2,0.25 # note\n3,4e-3,5\n-0.0,7,8\n", False),
        ("a,b,output\r1.5,-2,0.25\r3,4e-3,5\r-0.0,7,8\r", True),
        ("# meta {}\ra,b,output\r1.5,-2,0.25\r# note\r3,4e-3,5\r#\r-0.0,7,8", True),
        ("# meta {}\r\na,b,output\r\n1.5,-2,0.25\r\n# note\r\n-0.0,7,8\r\n", True),
    ],
    ids=["hash-in-cell", "indented-comment", "trailing-comment", "cr-only",
         "cr-only-comment-lines", "crlf-comment-lines"],
)
def test_bulk_read_takes_only_hash_lines_as_comments(tmp_path, monkeypatch, text, bulk):
    # np.loadtxt strips a '#' anywhere in a line; the checked reader drops
    # only lines that start with one, so any other '#' must leave the bulk
    # path untaken, and either way the outcome is the checked reader's
    p = tmp_path / "d.csv"
    p.write_bytes(text.encode())
    fast, used_bulk, loop = _read_both_ways(p, monkeypatch, read=_read_or_error)
    assert fast == loop
    assert used_bulk == bulk


def test_written_dataset_with_meta_line_takes_the_bulk_path(tmp_path, monkeypatch):
    p = tmp_path / "d.csv"
    ds = _dataset(n=300)
    write_dataset_csv(p, ds, metadata={"seed": 1, "tool": "binsa"})
    assert p.read_text().startswith("# meta {")
    fast, used_bulk, loop = _read_both_ways(p, monkeypatch)
    assert used_bulk
    assert fast.inputs.tobytes() == loop.inputs.tobytes() == ds.inputs.tobytes()
    assert fast.output.tobytes() == loop.output.tobytes() == ds.output.tobytes()


def test_bulk_read_keeps_the_checked_reader_errors(tmp_path):
    # np.loadtxt strips \x1c-\x1f around a number, float() does not
    p = tmp_path / "d.csv"
    p.write_text("a,output\n1,2\n3\x1c,4\n")
    with pytest.raises(UserInputError, match=r"row 3, column 'a': non-numeric cell '3\\x1c'"):
        read_dataset_csv(p)
    p.write_text("a,output\n1,2\n3,4\n5\n")
    with pytest.raises(UserInputError, match="row 4 has 1 cells, expected 2"):
        read_dataset_csv(p)


def _plain_rows(n, n_cols=7):
    """The text of a dataset CSV: a header and n rows of n_cols random numbers."""
    x = np.random.default_rng(0).random((n, n_cols))
    header = ",".join(f"c{j}" for j in range(n_cols - 1)) + ",output\n"
    return header + "".join(",".join(map(repr, row)) + "\n" for row in x.tolist())


def test_bulk_read_sees_padding_past_the_first_scanned_chunk(tmp_path):
    text = _plain_rows(40_000, n_cols=2)
    assert len(text) > 1.2 * binsa.io._SCAN_BYTES
    lines = text.splitlines(keepends=True)
    lines[-2] = "4\x1c," + lines[-2].split(",")[1]
    p = tmp_path / "d.csv"
    p.write_text("".join(lines))
    with pytest.raises(UserInputError, match=r"row 40000, column 'c0': non-numeric cell '4\\x1c'"):
        read_dataset_csv(p)


def test_bulk_read_sees_hash_line_starts_across_scanned_chunks(tmp_path, monkeypatch):
    # a '#' line that starts the second chunk is a comment line, one past
    # it a '#' that does not start a line still sends the file to the
    # checked reader
    text = _plain_rows(40_000, n_cols=2)
    cut = text.rindex("\n", 0, binsa.io._SCAN_BYTES) + 1
    pad = binsa.io._SCAN_BYTES - cut
    head, tail = text[:cut], text[cut:]
    head = head[:-1] + " " * pad + "\n"  # padding both readers accept
    p = tmp_path / "d.csv"
    p.write_text(head + "# note\n" + tail)
    assert p.read_bytes()[binsa.io._SCAN_BYTES - 1:binsa.io._SCAN_BYTES + 1] == b"\n#"
    fast, used_bulk, loop = _read_both_ways(p, monkeypatch)
    assert used_bulk
    assert fast.inputs.tobytes() == loop.inputs.tobytes()
    lines = tail.splitlines(keepends=True)
    lines[-2] = lines[-2][:-1] + " # note\n"
    p.write_text(head + "".join(lines))
    with pytest.raises(UserInputError, match=r"row 40000, column 'output': non-numeric cell"):
        read_dataset_csv(p)


def test_read_csv_peak_memory_is_a_small_multiple_of_the_data(tmp_path):
    # the lines stream into the parser: no list of them, no joined copy
    n = 20_000
    p = tmp_path / "d.csv"
    p.write_text(_plain_rows(n))
    data_bytes = n * 7 * 8
    tracemalloc.start()
    try:
        ds = read_dataset_csv(p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert ds.n_rows == n
    assert peak < 3 * data_bytes, peak / data_bytes


def _write_peak(path, n):
    rng = np.random.default_rng(0)
    specs = tuple(InputSpec(f"x{i}", MarginalDistribution.uniform(0, 1)) for i in range(6))
    ds = Dataset(inputs=rng.random((n, 6)), output=rng.normal(size=n), specs=specs)
    write_dataset_csv(path, ds)  # the first call builds the formatter's tables
    tracemalloc.start()
    try:
        write_dataset_csv(path, ds)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_write_csv_peak_memory_does_not_grow_with_rows(tmp_path):
    # one block of rows is formatted at a time, so the peak at 2e4 rows is
    # about one block's working set, and 4x the rows add less than a quarter
    small = _write_peak(tmp_path / "small.csv", 20_000)
    large = _write_peak(tmp_path / "large.csv", 80_000)
    assert abs(large - small) < small / 4, (small, large)


@pytest.mark.parametrize("cell", ["nan", "-inf", "Infinity", "1e400"])
def test_read_csv_rejects_non_finite_cell_with_location(tmp_path, cell):
    p = tmp_path / "d.csv"
    p.write_text(f"a,b,output\n1,2,3\n4,{cell},6\n7,8,9\n")
    with pytest.raises(UserInputError, match=rf"row 3, column 'b': non-finite cell '{cell}'"):
        read_dataset_csv(p)


def test_read_csv_header_without_rows_rejected_without_warning(tmp_path):
    p = tmp_path / "d.csv"
    for text in ("a,output\n", "a,output\n\n\n"):
        p.write_text(text)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(UserInputError, match="at least 2 data rows"):
                read_dataset_csv(p)
        assert caught == []


def test_read_csv_unreadable_file_names_path(tmp_path):
    p = tmp_path / "missing.csv"
    with pytest.raises(UserInputError, match="cannot read dataset .*missing.csv"):
        read_dataset_csv(p)
    p = tmp_path / "latin1.csv"
    p.write_bytes("a,output\n1,2\n3,4\n# caf\u00e9\n".encode("latin-1"))
    with pytest.raises(UserInputError, match="cannot read dataset .*latin1.csv"):
        read_dataset_csv(p)


def test_categorical_label_needing_quotes_round_trips_byte_stable(tmp_path):
    specs = (
        InputSpec("c", MarginalDistribution.categorical(("a,b", 'say "x"', "z"), (0.5, 0.3, 0.2))),
        InputSpec("u", MarginalDistribution.uniform(0, 1)),
    )
    inputs = np.array([[0.0, 0.125], [1.0, 1 / 3], [2.0, 0.5], [0.0, 1e-300]])
    ds = Dataset(inputs=inputs, output=np.array([1.0, -0.0, 2.5e10, 0.1]), specs=specs)
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    write_dataset_csv(p1, ds, metadata={"seed": 0})
    assert '"a,b",0.125,1.0\n' in p1.read_text()
    back = read_dataset_csv(p1, specs=specs)
    assert back.inputs.tobytes() == ds.inputs.tobytes()
    assert back.output.tobytes() == ds.output.tobytes()
    write_dataset_csv(p2, back, metadata={"seed": 0})
    assert p1.read_bytes() == p2.read_bytes()


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
    assert cfg.binning.n_bins_first == 12
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
    with pytest.raises(UserInputError, match=re.escape(
            "dependence[0].kind must be 'copula' or 'equal_portion', got 'frank'")):
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


def test_load_states_file_categorical_column(tmp_path):
    spec = (
        InputSpec("c", MarginalDistribution.categorical(("u", "v", "w"), (0.2, 0.3, 0.5))),
        InputSpec("x", MarginalDistribution.uniform(0, 1)),
    )
    x = np.column_stack([np.arange(30) % 3, np.linspace(0, 1, 30)]).astype(float)
    ds = Dataset(inputs=x, output=x[:, 0] + x[:, 1], specs=spec)
    p = tmp_path / "states.json"

    def load(states):
        p.write_text(json.dumps([{"input": "c", "states": states}]))
        return load_states_file(p, ds)

    defs = load([{"name": "uv", "levels": ["u", "v"]}, {"levels": ["w"]}])
    assert [(s.label, s.levels) for s in defs[0].states] == [("uv", (0, 1)), ("w", (2,))]
    with pytest.raises(UserInputError, match=r"entry 0, state 1 needs a list of 'levels'"):
        load([{"levels": ["u", "v"]}, {"min": 2, "max": 3}])
    with pytest.raises(UserInputError, match=r"entry 0, state 1: unknown level 'z'"):
        load([{"levels": ["u", "v"]}, {"levels": ["z"]}])
    with pytest.raises(UserInputError, match="entry 0, states for input index 0 do not cover"):
        load([{"levels": ["u"]}, {"levels": ["v"]}])


def test_config_sampling_whole_numbers_may_be_written_as_floats():
    cfg = config_from_dict({"model": "ishigami", "sampling": {"n": 1e5, "seed": 3.0}})
    assert (cfg.sampling.n, cfg.sampling.seed) == (100_000, 3)
    assert type(cfg.sampling.n) is int and type(cfg.sampling.seed) is int


def test_config_bin_counts_may_be_written_as_floats():
    cfg = config_from_dict(
        {"model": "ishigami", "binning": {"n_bins_first": 1e3, "n_bins_second_per_dim": 12.0}}
    )
    assert (cfg.binning.n_bins_first, cfg.binning.n_bins_second_per_dim) == (1000, 12)
    assert type(cfg.binning.n_bins_first) is int
    assert type(cfg.binning.n_bins_second_per_dim) is int
    message = r"binning\.n_bins_first must be an integer >= 2, got 10\.5"
    with pytest.raises(UserInputError, match=message):
        config_from_dict({"model": "ishigami", "binning": {"n_bins_first": 10.5}})


def test_config_seed_is_the_flag_then_sampling_seed_then_the_top_level_seed():
    both = {"model": "ishigami", "seed": 1, "sampling": {"seed": 2}}
    assert config_from_dict(both, overrides={"seed": 3}).sampling.seed == 3
    assert config_from_dict(both).sampling.seed == 2
    assert config_from_dict({"model": "ishigami", "seed": 1}).sampling.seed == 1
    assert config_from_dict({"model": "ishigami"}).sampling.seed == 0
