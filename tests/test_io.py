import builtins
import csv
import decimal
import io
import json
import math
import os
import re
import subprocess
import sys
import threading
import time
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import binsa._parse
import binsa._repr
import binsa.binning
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


_LEVELS = ("lo", "a,b", "", " x", "a\rb", 'q"')


def _labelled_dataset(n, seed):
    """n rows: a number of any magnitude, a categorical input whose labels
    need quotes (a comma, a quote, a carriage return), are empty or start
    with a space, and an output of zeros of both signs, exponents and
    integral values."""
    rng = np.random.default_rng(seed)
    specs = (
        InputSpec("u", MarginalDistribution.uniform(0, 1)),
        InputSpec("c", MarginalDistribution.categorical(_LEVELS, (1 / 6,) * 6)),
    )
    u = rng.normal(size=n) * 10.0 ** rng.integers(-20, 20, n)
    y = rng.choice([0.0, -0.0, 1e16, -2.5e-5, 1234.0, 0.1], n) * rng.integers(1, 4, n)
    inputs = np.column_stack([u, rng.integers(0, len(_LEVELS), n)])
    return Dataset(inputs=inputs, output=y, specs=specs)


def _reference_csv(ds, metadata):
    """The dataset file as csv.writer writes it, each number its repr."""
    ref = io.StringIO()
    ref.write("# meta " + json.dumps(metadata) + "\n")
    writer = csv.writer(ref, lineterminator="\n")
    writer.writerow(["u", "c", "output"])
    for (u, c), y in zip(ds.inputs.tolist(), ds.output.tolist()):
        writer.writerow([repr(u), _LEVELS[int(c)], repr(y)])
    return ref.getvalue().encode("utf-8")


def _write_on_a_thread(path, ds):
    """write_dataset_csv(path, ds) run on a thread that must end within a
    minute; returns what it raised, or None."""
    raised = []

    def target():
        try:
            write_dataset_csv(path, ds, metadata={"seed": 5})
        except Exception as exc:
            raised.append(exc)

    thread = threading.Thread(target=target)
    thread.start()
    thread.join(60)
    assert not thread.is_alive(), "the write did not return"
    return raised[0] if raised else None


@pytest.mark.parametrize("cpus", [1, 2, 3, 4])
def test_dataset_csv_is_the_reference_bytes_at_any_worker_count(tmp_path, monkeypatch, cpus):
    # five whole blocks and a short sixth: each worker writes several blocks
    # in turn with the others, one of them the short block, while the
    # interpreter switches threads as often as it can (3 and 4 workers may
    # be more than the host has CPUs)
    ds = _labelled_dataset(5 * binsa.io._ROWS_PER_WRITE + 777, seed=cpus)
    monkeypatch.setattr(binsa.binning, "_usable_cpus", lambda: cpus)
    p = tmp_path / "d.csv"
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        assert _write_on_a_thread(p, ds) is None
    finally:
        sys.setswitchinterval(interval)
    assert p.read_bytes() == _reference_csv(ds, {"seed": 5})


@pytest.mark.parametrize("cpus", [1, 2, 3, 4])
def test_dataset_write_raises_the_first_failed_blocks_error(tmp_path, monkeypatch, cpus):
    # the third and fourth blocks fail, the fourth first: the third block's
    # error surfaces once every worker has stopped, after the two blocks
    # before it and nothing else
    rows = binsa.io._ROWS_PER_WRITE
    ds = _labelled_dataset(6 * rows, seed=1)
    ds = Dataset(inputs=ds.inputs, output=np.arange(6.0 * rows), specs=ds.specs)
    repr_bytes = binsa._repr.repr_bytes

    def failing(values, **kwargs):
        if values[0, -1] == 2 * rows:
            time.sleep(0.05)
            raise ValueError("third block")
        if values[0, -1] == 3 * rows:
            raise ValueError("fourth block")
        return repr_bytes(values, **kwargs)

    monkeypatch.setattr(binsa._repr, "repr_bytes", failing)
    monkeypatch.setattr(binsa.binning, "_usable_cpus", lambda: cpus)
    p = tmp_path / "d.csv"
    exc = _write_on_a_thread(p, ds)
    assert isinstance(exc, ValueError) and str(exc) == "third block"
    assert threading.active_count() == 1
    two_blocks = Dataset(inputs=ds.inputs[:2 * rows], output=ds.output[:2 * rows], specs=ds.specs)
    assert p.read_bytes() == _reference_csv(two_blocks, {"seed": 5})


class _FileFailingOnWrite:
    """A binary file whose write number fail_at raises a full-disk OSError."""

    def __init__(self, path, mode, fail_at):
        self.fh, self.writes, self.fail_at = builtins.open(path, mode), 0, fail_at

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.fh.close()

    def write(self, data):
        self.writes += 1
        if self.writes == self.fail_at:
            raise OSError(28, "No space left on device")
        return self.fh.write(data)


@pytest.mark.parametrize("cpus", [1, 2, 3, 4])
def test_dataset_write_raises_a_failed_file_write(tmp_path, monkeypatch, cpus):
    # the header is write 1 and each block takes one: write 6 is the fifth
    # block's
    ds = _labelled_dataset(6 * binsa.io._ROWS_PER_WRITE, seed=2)
    monkeypatch.setattr(binsa.io, "open", lambda path, mode: _FileFailingOnWrite(path, mode, 6),
                        raising=False)
    monkeypatch.setattr(binsa.binning, "_usable_cpus", lambda: cpus)
    exc = _write_on_a_thread(tmp_path / "d.csv", ds)
    assert isinstance(exc, OSError) and exc.errno == 28
    assert threading.active_count() == 1


def test_dataset_write_starts_no_thread_on_one_cpu_and_one_fewer_than_its_workers_on_more(
    tmp_path,
):
    src = os.path.dirname(os.path.dirname(binsa.__file__))
    code = (
        "import sys, threading\n"
        "import numpy as np\n"
        "from binsa import Dataset, InputSpec, MarginalDistribution, binning, write_dataset_csv\n"
        "starts = []\n"
        "start = threading.Thread.start\n"
        "threading.Thread.start = lambda self: starts.append(self) or start(self)\n"
        "specs = (InputSpec('a', MarginalDistribution.uniform(0, 1)),)\n"
        "x = np.random.default_rng(1).random((9 * 2048 + 1, 2))  # 10 blocks\n"
        "ten = Dataset(inputs=x[:, :1], output=x[:, 1], specs=specs)\n"
        "one = Dataset(inputs=x[:2048, :1], output=x[:2048, 1], specs=specs)\n"
        "for cpus, ds, threads in ((1, ten, 0), (4, one, 0), (2, ten, 1), (3, ten, 2),\n"
        "                          (4, ten, 3), (16, ten, 7)):\n"
        "    binning._usable_cpus = lambda: cpus\n"
        "    del starts[:]\n"
        "    write_dataset_csv(sys.argv[1], ds)\n"
        "    assert len(starts) == threads, (cpus, starts)\n"
        "    assert threading.active_count() == 1, 'thread left running'\n"
    )
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", code, str(tmp_path / "d.csv")], env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_dataset_read_starts_no_thread_on_one_cpu_or_a_short_file_and_at_most_seven_at_once(
    tmp_path,
):
    # _SCAN_BYTES is patched to 1 KiB and each row is 27 bytes. The bytes in
    # flight are a sixteenth of the data, so 1213 rows, just under 32 scan
    # lengths (2 MiB at 64 KiB), put less than two scan lengths in flight:
    # one worker and no thread; 1214 rows are just over. A read starts its
    # threads in turn and then joins them, so a run of starts between joins
    # is the threads of one read
    src = os.path.dirname(os.path.dirname(binsa.__file__))
    code = (
        "import sys, threading\n"
        "import binsa.io\n"
        "from binsa import binning, read_dataset_csv\n"
        "binsa.io._SCAN_BYTES = 1024\n"
        "events = []\n"
        "start, join = threading.Thread.start, threading.Thread.join\n"
        "def counted_start(self):\n"
        "    start(self)\n"
        "    events.append(threading.active_count() - 1)  # helpers alive, this one too\n"
        "threading.Thread.start = counted_start\n"
        "threading.Thread.join = lambda self, *args: events.append(None) or join(self, *args)\n"
        "for cpus, rows, per_round in ((1, 20000, 0), (16, 1213, 0), (16, 1214, 1),\n"
        "                              (2, 20000, 1), (4, 20000, 3), (16, 20000, 7)):\n"
        "    with open(sys.argv[1], 'w') as fh:\n"
        "        fh.write('a,b,output\\n')\n"
        "        fh.writelines(f'{i % 9 + 1}.{i:06d},{i % 7 + 1}.{i:06d},{i % 5 + 1}.{i:06d}\\n'\n"
        "                      for i in range(rows))\n"
        "    binning._usable_cpus = lambda: cpus\n"
        "    del events[:]\n"
        "    ds = read_dataset_csv(sys.argv[1])\n"
        "    assert ds.n_rows == rows and ds.output[-1] == float(f'{(rows - 1) % 5 + 1}.{rows - 1:06d}')\n"
        "    runs = ''.join('j' if e is None else 's' for e in events).split('j')\n"
        "    rounds = [len(run) for run in runs if run]\n"
        "    assert max(rounds, default=0) == per_round, (cpus, rows, rounds)\n"
        "    alive = [e for e in events if e is not None]\n"
        "    assert max(alive, default=0) <= min(cpus, 8) - 1, (cpus, rows, alive)\n"
        "    assert threading.active_count() == 1, 'thread left running'\n"
    )
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", code, str(tmp_path / "d.csv")], env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


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
    p.write_text("output\n1\n2\n")
    with pytest.raises(UserInputError,
                       match="need at least one input column and one output column"):
        read_dataset_csv(p)
    # a binsa MC or QMC sample's '# meta' line promises its n rows when n is
    # a whole number; an FFD sample's n is a budget, another tool's line
    # promises nothing, and nor does an n that is a string, a bool or a
    # fraction
    rows = "a,output\n1,2\n3,4\n\n# note\n5,6\n"
    for sampler, n in (("MC", "4"), ("QMC", "4"), ("MC", "4.0"), ("QMC", "4e0")):
        p.write_text(f'# meta {{"n": {n}, "sampler": "{sampler}", "tool": "binsa"}}\n' + rows)
        with pytest.raises(UserInputError) as caught:
            read_dataset_csv(p)
        assert str(caught.value) == f"{p}: 3 data rows, but its '# meta' line promises 4"
    for meta in ('{"n": 4, "sampler": "FFD", "tool": "binsa"}',
                 '{"n": 4, "sampler": "QMC", "tool": "other"}', "{not json",
                 '{"n": "4", "sampler": "MC", "tool": "binsa"}',
                 '{"n": "3", "sampler": "MC", "tool": "binsa"}',
                 '{"n": true, "sampler": "QMC", "tool": "binsa"}',
                 '{"n": 3.5, "sampler": "MC", "tool": "binsa"}',
                 '{"n": Infinity, "sampler": "MC", "tool": "binsa"}'):
        p.write_text(f"# meta {meta}\n" + rows)
        assert read_dataset_csv(p).n_rows == 3


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
        ("\ufeffa,b,output\n1.5,-2,0.25\n3,4e-3,5\n-0.0,7,8\n", True),
        ("\ufeff# meta {}\r\na,b,output\r\n1.5,-2,0.25\r\n3,4e-3,5\r\n-0.0,7,8\r\n", True),
    ],
    ids=["plain", "blank-lines", "crlf", "padded", "comment-lines", "quoted", "underscore",
         "two-line-header", "byte-order-mark", "byte-order-mark-meta-crlf"],
)
def test_bulk_and_checked_reads_agree_bitwise(tmp_path, monkeypatch, text, bulk):
    p = tmp_path / "d.csv"
    p.write_bytes(text.encode())
    fast, used_bulk, loop = _read_both_ways(p, monkeypatch)
    assert used_bulk == bulk
    assert fast.specs == loop.specs
    assert fast.inputs.tobytes() == loop.inputs.tobytes()
    assert fast.output.tobytes() == loop.output.tobytes()


@pytest.mark.parametrize("head", ["\n", '# meta {"seed": 1}\n\n', "\r\n\r\n"],
                         ids=["blank-line", "meta-then-blank-line", "crlf-blank-lines"])
def test_blank_lines_before_the_header_are_skipped(tmp_path, monkeypatch, head):
    # by both readers, as blank lines between rows are
    text = "a,b,output\n1.5,-2,0.25\n3,4e-3,5\n-0.0,7,8\n"
    p = tmp_path / "d.csv"
    p.write_text(text, newline="")
    want = read_dataset_csv(p)
    p.write_text(head + text, newline="")
    fast, used_bulk, loop = _read_both_ways(p, monkeypatch)
    assert used_bulk
    for got in (fast, loop):
        assert got.specs == want.specs
        assert got.inputs.tobytes() == want.inputs.tobytes()
        assert got.output.tobytes() == want.output.tobytes()


def test_read_csv_drops_a_utf8_byte_order_mark(tmp_path, monkeypatch):
    # Excel's "CSV UTF-8" starts the file with EF BB BF, before the header or
    # before a '#' line
    p = tmp_path / "d.csv"
    for head in ("", "# meta {}\n"):
        p.write_bytes(b"\xef\xbb\xbf" + (head + "a,b,output\n1,2,3\n4,5,6\n").encode())
        fast, used_bulk, loop = _read_both_ways(p, monkeypatch)
        assert used_bulk
        assert fast.names == loop.names == ("a", "b")
        assert fast.output.tolist() == loop.output.tolist() == [3.0, 6.0]


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


_SIGNS = st.sampled_from(["", "+", "-"])


@st.composite
def _decimals(draw):
    """A decimal string that float() reads: 1 to 25 digits after up to 3
    leading zeros, a point anywhere or none ("5", ".5", "5.", "5.5"), and an
    exponent from -350 to 350 or none."""
    digits = "0" * draw(st.integers(0, 3)) + draw(st.text("0123456789", min_size=1, max_size=25))
    point = draw(st.one_of(st.none(), st.integers(0, len(digits))))
    if point is not None:
        digits = digits[:point] + "." + digits[point:]
    exponent = draw(st.one_of(st.none(), st.integers(-350, 350)))
    if exponent is not None:
        sign = "-" if exponent < 0 else draw(st.sampled_from(["", "+"]))
        digits += draw(st.sampled_from("eE")) + sign + str(abs(exponent))
    return draw(_SIGNS) + digits


def _near_midpoint(x, digits):
    """The midpoint between the double x > 0 and the next, rounded to digits
    significant digits: a decimal whose double is decided in its last bits."""
    mid = (Fraction(x) + Fraction(math.nextafter(x, math.inf))) / 2
    return str(decimal.Context(prec=digits).divide(mid.numerator, mid.denominator))


_CELLS = st.one_of(
    # repr of any finite double: subnormals, -0.0 and 1e+300 included
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    _decimals(),
    st.builds(_near_midpoint, st.floats(1e-300, 1e300), st.integers(17, 19)),
    # m * 10**q near the ends of the exact long double powers, |q| 20 to 27
    st.builds("{}{}e{}".format, _SIGNS, st.integers(1, 2**64 - 1),
              st.integers(20, 27) | st.integers(-27, -20)),
)


@pytest.mark.parametrize("long_double", [True, False], ids=["long-double", "float-fallback"])
@settings(max_examples=200, deadline=None, derandomize=True)
@given(cells=st.lists(_CELLS, min_size=1, max_size=40))
def test_bulk_read_is_bitwise_float_of_each_cell(tmp_path_factory, long_double, cells):
    # without the long double step every cell that Clinger's fast path does
    # not settle goes to float(), as on a platform without x87 long double
    p = tmp_path_factory.mktemp("csv") / "d.csv"
    p.write_text("a,output\n" + "".join(f"{c},{i}\n" for i, c in enumerate(cells + ["0"])))
    expected = [float(c) for c in cells + ["0"]]
    with pytest.MonkeyPatch.context() as m:
        if not long_double:
            m.setattr(binsa._parse, "_LONG_DOUBLE", False)
        fast, used_bulk, loop = _read_both_ways(p, pytest.MonkeyPatch(), read=_read_or_error)
    assert fast == loop
    assert used_bulk == all(math.isfinite(v) for v in expected)
    if used_bulk:
        assert fast[1] == np.array(expected).tobytes()


def test_bulk_read_is_the_same_for_any_chunk_size_and_worker_count(tmp_path):
    # rows straddle the cuts between chunks; a '#' line, a blank line,
    # "\r\n" ends and lone "\r" ends fall on some cuts; the shortest chunks
    # hold less than one line, and one line, ended by a lone "\r" on a cut
    # of the 4096-byte chunks, is longer than three of them, so a chunk
    # reads past its worker's buffer; the last line has no line end. Three
    # workers on a short switch interval interleave as much as they can.
    x = np.random.default_rng(3).normal(size=(600, 3)) * 10.0 ** np.arange(-5, 10, 5)
    lines = [",".join(map(repr, row)) + ("\r" if i % 3 else "\r\n") for i, row in enumerate(x.tolist())]
    x[10, 0] = 1.5
    rest = lines[10][lines[10].index(","):]
    lines[10] = "1.5".ljust(4 * 4096 + 1 - len("".join(lines[:10])) - len(rest), "0") + rest
    lines[300:300] = ["# note, with a comma\r\n", "\r\n"]
    lines[-1] = lines[-1].rstrip()
    data = "".join(lines).encode()
    lone_cr_cuts = {chunk: [at for at in range(chunk, len(data), chunk)
                            if data[at] == ord("\r") and data[at + 1] != ord("\n")]
                    for chunk in (13, 100, 4096)}
    assert len(lines[10]) > 3 * 4096 and 4 * 4096 in lone_cr_cuts[4096]
    assert all(lone_cr_cuts.values()), lone_cr_cuts
    p = tmp_path / "d.csv"
    p.write_bytes(data)
    want = x.tobytes(order="F")
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for chunk in (13, 100, 1000, 4096, 1 << 16):
            for workers in (1, 2, 3):
                with open(p, "rb") as raw:
                    rows = binsa._parse.read_rows(raw, 3, chunk, workers)
                assert rows.flags.f_contiguous, (chunk, workers)
                assert rows.tobytes(order="F") == want, (chunk, workers)
    finally:
        sys.setswitchinterval(interval)


class _CountingFile:
    """A binary file that counts how often readinto gives each of its bytes."""

    def __init__(self, path):
        self.fh = open(path, "rb")
        self.reads = np.zeros(os.path.getsize(path), dtype=np.int64)

    def tell(self):
        return self.fh.tell()

    def seek(self, at):
        return self.fh.seek(at)

    def readinto(self, buf):
        at = self.fh.tell()
        got = self.fh.readinto(buf)
        self.reads[at:at + got] += 1
        return got


def test_bulk_read_reads_each_byte_of_the_body_twice(tmp_path):
    # once to count the lines and cut the runs, once in its run; one line,
    # longer than a worker's buffer at the 4096-byte chunks, is read into a
    # buffer of its own, and the last line has no line end
    x = np.random.default_rng(4).normal(size=(500, 3))
    lines = [",".join(map(repr, row)) + ("\r\n" if i % 3 else "\n")
             for i, row in enumerate(x.tolist())]
    x[200, 0] = 1.0
    lines[200] = "1." + "0" * 9000 + lines[200][lines[200].index(","):]
    lines[-1] = lines[-1].rstrip()
    header = b"a,b,output\n"
    p = tmp_path / "d.csv"
    p.write_bytes(header + "".join(lines).encode())
    for chunk in (13, 100, 4096):
        for workers in (1, 2, 3):
            raw = _CountingFile(p)
            with raw.fh:
                raw.seek(len(header))
                rows = binsa._parse.read_rows(raw, 3, chunk, workers)
            assert rows.tobytes(order="F") == x.tobytes(order="F"), (chunk, workers)
            assert not raw.reads[:len(header)].any(), (chunk, workers)
            assert (raw.reads[len(header):] == 2).all(), (chunk, workers, np.unique(raw.reads))


def test_bulk_read_of_exponents_in_one_chunk_is_bitwise_float(tmp_path):
    # the exponent's scan runs only on the cells that have one: here one row
    # holds them all, so every other chunk has none; a cell whose exponent
    # has no digits is still declined
    rng = np.random.default_rng(5)
    cells = [[repr(v) for v in row] for row in (rng.uniform(-1e3, 1e3, size=(600, 3))).tolist()]
    cells[399] = ["1.5e-300", "-6.02214076E+23", "7e0"]
    cells[400] = ["2.5e-5", "1E22", "-1e-400"]
    cells[401] = ["0.0e+123456", "4.9e-324", "+1.7976931348623157e308"]
    assert sum("e" in c.lower() for row in cells for c in row) == 9
    p = tmp_path / "d.csv"
    p.write_text("".join(",".join(row) + "\n" for row in cells))
    want = np.array([[float(c) for c in row] for row in cells]).tobytes(order="F")
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for chunk in (13, 100, 1000, 4096, 1 << 16):
            for workers in (1, 2, 3):
                with open(p, "rb") as raw:
                    rows = binsa._parse.read_rows(raw, 3, chunk, workers)
                assert rows.tobytes(order="F") == want, (chunk, workers)
    finally:
        sys.setswitchinterval(interval)
    for bad in ("1e", "1e+", "-2.5E-", "3e,", "4e 5"):
        cells[400][1] = bad.rstrip(",")
        p.write_text("".join(",".join(row) + "\n" for row in cells))
        for workers in (1, 3):
            with open(p, "rb") as raw:
                assert binsa._parse.read_rows(raw, 3, 4096, workers) is None, (bad, workers)


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


def test_write_csv_peak_memory_is_bounded_in_cpus(tmp_path, monkeypatch):
    # each worker formats into buffers of its own, so the peak grows with
    # the workers, at most _MAX_WORKERS of them: with any number of CPUs it
    # stays below _MAX_WORKERS + 1 times the one-CPU peak
    peaks = {}
    for cpus in (1, 8, 64):
        monkeypatch.setattr(binsa.binning, "_usable_cpus", lambda cpus=cpus: cpus)
        peaks[cpus] = _write_peak(tmp_path / "d.csv", 20_000)
    bound = (binsa.binning._MAX_WORKERS + 1) * peaks[1]
    assert peaks[8] < bound and peaks[64] < bound, peaks


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


@pytest.mark.parametrize("head, bad, tail, row", [
    (b"a,b,output\r1,2,3\r", b"4,caf\xe9,6\r", b"7,8,9\r", 3),
    (b"a,b,output\r\n" + b"".join(b"%d,%d,%d\r\n" % (i, i % 7, i * i) for i in range(1000)),
     b"# caf\xe9\r\n", b"1,2,3\r\n4,5,6\r\n", 1002),
], ids=["cell-in-first-8-KiB", "hash-line-past-8-KiB"])
def test_read_csv_names_the_row_that_is_not_utf8(tmp_path, monkeypatch, head, bad, tail, row):
    # the text reader decodes 8 KiB ahead, so its error's offset is no place
    # in the file; a '#' line past the header also takes the bulk parser's
    # decline
    results = []
    blank_comments = binsa._parse._blank_comments

    def spy(buf, lo, hi):
        results.append(blank_comments(buf, lo, hi))
        return results[-1]

    monkeypatch.setattr(binsa._parse, "_blank_comments", spy)
    p = tmp_path / "d.csv"
    p.write_bytes(head + bad + tail)
    with pytest.raises(UserInputError) as caught:
        read_dataset_csv(p)
    assert str(caught.value) == (
        f"cannot read dataset {p}: row {row} is not UTF-8 ('utf-8' codec can't decode byte "
        f"0xe9 in position {bad.index(0xE9)}: invalid continuation byte)")
    assert (False in results) == (len(head) > 8192)


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


def _hash_led_dataset(n, name, levels):
    """n rows: a first input named name, categorical over levels if any,
    else uniform, then a uniform input."""
    rng = np.random.default_rng(7)
    inputs = rng.random((n, 2))
    if levels:
        first = MarginalDistribution.categorical(levels, (1 / len(levels),) * len(levels))
        inputs[:, 0] = rng.integers(0, len(levels), n)
    else:
        first = MarginalDistribution.uniform(0, 1)
    specs = (InputSpec(name, first), InputSpec("v", MarginalDistribution.uniform(0, 1)))
    return Dataset(inputs=inputs, output=inputs.sum(axis=1), specs=specs)


@pytest.mark.parametrize("name, levels, line", [
    ("#pump", None, '"#pump",v,output\n'),
    ("c", ("#a", "b"), '"#a",'),
], ids=["first-name", "first-column-label"])
def test_a_leading_hash_is_quoted_so_no_row_reads_as_a_comment(tmp_path, name, levels, line):
    # unquoted, the header or a row would start with '#' and both readers
    # would skip it as a comment
    ds = _hash_led_dataset(300, name, levels)
    p = tmp_path / "d.csv"
    write_dataset_csv(p, ds, metadata={"seed": 0})
    assert line in p.read_text()
    back = read_dataset_csv(p, specs=ds.specs)
    assert back.names == ds.names
    assert back.inputs.tobytes() == ds.inputs.tobytes()
    assert back.output.tobytes() == ds.output.tobytes()
    if levels is None:
        assert read_dataset_csv(p).inputs.tobytes() == ds.inputs.tobytes()


@pytest.mark.parametrize("specs_names, header", [
    (("u", "v"), "v,u,output"),
    (("u", "v"), "u,output"),
], ids=["reordered", "missing-column"])
def test_read_csv_with_specs_names_both_input_lists(tmp_path, specs_names, header):
    specs = tuple(InputSpec(nm, MarginalDistribution.uniform(0, 1)) for nm in specs_names)
    p = tmp_path / "d.csv"
    n_cols = header.count(",") + 1
    p.write_text(header + "\n" + "".join(",".join([f"0.{i}"] * n_cols) + "\n"
                                         for i in range(1, 5)))
    inputs = header.split(",")[:-1]
    with pytest.raises(UserInputError) as caught:
        read_dataset_csv(p, specs=specs)
    assert str(caught.value) == (f"{p}: the header's inputs {inputs} are not the specs' "
                                 f"{list(specs_names)}")


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
    assert cfg.model == get_model("ishigami", a=5.0) and cfg.specs == default_specs(cfg.model)
    assert cfg.dependence[0].rho == 0.5
    with pytest.raises(UserInputError, match=re.escape(
            "dependence[0].kind must be 'copula' or 'equal_portion', got 'frank'")):
        config_from_dict({"model": "ishigami", "dependence": [{"kind": "frank", "pair": [0, 1]}]})


def test_config_resolves_the_model_and_its_specs_once():
    cfg = config_from_dict({"model": {"name": "ishigami", "a": 5}})
    assert cfg.model == get_model("ishigami", a=5.0)
    assert cfg.specs == default_specs(cfg.model)
    # the law reaches the specs, and a dataset config has neither
    cfg = config_from_dict({"model": "toy_portfolio", "law": "uniform"})
    assert cfg.specs == default_specs(get_model("toy_portfolio"), "uniform")
    cfg = config_from_dict({"dataset": "d.csv"})
    assert cfg.model is None and cfg.specs is None


@pytest.mark.parametrize("params", [{"a": "5"}, {"a": float("nan")}, {"c": 1.0}])
def test_a_bad_model_parameter_fails_at_config_time_with_get_models_message(params):
    with pytest.raises(ValueError) as expected:
        get_model("ishigami", **params)
    with pytest.raises(UserInputError, match=f"^{re.escape(str(expected.value))}$"):
        config_from_dict({"model": {"name": "ishigami", **params}})


def test_a_dependence_pair_the_model_cannot_take_fails_at_config_time():
    copula = {"kind": "copula", "pair": [0, 1], "rho": 0.5}
    with pytest.raises(UserInputError, match=re.escape(
            "dependence[0].pair names input 0 ('Ps'), which is not uniform; "
            "dependence needs uniform marginals")):
        config_from_dict({"model": "toy_portfolio", "dependence": [copula]})
    with pytest.raises(UserInputError, match=re.escape(
            "dependence[1].pair names input 7; the inputs are 0..5")):
        config_from_dict({"model": "toy_portfolio", "law": "uniform",
                          "dependence": [copula, {**copula, "pair": [7, 0]}]})
    # the uniform law gives the toy portfolio uniform inputs
    cfg = config_from_dict({"model": "toy_portfolio", "law": "uniform", "dependence": [copula]})
    assert cfg.dependence[0].pair == (0, 1)


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
    with pytest.raises(UserInputError, match=r"^states file entry 0, state 1: unknown key 'max'$"):
        load([{"levels": ["u", "v"]}, {"levels": ["w"], "max": 3}])


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
