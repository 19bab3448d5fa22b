"""The README's Python snippets run, its import block is binsa's API, and
its table of config keys is the config parser's.

Every ```python block of README.md runs in order in one namespace, in a
temporary directory (a snippet writes a dataset file).
"""

import os
import re

import binsa
from binsa.io import _FLAGS, _KEYS

README = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "README.md")
with open(README, encoding="utf-8") as fh:
    TEXT = fh.read()
BLOCKS = re.findall(r"^```python\n(.*?)^```$", TEXT, re.M | re.S)


def test_readme_python_blocks_run(tmp_path, monkeypatch, capsys):
    assert len(BLOCKS) >= 2
    monkeypatch.chdir(tmp_path)
    namespace = {}
    for block in BLOCKS:
        exec(compile(block, README, "exec"), namespace)
    assert capsys.readouterr().out


def test_binsa_exports_exactly_the_readme_import_block():
    block = re.search(r"^from binsa import \((.*?)\)", TEXT, re.M | re.S).group(1)
    documented = {name.strip() for name in block.split(",") if name.strip()}
    assert set(binsa.__all__) - {"__version__"} == documented
    assert len(binsa.__all__) == len(set(binsa.__all__))
    assert all(hasattr(binsa, name) for name in binsa.__all__)


def test_readme_config_table_lists_exactly_the_config_keys_and_their_flags():
    section = TEXT.split("\n### Config keys\n", 1)[1].split("\n#", 1)[0]
    rows = [
        [cell.strip().strip("`") for cell in line.strip("|").split("|")]
        for line in section.splitlines()
        if line.startswith("| `")
    ]
    assert [row[0] for row in rows] == list(_KEYS)
    assert {row[3]: row[0] for row in rows if row[3]} == _FLAGS
