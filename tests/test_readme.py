"""README.md's claims, rerun: its quick-start code and its table of fuzz types."""

import random
import re
from collections import Counter
from pathlib import Path

from hecke3.classify import TYPE_LABELS, classify
from hecke3.fields import GF, QQ
from hecke3.heckecore import build_R
from hecke3.verifier import sample_strategy_a, sample_strategy_b

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
FIELDS = {"Q": QQ, "F_7": GF(7), "F_1000003": GF(1_000_003)}


def test_the_quick_start_block_runs():
    blocks = re.findall(r"^```python\n(.*?)^```$", README, re.M | re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], "README.md", "exec"), {})


def _table():
    """{(strategy, field name): counts of Type1..Type8} as README's fuzz type table states."""
    rows = {}
    for strategy, fields, counts in re.findall(r"^\| ([AB]), ([^|]+?) +\|((?: *\d+ *\|){8})$",
                                               README, re.M):
        for name in FIELDS if fields == "each of the three" else [fields]:
            rows[strategy, name] = [int(c) for c in counts.strip(" |").split("|")]
    return rows


def test_the_fuzz_type_table_is_what_classify_reads():
    """Labels of trials 0-59 of seed 1, each trial's stream derived as ``fuzz`` derives it."""
    table = _table()
    assert set(table) == {(s, name) for s in "AB" for name in FIELDS}
    for (strategy, name), counts in table.items():
        sampler = sample_strategy_a if strategy == "A" else sample_strategy_b
        labels = Counter(classify(build_R(sampler(FIELDS[name], random.Random(
            1 * 1_000_003 + trial)))).label for trial in range(60))
        assert [labels[label] for label in TYPE_LABELS] == counts, (strategy, name)
