"""tools/docab.py on one document in each port order, with the working tree
on both sides: every query is timed on both and prints the same; a tree
that prints otherwise stops it."""

import importlib.util
import shutil
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
spec = importlib.util.spec_from_file_location("docab", ROOT / "tools" / "docab.py")
docab = importlib.util.module_from_spec(spec)
spec.loader.exec_module(docab)

SRC = ROOT / "src"


def _one_document(n_orders: int = 3) -> list:
    """large/small seed 0 in the first ``n_orders`` port orders."""
    return [doc for doc in docab.pool(1) if doc[0] == "large/small"][:n_orders]


def test_one_document_in_each_order_is_timed_on_both_trees(tmp_path):
    docs = _one_document()
    assert [order for _, order, _, _ in docs] == list(docab.ORDERS)
    # the renamings move the probabilistic ports, so every order is a new text
    assert len({text for *_, text in docs}) == 3
    clis = docab.load_sides({"base": SRC, "change": SRC}, tmp_path)
    assert clis["base"].__name__ == "pct_base.cli" and clis["change"].__name__ == "pct_change.cli"
    (tmp_path / "docs").mkdir()
    times = docab.compare(clis, docs, 1, tmp_path / "docs")
    assert list(times) == [("large/small", order, query) for order in docab.ORDERS
                           for query in ("sat", "refine", "compose")]
    for row in times.values():
        assert row["seeds"] == [0] and all(len(row[side]) == 1 and row[side][0] > 0
                                           for side in docab.SIDES)
    lines = docab.table(times)
    assert len(lines) == 10 and lines[1].split()[:3] == ["large/small", "generated", "sat"]


def test_a_tree_that_prints_otherwise_stops_the_comparison(tmp_path):
    changed = tmp_path / "changed"
    shutil.copytree(SRC / "pct", changed / "pct", ignore=shutil.ignore_patterns("__pycache__"))
    cli = changed / "pct" / "cli.py"
    cli.write_text(cli.read_text("utf-8").replace('"level = ', '"level: '), "utf-8")
    clis = docab.load_sides({"base": SRC, "change": changed}, tmp_path / "loaded")
    (tmp_path / "docs").mkdir()
    with pytest.raises(SystemExit, match="sat differs between the trees"):
        docab.compare(clis, _one_document(1), 1, tmp_path / "docs")
