"""tools/stages.py on one document: every stage of every query is timed."""

import importlib.util
from pathlib import Path

from pct import speclang

ROOT = Path(__file__).resolve().parents[1]
spec = importlib.util.spec_from_file_location("stages", ROOT / "tools" / "stages.py")
stages = importlib.util.module_from_spec(spec)
spec.loader.exec_module(stages)


def test_one_document_times_each_stage_and_restores_the_program():
    parse = speclang._Parser.document
    times = stages.stage_times([("large", "small", 0)], repeats=1)
    assert speclang._Parser.document is parse
    assert list(times) == ["sat", "refine", "compose"]
    for query, columns in times.items():
        assert list(columns) == list(stages.COLUMNS)
        assert all(len(ms) == 1 and ms[0] >= 0 for name, ms in columns.items()
                   if name != "other"), query
        # every query parses, builds and computes a level
        assert all(columns[name][0] > 0 for name in
                   ("tokenize", "descent", "resolve", "build", "level", "query")), query
    # only compose prints a document
    assert times["compose"]["print"][0] > 0 and times["sat"]["print"][0] == 0
    lines = stages.table(times, "one document")
    assert lines[0] == "one document" and len(lines) == 5
    assert lines[1].split() == ["query", *stages.COLUMNS]


def test_times_split_by_family_and_size_keep_the_order_of_the_documents():
    docs = [("large", "full", 0), ("wide", "full", 0), ("large", "full", 1), ("wide", "small", 0)]
    times = {q: {c: [float(i) for i in range(len(docs))] for c in stages.COLUMNS}
             for q in stages.QUERIES}
    parts = stages.by_family(times, docs)
    assert list(parts) == [("large", "full"), ("wide", "full"), ("wide", "small")]
    assert parts["large", "full"]["sat"]["level"] == [0.0, 2.0]
    assert parts["wide", "small"]["compose"]["query"] == [3.0]
    assert all(list(part) == list(stages.QUERIES) for part in parts.values())
