"""Tests for the CSV table codec and the readers built on it."""

from __future__ import annotations

import ast
import locale
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import sps_bb84
from sps_bb84._table import read_table, write_table
from sps_bb84.keyrate import read_dataset_csv
from sps_bb84.montecarlo import read_tags_csv
from sps_bb84.params import ParameterError
from sps_bb84.polcomp import read_trace_csv
from sps_bb84.tagproc import read_histogram_csv

#: every public reader with the header it expects
READERS = (
    (read_dataset_csv, "label,mean_photon_number,g2_zero"),
    (read_tags_csv, "time_ps,channel,truth_state,truth_photons,dark"),
    (read_histogram_csv, "delay_ps,counts"),
    (read_trace_csv, "time_s,drift_angle,residual_qber,probes_used"),
)

# no surrogates (not encodable) and no NUL (rejected by the csv module
# before Python 3.11)
_TEXT = st.characters(blacklist_categories=("Cs",), blacklist_characters="\0")

#: cells that the readers' parsers accept or nearly accept
_CELLS = st.one_of(
    st.sampled_from(
        [
            "", "0", "1", "2", "3", "4", "-1", "7", "12.5", "1e3", "nan",
            "inf", "-inf", "abc", "H", "V", "D", "A", "REF", "Q", " 1",
            '"', "9" * 25, "-" + "9" * 19, "4386", "8772",
        ]
    ),
    st.text(_TEXT, max_size=4),
)
_BODIES = st.one_of(
    st.text(_TEXT, max_size=60),
    st.lists(st.lists(_CELLS, max_size=6), max_size=8).map(
        lambda rows: "\n".join(",".join(row) for row in rows)
    ),
)


def test_only_the_codec_imports_csv():
    package = Path(sps_bb84.__file__).parent
    importers = set()
    for module in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(module.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            if "csv" in names:
                importers.add(module.name)
    assert importers == {"_table.py"}


@pytest.mark.parametrize("reader,header", READERS)
@settings(
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(body=_BODIES)
def test_readers_raise_only_parameter_errors(tmp_path, reader, header, body):
    path = tmp_path / "table.csv"
    path.write_text(f"{header}\n{body}", encoding="utf-8")
    try:
        reader(path)
    except ParameterError:
        pass


@settings(max_examples=150, deadline=None)
@given(rows=st.lists(st.tuples(st.text(_TEXT), st.text(_TEXT)), max_size=6))
def test_text_cells_round_trip(tmp_path_factory, rows):
    path = tmp_path_factory.mktemp("table") / "cells.csv"
    write_table(path, ("left", "right"), rows)
    assert read_table(path, "cells", ("left", "right"), (str, str)) == [
        [left for left, _ in rows],
        [right for _, right in rows],
    ]


def test_quoted_cells_round_trip_exactly(tmp_path):
    path = tmp_path / "cells.csv"
    rows = [('a, "b"', "line\r\nbreak"), ("", " padded ")]
    write_table(path, ("left", "right"), rows)
    assert path.read_bytes().startswith(b"left,right\r\n")
    assert read_table(path, "cells", ("left", "right"), (str, str)) == [
        ['a, "b"', ""],
        ["line\r\nbreak", " padded "],
    ]


def test_header_cells_are_stripped(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text(" a , b\n1,2\n")
    assert read_table(path, "t", ("a", "b"), (int, int)) == [[1], [2]]


def test_wrong_header_names_the_table(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("a,c\n1,2\n")
    with pytest.raises(ParameterError, match=r"^t: t CSV header must be a,b"):
        read_table(path, "t", ("a", "b"), (int, int))


def test_empty_file_is_a_header_error(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("")
    with pytest.raises(ParameterError, match="header"):
        read_table(path, "t", ("a", "b"), (int, int))


def test_bad_row_index_counts_blank_rows(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("a,b\n1,2\n\n3,x\n")
    with pytest.raises(ParameterError, match=r"^t\[2\]: invalid literal"):
        read_table(path, "t", ("a", "b"), (int, int))


def test_bad_row_is_found_past_the_first_chunk(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("a,b\n" + "1,2\n" * 1000 + "3\n" + "4,5\n" * 10)
    with pytest.raises(ParameterError, match=r"^t\[1000\]: expected 2"):
        read_table(path, "t", ("a", "b"), (int, int))


def test_unknown_key_is_named(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("a\nx\ny\n")
    with pytest.raises(ParameterError, match=r"^t\[1\]: unknown value 'y'"):
        read_table(path, "t", ("a",), ({"x": 0}.__getitem__,))


def test_csv_error_is_a_parameter_error(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text('a,b\n"' + "x" * 200_000 + '",1\n')
    with pytest.raises(ParameterError, match=r"^t: unreadable near line"):
        read_table(path, "t", ("a", "b"), (str, int))


@pytest.mark.skipif(
    "utf" not in locale.getpreferredencoding(False).lower().replace("-", ""),
    reason="files are read in the locale's encoding",
)
def test_undecodable_bytes_are_a_parameter_error(tmp_path):
    path = tmp_path / "t.csv"
    path.write_bytes(b"a,b\n\xff\xfe,1\n")
    with pytest.raises(ParameterError, match=r"^t: unreadable"):
        read_table(path, "t", ("a", "b"), (str, int))
