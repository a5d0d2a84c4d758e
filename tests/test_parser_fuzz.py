"""Hostile input files: the text parsers either return or raise FormatError,
and the CLI ends on any file with exit 0, 1 or 2, never with a traceback."""

import os
import tempfile

from hypothesis import given, settings
from hypothesis import strategies as st

from erdos_rogers import FormatError, graph_from_text
from erdos_rogers.cli import main
from erdos_rogers.hypergraphs import hypergraph_from_text

SETTINGS = settings(max_examples=300, deadline=None, derandomize=True, database=None)

# Near-valid files (small integers, stray tokens, blank lines) and arbitrary
# text; integers stay small so that a parsed file is cheap to search.
TOKENS = st.one_of(
    st.integers(-3, 12).map(str),
    st.sampled_from(["", "x", "-", "1.5", "0x1", "\t", "٣", "9" * 5000]),
)
LINES = st.lists(TOKENS, max_size=4).map(" ".join)
HEADERS = st.lists(st.integers(-3, 12).map(str), min_size=2, max_size=3).map(" ".join)
TEXTS = st.one_of(
    st.tuples(HEADERS, st.lists(LINES, max_size=5)).map(lambda t: "\n".join([t[0], *t[1]])),
    st.lists(LINES, max_size=6).map("\n".join),
    st.text(max_size=30),
)


@SETTINGS
@given(TEXTS)
def test_parsers_return_or_raise_format_error(text):
    for parse in (graph_from_text, hypergraph_from_text):
        try:
            parse(text)
        except FormatError:
            pass


@SETTINGS
@given(TEXTS.map(str.encode) | st.binary(max_size=30))
def test_cli_exit_codes_on_arbitrary_files(data):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "input")
        with open(path, "wb") as fh:
            fh.write(data)
        for argv in (
            ["search", "independent-set", "--in", path],
            ["verify", "subgraph-free", path, "--pattern", "k3"],
            ["verify", "linear", path],
        ):
            assert main(argv) in (0, 1, 2), argv
