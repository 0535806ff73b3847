import re

import pytest

from kgreason.kvio import UsageError, read_kv, write_kv


def test_round_trip(tmp_path):
    path = tmp_path / "c.conf"
    mapping = {"dim": 32, "lr": 0.1, "model": "complex-bilinear"}
    write_kv(path, mapping)
    assert read_kv(path) == {"dim": "32", "lr": "0.1", "model": "complex-bilinear"}


def test_comments_and_blank_lines(tmp_path):
    path = tmp_path / "c.conf"
    path.write_text("# a comment\n\nkey = value\n   # indented comment\n")
    assert read_kv(path) == {"key": "value"}


def test_whitespace_trimmed(tmp_path):
    path = tmp_path / "c.conf"
    path.write_text("  spaced   =   out  \n")
    assert read_kv(path) == {"spaced": "out"}


def test_value_may_contain_equals(tmp_path):
    path = tmp_path / "c.conf"
    path.write_text("expr = a = b\n")
    assert read_kv(path) == {"expr": "a = b"}


def test_malformed_line_reports_position(tmp_path):
    path = tmp_path / "c.conf"
    path.write_text("fine = 1\nnot a pair\n")
    with pytest.raises(ValueError, match=":2"):
        read_kv(path)


@pytest.mark.parametrize("text", ["epochs = 3\nepochs = 4\n", "epochs = 3\n# x\n  epochs=3\n"],
                         ids=["other value", "same value"])
def test_a_key_given_twice_names_file_line_and_key(tmp_path, text):
    path = tmp_path / "c.conf"
    path.write_text(text)
    with pytest.raises(UsageError) as err:
        read_kv(path)
    assert str(err.value) == f"{path}:{text.count(chr(10))}: key 'epochs' is given twice"
    assert isinstance(err.value, ValueError)


def test_utf8_and_line_breaks_read_as_before(tmp_path):
    path = tmp_path / "c.conf"
    path.write_bytes(b"a = caf\xc3\xa9\r\nb = 2\rc = 3\x0cd = 4\n")
    assert read_kv(path) == {"a": "caf\u00e9", "b": "2", "c": "3", "d": "4"}


@pytest.mark.parametrize("raw", [b"\xa9", b"\xc3(", b"\xed\xa0\x80"],
                         ids=["stray", "truncated", "surrogate"])
def test_bad_utf8_names_file_and_line(tmp_path, raw):
    path = tmp_path / "c.conf"
    path.write_bytes(b"a = 1\r\nb = " + raw + b"\nc = 3\n")
    with pytest.raises(ValueError, match=re.escape(f"{path}:2: not valid UTF-8")):
        read_kv(path)
