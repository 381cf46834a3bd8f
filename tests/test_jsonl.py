"""The shared JSONL writer replaces files atomically."""

import pytest

from j2cj.jsonl import write_jsonl


def test_unserializable_record_leaves_old_file_and_no_temp_sibling(tmp_path):
    path = tmp_path / "data.jsonl"
    write_jsonl(path, [{"text": "old"}])
    before = path.read_bytes()
    with pytest.raises(TypeError):
        write_jsonl(path, [{"text": "new"}, {"text": object()}])
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["data.jsonl"]


def test_write_error_names_the_path_not_the_temp_file(tmp_path):
    path = tmp_path / "nodir" / "r.jsonl"
    with pytest.raises(FileNotFoundError) as info:
        write_jsonl(path, [{"text": "x"}])
    assert info.value.filename == str(path)
    assert str(info.value) == f"[Errno 2] No such file or directory: '{path}'"
    assert list(tmp_path.iterdir()) == []
