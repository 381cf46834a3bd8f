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
