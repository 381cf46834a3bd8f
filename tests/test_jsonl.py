"""The shared atomic writer replaces files whole."""

import errno

import pytest

from j2cj.jsonl import atomic_write, write_jsonl
from j2cj.repair_engine import TranslationUnit, write_trace


def _trace_of(java_source):
    return lambda path: write_trace(TranslationUnit(java_source, [], unit_id="u"), path)


# file name -> (a write that succeeds, a write that fails part way through)
_WRITERS = {
    "data.jsonl": (
        lambda path: write_jsonl(path, [{"text": "old"}]),
        lambda path: write_jsonl(path, [{"text": "new"}, {"text": object()}]),
    ),
    "u.trace.json": (_trace_of("class A {}"), _trace_of(object())),
}


def test_unserializable_record_leaves_old_file_and_no_temp_sibling(tmp_path):
    for name, (write, fail) in _WRITERS.items():
        path = tmp_path / name
        write(path)
        before = path.read_bytes()
        with pytest.raises(TypeError):
            fail(path)
        assert path.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(_WRITERS)


def test_write_error_names_the_path_not_the_temp_file(tmp_path):
    for name, (write, _) in _WRITERS.items():
        path = tmp_path / "nodir" / name
        with pytest.raises(FileNotFoundError) as info:
            write(path)
        assert info.value.filename == str(path)
        assert str(info.value) == f"[Errno 2] No such file or directory: '{path}'"
        assert list(tmp_path.iterdir()) == []


def test_a_write_error_in_the_block_names_the_path_and_others_pass_unchanged(tmp_path):
    """A disk that fills while the block writes raises an error with no file name;
    an error that names another file, or has no errno, is not the temp file's."""
    path = tmp_path / "data.jsonl"
    with pytest.raises(OSError) as info, atomic_write(path):
        raise OSError(errno.ENOSPC, "No space left on device")
    assert str(info.value) == f"[Errno 28] No space left on device: '{path}'"
    other = OSError(errno.EISDIR, "Is a directory", str(tmp_path / "other"))
    for error in (other, ChildProcessError("a worker died")):
        with pytest.raises(OSError) as info, atomic_write(path):
            raise error
        assert info.value is error
    assert list(tmp_path.iterdir()) == []
