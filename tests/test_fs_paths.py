"""Tests for lexical path algebra."""

import pytest

from repro.fs import paths
from repro.fs.paths import (normalize, joinpath, split_components,
                            dirname, basename, is_absolute, is_under,
                            remote_name, split_remote)


def test_normalize_collapses_dots():
    assert normalize("/a/./b/../c") == "/a/c"
    assert normalize("/a//b///c") == "/a/b/c"
    assert normalize("/") == "/"
    assert normalize("/..") == "/"
    assert normalize("/../..") == "/"
    assert normalize("/a/..") == "/"


def test_normalize_requires_absolute():
    with pytest.raises(ValueError):
        normalize("relative/path")


def test_joinpath_absolute_argument_wins():
    assert joinpath("/usr/tmp", "/etc/passwd") == "/etc/passwd"


def test_joinpath_relative():
    assert joinpath("/usr", "tmp/x") == "/usr/tmp/x"
    assert joinpath("/usr/tmp", "..") == "/usr"
    assert joinpath("/usr/tmp", ".") == "/usr/tmp"
    assert joinpath("/", "a") == "/a"


def test_joinpath_requires_absolute_cwd():
    with pytest.raises(ValueError):
        joinpath("relative", "x")


def test_split_components():
    assert split_components("/a/b/c") == ["a", "b", "c"]
    assert split_components("a//b/") == ["a", "b"]
    assert split_components("/") == []


def test_dirname_basename():
    assert dirname("/a/b/c") == "/a/b"
    assert dirname("/a") == "/"
    assert basename("/a/b/c") == "c"
    assert basename("/") == "/"


def test_is_absolute():
    assert is_absolute("/x")
    assert not is_absolute("x")


def test_is_under():
    assert is_under("/usr/tmp/a.out123", "/usr/tmp")
    assert is_under("/usr/tmp", "/usr/tmp")
    assert is_under("/anything", "/")
    assert not is_under("/usr/tmpfoo", "/usr/tmp")
    assert not is_under("/usr", "/usr/tmp")


def test_split_remote():
    assert split_remote("/n/brick/usr/tmp") == ("brick", "/usr/tmp")
    assert split_remote("/n/brick") == ("brick", "/")
    assert split_remote("/n//brick/./usr/") == ("brick", "/usr")
    assert split_remote("/n/brick/../brador/u2") == ("brador", "/u2")
    assert split_remote("/n/brick/n/brador") == ("brick", "/n/brador")
    for local in ("/usr/tmp", "/", "/n", "/n/", "/n/brick/..", "/usr/n/x",
                  "usr/tmp"):
        assert split_remote(local) == (None, local)


def test_remote_name():
    assert remote_name("brick", "/usr/tmp") == "/n/brick/usr/tmp"
    assert remote_name("brick", "/") == "/n/brick/"
    assert remote_name("brick", "/usr/tmp", "brick") == "/usr/tmp"
    assert remote_name("brick", "/usr/tmp", "schooner") \
        == "/n/brick/usr/tmp"
    # a name already under /n is left alone: NFS refuses /n/a/n/b
    assert remote_name("brick", "/n/brador/u2") == "/n/brador/u2"
    assert remote_name("brick", "/n") == "/n/brick/n"
