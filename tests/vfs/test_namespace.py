"""VFS tests: mkdir/rmdir/unlink/rename/link and path resolution."""

import pytest

from repro.vfs import flags as F
from tests.conftest import make_fs, run


@pytest.fixture
def fs():
    filesystem = make_fs()
    filesystem.makedirs_now("/a/b")
    filesystem.create_file_now("/a/b/c", size=4096)
    return filesystem


def call(fs, gen):
    return run(fs, gen)


class TestMkdirRmdir(object):
    def test_mkdir(self, fs):
        assert call(fs, fs.mkdir(1, "/a/new")) == (0, None)
        assert fs.lookup("/a/new").is_dir

    def test_mkdir_exists_eexist(self, fs):
        assert call(fs, fs.mkdir(1, "/a/b")) == (-1, "EEXIST")

    def test_mkdir_missing_parent_enoent(self, fs):
        assert call(fs, fs.mkdir(1, "/nope/new")) == (-1, "ENOENT")

    def test_rmdir_empty(self, fs):
        call(fs, fs.mkdir(1, "/a/tmp"))
        assert call(fs, fs.rmdir(1, "/a/tmp")) == (0, None)
        assert not fs.exists("/a/tmp")

    def test_rmdir_nonempty_enotempty(self, fs):
        assert call(fs, fs.rmdir(1, "/a/b")) == (-1, "ENOTEMPTY")

    def test_rmdir_file_enotdir(self, fs):
        assert call(fs, fs.rmdir(1, "/a/b/c")) == (-1, "ENOTDIR")

    def test_rmdir_missing_enoent(self, fs):
        assert call(fs, fs.rmdir(1, "/a/zzz")) == (-1, "ENOENT")


class TestUnlink(object):
    def test_unlink(self, fs):
        assert call(fs, fs.unlink(1, "/a/b/c")) == (0, None)
        assert not fs.exists("/a/b/c")

    def test_unlink_missing_enoent(self, fs):
        assert call(fs, fs.unlink(1, "/a/zzz")) == (-1, "ENOENT")

    def test_unlink_dir_eisdir(self, fs):
        assert call(fs, fs.unlink(1, "/a/b")) == (-1, "EISDIR")

    def test_unlink_one_of_two_links_keeps_file(self, fs):
        call(fs, fs.link(1, "/a/b/c", "/a/b/c2"))
        call(fs, fs.unlink(1, "/a/b/c"))
        assert fs.lookup("/a/b/c2").size == 4096


class TestRename(object):
    def test_rename_file(self, fs):
        assert call(fs, fs.rename(1, "/a/b/c", "/a/b/renamed")) == (0, None)
        assert not fs.exists("/a/b/c")
        assert fs.lookup("/a/b/renamed").size == 4096

    def test_rename_replaces_destination(self, fs):
        fs.create_file_now("/a/b/victim", size=1)
        call(fs, fs.rename(1, "/a/b/c", "/a/b/victim"))
        assert fs.lookup("/a/b/victim").size == 4096

    def test_rename_directory_moves_subtree(self, fs):
        assert call(fs, fs.rename(1, "/a/b", "/a/moved")) == (0, None)
        assert fs.lookup("/a/moved/c").size == 4096
        stat, err = call(fs, fs.stat(1, "/a/b/c"))
        assert err == "ENOENT"

    def test_rename_missing_src_enoent(self, fs):
        assert call(fs, fs.rename(1, "/a/zzz", "/a/w")) == (-1, "ENOENT")

    def test_rename_into_own_subtree_einval(self, fs):
        assert call(fs, fs.rename(1, "/a", "/a/b/inside")) == (-1, "EINVAL")

    def test_rename_onto_self_is_noop(self, fs):
        assert call(fs, fs.rename(1, "/a/b/c", "/a/b/c")) == (0, None)
        assert fs.exists("/a/b/c")

    def test_rename_dir_onto_nonempty_dir_enotempty(self, fs):
        fs.makedirs_now("/x/y")
        assert call(fs, fs.rename(1, "/x", "/a")) == (-1, "ENOTEMPTY")

    def test_rename_file_onto_dir_eisdir(self, fs):
        fs.makedirs_now("/a/d2")
        assert call(fs, fs.rename(1, "/a/b/c", "/a/d2")) == (-1, "EISDIR")


class TestLink(object):
    def test_hard_link_shares_inode(self, fs):
        assert call(fs, fs.link(1, "/a/b/c", "/a/link")) == (0, None)
        assert fs.lookup("/a/link").ino == fs.lookup("/a/b/c").ino
        assert fs.lookup("/a/b/c").nlink == 2

    def test_link_to_dir_eperm(self, fs):
        assert call(fs, fs.link(1, "/a/b", "/a/link")) == (-1, "EPERM")

    def test_link_existing_dest_eexist(self, fs):
        fs.create_file_now("/a/dst")
        assert call(fs, fs.link(1, "/a/b/c", "/a/dst")) == (-1, "EEXIST")


class TestStatFamily(object):
    def test_stat_fields(self, fs):
        stat, err = call(fs, fs.stat(1, "/a/b/c"))
        assert err is None
        assert stat.size == 4096
        assert stat.ftype == "reg"
        assert stat.nlink == 1

    def test_fstat_matches_stat(self, fs):
        fd, _ = call(fs, fs.open(1, "/a/b/c", F.O_RDONLY))
        fstat, _ = call(fs, fs.fstat(1, fd))
        stat, _ = call(fs, fs.stat(1, "/a/b/c"))
        assert fstat.ino == stat.ino

    def test_access_missing(self, fs):
        assert call(fs, fs.access(1, "/a/zzz")) == (-1, "ENOENT")

    def test_getdents_lists_sorted_names(self, fs):
        fs.create_file_now("/a/b/zz")
        fs.create_file_now("/a/b/aa")
        fd, _ = call(fs, fs.open(1, "/a/b", F.O_RDONLY | F.O_DIRECTORY))
        names, err = call(fs, fs.getdents(1, fd))
        assert err is None
        assert names == ["aa", "c", "zz"]

    def test_getdents_on_file_ebadf(self, fs):
        fd, _ = call(fs, fs.open(1, "/a/b/c", F.O_RDONLY))
        assert call(fs, fs.getdents(1, fd)) == (-1, "EBADF")

    def test_statfs_reports_profile(self, fs):
        info, err = call(fs, fs.statfs(1, "/a"))
        assert err is None
        assert info["type"] == "ext4"

    def test_chdir_relative_resolution(self, fs):
        assert call(fs, fs.chdir(1, "/a/b")) == (0, None)
        stat, err = call(fs, fs.stat(1, "c"))
        assert err is None
        assert stat.size == 4096

    def test_chdir_to_file_enotdir(self, fs):
        assert call(fs, fs.chdir(1, "/a/b/c")) == (-1, "ENOTDIR")

    def test_dot_dot_resolution(self, fs):
        stat, err = call(fs, fs.stat(1, "/a/b/../b/c"))
        assert err is None
        assert stat.size == 4096


class TestDotDot(object):
    """``..`` names the directory's parent wherever the walk started."""

    @pytest.fixture
    def tree(self):
        filesystem = make_fs()
        filesystem.makedirs_now("/a/b")
        filesystem.makedirs_now("/a/c")
        filesystem.create_file_now("/a/c/f", size=7)
        return filesystem

    def test_relative_symlink_target_climbs(self, tree):
        tree.symlink_now("../c/f", "/a/b/l")
        assert tree.lookup("/a/b/l") is tree.lookup("/a/c/f")
        fd, err = call(tree, tree.open(1, "/a/b/l", F.O_RDONLY))
        assert err is None

    def test_cwd_relative_path_climbs(self, tree):
        assert call(tree, tree.chdir(1, "/a/b")) == (0, None)
        assert tree.lookup("../c/f") is tree.lookup("/a/c/f")
        stat, err = call(tree, tree.stat(1, "../c/f"))
        assert err is None and stat.size == 7

    def test_dot_dot_follows_a_directory_rename(self, tree):
        tree.makedirs_now("/x")
        assert call(tree, tree.rename(1, "/a/b", "/x/b")) == (0, None)
        assert tree.lookup("/x/b").parent == tree.lookup("/x").ino
        assert tree.lookup("/x/b/..") is tree.lookup("/x")
        assert call(tree, tree.chdir(1, "/x/b")) == (0, None)
        assert tree.lookup("..") is tree.lookup("/x")
        assert tree.lookup("../../a/c/f") is tree.lookup("/a/c/f")

    def test_dot_dot_stays_at_root(self, tree):
        root = tree.table.root
        assert tree.lookup("/..") is root
        assert tree.lookup("/../..") is root
        assert tree.lookup("/../a/c/f") is tree.lookup("/a/c/f")
