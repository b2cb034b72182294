"""Tests for cross-platform pseudo-call emulation (paper section 4.3.4)."""

import pytest

from repro.syscalls.emulation import (
    EMULATED_CALLS,
    EmulationOptions,
    emulation_count,
    plan_for,
)


class TestEmulationTable(object):
    def test_nineteen_emulated_calls(self):
        # "ARTC performs emulation for 19 different calls."
        assert emulation_count() == 19

    def test_groups_match_paper(self):
        assert len(EMULATED_CALLS["metadata"]) == 11
        assert len(EMULATED_CALLS["hints"]) == 3
        assert len(EMULATED_CALLS["obscure"]) == 3
        assert len(EMULATED_CALLS["fsync"]) == 1
        assert len(EMULATED_CALLS["atomicity"]) == 1


class TestNativePassThrough(object):
    def test_native_call_unchanged(self):
        plan = plan_for("read", {"fd": 3, "nbytes": 10}, "linux", "linux")
        assert plan == [("read", {"fd": 3, "nbytes": 10})]

    def test_nocancel_stripped_off_darwin(self):
        plan = plan_for("read_nocancel", {"fd": 3, "nbytes": 10}, "darwin", "linux")
        assert plan[0][0] == "read"

    def test_size_variant_aliases(self):
        # getfsstat64 has no Linux equivalent by name; it maps to statfs.
        plan = plan_for("getfsstat64", {}, "darwin", "linux")
        assert plan[0][0] == "statfs"


class TestMetadataEmulations(object):
    def test_getattrlist_to_stat(self):
        plan = plan_for("getattrlist", {"path": "/x"}, "darwin", "linux")
        assert plan == [("stat", {"path": "/x"})]

    def test_fgetattrlist_to_fstat(self):
        plan = plan_for("fgetattrlist", {"fd": 5}, "darwin", "linux")
        assert plan == [("fstat", {"fd": 5})]

    def test_bulk_attrs_to_target_getdents(self):
        assert plan_for("getattrlistbulk", {"fd": 5}, "darwin", "linux")[0][0] == "getdents64"
        assert plan_for("getattrlistbulk", {"fd": 5}, "darwin", "freebsd")[0][0] == "getdirentries"

    def test_obscure_extended_stats(self):
        assert plan_for("stat_extended", {"path": "/x"}, "darwin", "linux")[0][0] == "stat"
        assert plan_for("lstat_extended", {"path": "/x"}, "darwin", "linux")[0][0] == "lstat"
        assert plan_for("fstat_extended", {"fd": 4}, "darwin", "linux")[0][0] == "fstat"


class TestHintEmulations(object):
    def test_rdadvise_to_fadvise_on_linux(self):
        plan = plan_for(
            "fcntl", {"fd": 4, "cmd": "F_RDADVISE", "offset": 0, "arg": 4096},
            "darwin", "linux",
        )
        assert plan[0][0] == "posix_fadvise"

    def test_rdadvise_ignored_on_freebsd(self):
        plan = plan_for(
            "fcntl", {"fd": 4, "cmd": "F_RDADVISE", "arg": 4096}, "darwin", "freebsd"
        )
        assert plan == []

    def test_preallocate_to_fallocate(self):
        plan = plan_for(
            "fcntl", {"fd": 4, "cmd": "F_PREALLOCATE", "arg": 1 << 20},
            "darwin", "linux",
        )
        assert plan[0][0] == "fallocate"
        assert plan[0][1]["length"] == 1 << 20

    def test_nocache_ignored(self):
        assert plan_for("fcntl", {"fd": 4, "cmd": "F_NOCACHE"}, "darwin", "linux") == []

    def test_non_hint_fcntl_untouched(self):
        plan = plan_for("fcntl", {"fd": 4, "cmd": "F_DUPFD"}, "darwin", "linux")
        assert plan[0][0] == "fcntl"


class TestFsyncSemantics(object):
    def test_darwin_fsync_on_linux_durable(self):
        plan = plan_for("fsync", {"fd": 3}, "darwin", "linux")
        assert plan == [("fsync", {"fd": 3})]

    def test_darwin_fsync_on_linux_flush(self):
        options = EmulationOptions(fsync_mode="flush")
        plan = plan_for("fsync", {"fd": 3}, "darwin", "linux", options)
        assert plan == [("fdatasync", {"fd": 3})]

    def test_linux_fsync_on_darwin_durable_uses_fullfsync(self):
        plan = plan_for("fsync", {"fd": 3}, "linux", "darwin")
        assert plan == [("fcntl", {"fd": 3, "cmd": "F_FULLFSYNC"})]

    def test_linux_fsync_on_darwin_flush(self):
        options = EmulationOptions(fsync_mode="flush")
        plan = plan_for("fsync", {"fd": 3}, "linux", "darwin", options)
        assert plan == [("fsync", {"fd": 3})]

    def test_bad_fsync_mode_rejected(self):
        with pytest.raises(ValueError):
            EmulationOptions(fsync_mode="yolo")


class TestExchangedata(object):
    def test_link_and_two_renames(self):
        plan = plan_for(
            "exchangedata", {"path1": "/a", "path2": "/b"}, "darwin", "linux"
        )
        names = [step for step, _ in plan]
        assert names == ["link", "rename", "rename"]
        # The swap: link a aside, move b over a, move the saved copy to b.
        link_args, rename1, rename2 = (args for _name, args in plan)
        assert link_args["target"] == "/a"
        assert rename1 == {"old": "/b", "new": "/a"}
        assert rename2["new"] == "/b"

    def test_native_on_darwin(self):
        plan = plan_for(
            "exchangedata", {"path1": "/a", "path2": "/b"}, "darwin", "darwin"
        )
        assert plan[0][0] == "exchangedata"

    def test_emulated_swap_is_semantically_correct(self):
        from tests.conftest import make_fs, run
        from repro.syscalls.execute import perform

        fs = make_fs()
        fs.create_file_now("/a", size=111)
        fs.create_file_now("/b", size=222)
        plan = plan_for("exchangedata", {"path1": "/a", "path2": "/b"}, "darwin", "linux")
        for name, args in plan:
            ret, err = run(fs, perform(fs, 1, name, args))
            assert err is None, (name, err)
        assert fs.lookup("/a").size == 222
        assert fs.lookup("/b").size == 111
        assert not fs.exists("/a.exch-tmp")
