"""The paper's results as predicates over the committed result rows.

``benchmarks/run_all.py`` regenerates every table and figure of the
evaluation into ``benchmarks/results/``; those files are committed, and
CI's paper-gate job re-runs the suite and fails on any diff (except
``compile_speed.txt``, which is wall-clock).  This module turns each
claim EXPERIMENTS.md makes about those rows into a predicate, so a
change that moves a row must still reproduce the paper's *shape*: who
wins, by roughly what factor, where the asymmetries fall.  It reads the
files only (no simulation), so it is cheap; the slow part is the re-run.

Where a predicate is looser than a paper sentence, it is because the
committed rows are: in Fig 5(b)'s raid->hdd and Fig 5(c)'s 4GB->1.5GB
directions single-threaded and temporal replay are within a few points
of each other, so only ARTC's lead is asserted there.
"""

import os
import re

import pytest

pytestmark = pytest.mark.tier2  # slow integration tier (cheap here)

RESULTS = os.path.join(
    os.path.dirname(__file__), "..", "..", "benchmarks", "results"
)


def tables(name):
    """Every table in ``results/<name>.txt``: a list of row dicts keyed
    by the header, cells cut where the dash rule's columns are."""
    with open(os.path.join(RESULTS, name + ".txt")) as handle:
        lines = handle.read().splitlines()
    out = []
    for at, line in enumerate(lines):
        if not line or set(line) - {"-", " "} or at == 0:
            continue
        starts = [m.start() for m in re.finditer(r"-+", line)]
        header = _cells(lines[at - 1], starts)
        rows = []
        for row in lines[at + 1:]:
            if not row.strip():
                break
            rows.append(dict(zip(header, _cells(row, starts))))
        out.append(rows)
    return out


def _cells(text, starts):
    ends = starts[1:] + [None]
    return [text[a:b].strip() for a, b in zip(starts, ends)]


def table(name):
    (only,) = tables(name)
    return only


def by(rows, column):
    return {row[column]: row for row in rows}


def err(cell):
    """The signed error (%) of a ``"10.43s (+0.2%)"`` cell."""
    return float(re.search(r"\(([-+][\d.]+)%\)", cell).group(1))


def num(cell):
    return float(re.match(r"[-+]?[\d.]+", cell).group(0))


def test_table3_uc_fails_where_artc_does_not():
    rows = by(table("table3"), "Trace")
    total = rows.pop("TOTAL")
    assert len(rows) == 34
    assert sum(int(r["UC"]) for r in rows.values()) == int(total["UC"])
    assert sum(int(r["ARTC"]) for r in rows.values()) == int(total["ARTC"])
    for name, row in rows.items():
        uc, artc = int(row["UC"]), int(row["ARTC"])
        assert uc >= artc, name
        if uc >= 30:  # a trace UC breaks, ARTC must not
            assert uc >= 5 * artc, name
    # Orders of magnitude overall; ARTC's residue is the planted xattrs.
    assert int(total["UC"]) >= 20 * int(total["ARTC"])
    assert int(total["ARTC"]) <= 100
    # Some traces are ~clean even unconstrained (keynote_start20, ...).
    assert rows["numbers_start5"]["UC"] == "0"
    assert rows["keynote_start20"]["UC"] == "0"


def test_fig5a_artc_tracks_parallelism_rigid_replays_do_not():
    eight = by(table("fig5a"), "Workload")["8 threads"]
    single, temporal, artc = (
        abs(err(eight[m])) for m in ("Single-threaded", "Temporal", "ARTC")
    )
    assert artc < temporal < single
    assert artc <= 5.0 and single >= 50.0


def test_fig5b_artc_leads_in_both_raid_directions():
    rows = by(table("fig5b"), "Direction")
    to_raid = rows["hdd->raid"]
    errors = [abs(err(to_raid[m])) for m in ("ARTC", "Temporal", "Single-threaded")]
    assert errors == sorted(errors) and errors[2] >= 25.0
    for row in rows.values():
        assert abs(err(row["ARTC"])) <= 5.0
        assert abs(err(row["ARTC"])) < min(
            abs(err(row["Single-threaded"])), abs(err(row["Temporal"]))
        )


def test_fig5c_cache_asymmetry():
    rows = by(table("fig5c"), "Direction")
    shrink, grow = rows["4GB->1.5GB"], rows["1.5GB->4GB"]
    for mode in ("Single-threaded", "Temporal"):
        assert err(shrink[mode]) >= 10.0  # mistimed reads become misses
        assert abs(err(grow[mode])) <= 3.0  # ... or cache hits anyway
    for row in rows.values():
        assert abs(err(row["ARTC"])) <= 3.0


def test_fig5d_slice_asymmetry():
    rows = by(table("fig5d"), "Direction")
    to_short, to_long = rows["100ms->1ms"], rows["1ms->100ms"]
    for mode in ("Single-threaded", "Temporal"):
        assert err(to_short[mode]) <= -50.0  # overestimate performance
        assert err(to_long[mode]) >= 100.0  # underestimate it
    for row in rows.values():
        artc = abs(err(row["ARTC"]))
        assert artc <= 30.0
        assert artc < min(abs(err(row["Single-threaded"])), abs(err(row["Temporal"])))


def test_fig6_rigid_replays_track_the_source():
    rows = by(table("fig6"), "slice_sync")
    col = lambda c: [float(rows[s][c]) for s in ("1ms", "4ms", "20ms", "100ms")]
    original = col("original")
    assert original[-1] >= 4 * original[0]  # the target's span
    for mode in ("single(src=100ms)", "temporally(src=100ms)"):
        series = col(mode)  # flat at the source's throughput
        assert max(series) <= 1.1 * min(series)
        assert min(series) >= 0.9 * original[-1]
    for mode in ("single(src=1ms)", "temporally(src=1ms)"):
        assert max(col(mode)) <= 0.5 * original[-1]
    for mode in ("artc(src=1ms)", "artc(src=100ms)"):
        series = col(mode)  # tracks the target at both extremes
        assert series[-1] >= 2.5 * series[0]
        assert abs(series[-1] - original[-1]) <= 0.1 * original[-1]


def test_fig7_fillsync_within_its_band():
    rows = table("fig7a_fillsync")
    assert len(rows) == 7
    for row in rows:
        for mode in ("Single-threaded", "Temporal", "ARTC"):
            assert abs(err(row[mode])) <= 30.0, (row["Combination"], mode)


def test_fig7_readrandom_artc_then_temporal_then_single():
    combos, summary = tables("fig7")
    assert len(combos) == 49
    for row in combos:
        single, temporal = err(row["Single-threaded"]), err(row["Temporal"])
        assert single > 0 and temporal > 0  # simple modes overestimate
        assert abs(err(row["ARTC"])) <= temporal <= single, row["Combination"]
    modes = by(summary, "Mode")
    for column in ("Mean error", "Worst-10% mean", "Median"):
        artc, temporal, single = (
            num(modes[m][column])
            for m in ("artc", "temporally-ordered", "single-threaded")
        )
        assert artc < temporal < single, column
    # ARTC ~ 1/3 of temporal ~ 1/8 of single-threaded (mean error).
    mean = {m: num(modes[m]["Mean error"]) for m in modes}
    assert mean["artc"] <= 0.5 * mean["temporally-ordered"]
    assert mean["artc"] <= 0.25 * mean["single-threaded"]


def test_fig8_fewer_edges_each_far_longer():
    rows = by(table("fig8"), "Graph")
    temporal, artc = rows["temporal ordering"], rows["ARTC (resource-aware)"]
    assert int(artc["Edges"]) < int(temporal["Edges"])
    assert num(artc["Mean edge length"]) >= 100 * num(temporal["Mean edge length"])


def test_fig9_concurrency_order():
    rows = by(table("fig9"), "Execution")
    original, artc, temporal = (
        num(rows[e]["Relative concurrency"])
        for e in ("original program", "ARTC replay", "temporally-ordered replay")
    )
    assert original == 100 and original > artc > temporal
    assert artc >= 70 and temporal <= 65


def test_fig10_category_shares_within_a_band():
    rows = by(table("fig10"), "Family")
    assert set(rows) == {"imovie", "iphoto", "itunes", "keynote", "numbers", "pages"}
    shares = ("read", "write", "fsync", "stat", "meta", "open", "other")
    for family, row in rows.items():
        assert 5.0 <= num(row["speedup"]) <= 20.0, family
        assert 95 <= sum(num(row["%s(hdd)" % s]) for s in shares) <= 105, family
    for family in ("iphoto", "itunes"):  # fsync-dominated on disk
        assert num(rows[family]["fsync(hdd)"]) >= 60, family
    for family in ("numbers", "keynote"):  # read-dominated on disk
        assert num(rows[family]["read(hdd)"]) >= 50, family


def test_ablation_rule_contribution_order():
    rows = by(table("ablation_rules"), "Rule set")
    fails = {name: int(row["Max failures (3 seeds)"]) for name, row in rows.items()}
    edges = {name: int(row["Edges"]) for name, row in rows.items()}
    time = {name: num(row["Replay time"]) for name, row in rows.items()}
    default = fails["artc default"]
    assert fails["unconstrained"] >= 20 * default
    for weaker in ("no file_seq", "no path rules", "file_stage only"):
        assert fails[weaker] > default, weaker
    assert fails["program_seq"] <= default
    assert time["program_seq"] >= 2 * time["artc default"]  # overconstraint
    assert fails["fd_stage only"] == default
    assert edges["fd_stage only"] >= 1.5 * edges["artc default"]


def test_ablation_file_size_restores_correctness_with_fewer_edges():
    rows = by(table("ablation_filesize"), "File rule")
    seq, size, stage = (
        rows[r] for r in ("file_seq (ARTC default)", "file_size (refinement)",
                          "file_stage only")
    )
    assert int(stage["Max failures"]) >= 100
    assert int(size["Max failures"]) == 0 == int(seq["Max failures"])
    assert int(size["Edges"]) < int(seq["Edges"])


def test_ablation_timing():
    fsync = by(table("ablation_fsync"), "fsync emulation")
    assert num(fsync["durable"]["Replay time"]) >= 10 * num(fsync["flush"]["Replay time"])
    runs = {row["Run"]: num(row["Elapsed"]) for row in table("ablation_predelay")}
    assert runs["afap"] <= runs["original"] / 2
    assert abs(runs["natural"] - runs["original"]) <= 0.05 * runs["original"]
    assert 1.5 * runs["natural"] <= runs["x2"] <= 2.0 * runs["natural"]


def test_experiments_table3_measured_column_quotes_the_rows():
    """EXPERIMENTS.md's Table 3 "Measured" column is read off the
    committed rows, not kept by hand: its totals, its event count and
    every per-app figure it quotes."""
    rows = by(table("table3"), "Trace")
    total = rows["TOTAL"]
    path = os.path.join(RESULTS, "..", "..", "EXPERIMENTS.md")
    with open(path) as handle:
        text = handle.read()
    section = text[text.index("## Table 3"):text.index("## Figure 5(a)")]
    measured = {
        cells[1].strip(): cells[3].strip()
        for cells in (line.split("|") for line in section.splitlines())
        if len(cells) == 5 and cells[3].strip() not in ("", "Measured", "---")
    }
    uc, artc = int(total["UC"]), int(total["ARTC"])
    events = int(total["Events"])
    assert measured["UC total failures (34 traces)"].startswith(
        "{:,} over {} K events".format(uc, round(events / 1000)))
    assert measured["ARTC total failures"].split()[0] == str(artc)
    quoted = re.findall(r"(\w+):? UC (\d+)(?: vs ARTC (\d+))?", " ".join(measured.values()))
    assert len(quoted) == 4
    for app, app_uc, app_artc in quoted:
        assert rows[app]["UC"] == app_uc, app
        assert not app_artc or rows[app]["ARTC"] == app_artc, app
