import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import mpda
from mpda import formats
from mpda.cli import build_parser, main
from mpda.gadgets import anbncn
from mpda.marked import default_tgt_cap
from mpda.model import Witness, expand, replay
from mpda.regsets import member, singleton, union
from mpda.separator import check_separator
from mpda.wqo import default_src_cap


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    record = None
    stream = out.out if code != 3 else out.err
    first = stream.splitlines()[0] if stream else ""
    if first.startswith("{"):
        record = json.loads(first)
    return code, record, out


@pytest.fixture
def workdir(tmp_path, capsys):
    code, record, _ = run(capsys, "gen", "anbncn", "--out", str(tmp_path))
    assert code == 0 and record["family"] == "anbncn"
    return tmp_path


class TestGen:
    def test_writes_the_three_files(self, workdir):
        for name in ("machine.mpda", "source.cfg", "target.regset"):
            assert (workdir / name).exists()
        m = formats.parse_mpda((workdir / "machine.mpda").read_text())
        assert len(m.rules) == 5
        src = formats.parse_configuration((workdir / "source.cfg").read_text().strip(), m)
        assert src == anbncn().source

    def test_expo_and_bad_family(self, tmp_path, capsys):
        code, record, _ = run(capsys, "gen", "expo:3", "--out", str(tmp_path / "e"))
        assert code == 0 and record["family"] == "expo:3"
        code, record, _ = run(capsys, "gen", "no-such-family", "--out", str(tmp_path / "x"))
        assert code == 3 and "unknown family" in record["error"]

    def test_comm_free_spec(self, tmp_path, capsys):
        spec = tmp_path / "counters.txt"
        spec.write_text("source: 2 0\ntarget: 0 2\nrule 1 : 0 1\n")
        code, record, _ = run(capsys, "gen", "comm-free", "--out", str(tmp_path / "c"), "--spec", str(spec))
        assert code == 0
        code, _, _ = run(
            capsys, "reach", str(tmp_path / "c" / "machine.mpda"),
            "--from", (tmp_path / "c" / "source.cfg").read_text().strip(),
            "--to", "@" + str(tmp_path / "c" / "target.regset"),
            "--method", "oracle",
        )
        assert code == 0


class TestClassify:
    def test_record(self, workdir, capsys):
        code, record, _ = run(capsys, "classify", str(workdir / "machine.mpda"))
        assert code == 0
        assert record["weak"] is True
        assert record["state_order"] == ["q1", "q2"]
        assert record["strongly_normed"] is False
        assert record["normed"] is False

    def test_missing_file(self, capsys):
        code, record, _ = run(capsys, "classify", "/no/such/machine.mpda")
        assert code == 3 and "cannot read" in record["error"]


class TestReach:
    def test_reachable_with_witness_file(self, workdir, capsys):
        wfile = workdir / "run.witness"
        code, record, _ = run(
            capsys, "reach", str(workdir / "machine.mpda"),
            "--from", "q1 : X D |",
            "--to", "@" + str(workdir / "target.regset"),
            "--method", "oracle", "--witness", str(wfile),
        )
        assert code == 0 and record["status"] == "reachable"
        m = formats.parse_mpda((workdir / "machine.mpda").read_text())
        w = formats.parse_witness(wfile.read_text(), m)
        assert len(w.steps) == record["witness_length"]
        tgt = formats.parse_regset((workdir / "target.regset").read_text(), m)
        assert member(tgt, replay(m, w))

    def test_unreachable_exit_1(self, workdir, capsys):
        # no rule grows this source, so the search is exhaustive
        code, record, _ = run(
            capsys, "reach", str(workdir / "machine.mpda"),
            "--from", "q1 : B D |", "--to", "q2 : X |",
            "--method", "oracle", "--max-size", "6",
        )
        assert code == 1 and record["status"] == "unreachable"
        assert record["truncated"] is False

    def test_size_capped_search_is_unknown(self, tmp_path, capsys):
        # the size cap hides the run to X8, which is reachable
        run(capsys, "gen", "expo:8", "--out", str(tmp_path))
        code, record, _ = run(
            capsys, "reach", str(tmp_path / "machine.mpda"),
            "--from", "q : X1", "--to", "q : X8", "--method", "oracle",
        )
        assert code == 2 and record["status"] == "unknown"
        assert record["truncated"] is True and record["budget"] == "max-size"

    def test_budget_exit_2(self, tmp_path, capsys):
        run(capsys, "gen", "expo:5", "--out", str(tmp_path))
        code, record, _ = run(
            capsys, "reach", str(tmp_path / "machine.mpda"),
            "--from", "q : X1", "--to", "q : X5",
            "--method", "oracle", "--max-size", "40", "--max-explored", "3",
        )
        assert code == 2 and record["status"] == "unknown" and record["budget"] == "max-explored"

    def test_wqo_search_stops_at_max_explored(self, tmp_path, capsys):
        # a weak machine whose colored search admits 158 nodes before it
        # answers unreachable
        mfile = tmp_path / "grow.mpda"
        mfile.write_text(
            "mpda {\n  states: q0 q1 q2\n  stacks: 2\n  alphabet 1: A0 A1\n  alphabet 2: B0\n"
            "  rule q1 B0 -> q1 : A1 | B0\n  rule q0 A1 -> q0 : A0 |\n  rule q1 B0 -> q1 : A0 |\n"
            "  rule q2 B0 -> q2 : |\n  rule q0 A1 -> q1 : |\n  rule q2 A0 -> q2 : A0 | B0\n}\n"
        )
        query = ("reach", str(mfile), "--from", "q0 : A1 | B0 B0", "--to", "q0 : A0 A1 A0 |")
        for method in ("wqo", "auto"):
            code, record, _ = run(capsys, *query, "--method", method, "--max-explored", "100")
            assert code == 2 and record["status"] == "unknown" and record["method"] == "wqo"
            assert record["budget"] == "max-explored" and record["explored"] == 100
        code, record, _ = run(capsys, *query, "--method", "wqo")
        assert code == 1 and record["status"] == "unreachable" and record["explored"] == 158

    def test_auto_picks_wqo_for_config_target(self, workdir, capsys):
        code, record, _ = run(
            capsys, "reach", str(workdir / "machine.mpda"),
            "--from", "q1 : X D |", "--to", "q2 : |",
        )
        assert code == 0 and record["method"] == "wqo"

    def test_wqo_writes_a_replayable_witness(self, workdir, capsys):
        wfile = workdir / "wqo.witness"
        code, record, _ = run(
            capsys, "reach", str(workdir / "machine.mpda"),
            "--from", "q1 : X D |", "--to", "q2 : |",
            "--method", "wqo", "--witness", str(wfile),
        )
        assert code == 0 and record["status"] == "reachable"
        m = formats.parse_mpda((workdir / "machine.mpda").read_text())
        w = formats.parse_witness(wfile.read_text(), m)
        assert len(w.steps) == record["witness_length"]
        assert w.start == formats.parse_configuration("q1 : X D |", m)
        assert replay(m, w) == formats.parse_configuration("q2 : |", m)

    def _set_source(self, workdir):
        # the first member of the set is stuck; the second reaches q2 : |
        m = formats.parse_mpda((workdir / "machine.mpda").read_text())
        L = union(*(singleton(m, formats.parse_configuration(c, m)) for c in ("q1 : | C", "q1 : X D | C")))
        sfile = workdir / "sources.regset"
        sfile.write_text(formats.serialize_regset(L))
        return m, "@" + str(sfile)

    def test_wqo_from_a_set_writes_a_replayable_witness(self, workdir, capsys):
        m, source = self._set_source(workdir)
        wfile = workdir / "wqo.witness"
        code, record, _ = run(
            capsys, "reach", str(workdir / "machine.mpda"), "--from", source, "--to", "q2 : |",
            "--method", "wqo", "--witness", str(wfile),
        )
        assert code == 0 and record["status"] == "reachable"
        w = formats.parse_witness(wfile.read_text(), m)
        assert len(w.steps) == record["witness_length"]
        assert str(w.start) == record["source"] == "q1 : X D | C"
        assert replay(m, w) == formats.parse_configuration("q2 : |", m)

    def test_wqo_from_a_set_stops_at_max_explored(self, workdir, capsys):
        _, source = self._set_source(workdir)
        code, record, _ = run(
            capsys, "reach", str(workdir / "machine.mpda"), "--from", source, "--to", "q2 : |",
            "--method", "wqo", "--max-explored", "1",
        )
        assert code == 2 and record["status"] == "unknown"
        assert record["budget"] == "max-explored" and record["explored"] == 1

    def test_auto_picks_marked_when_strongly_normed(self, tmp_path, capsys):
        run(capsys, "gen", "expo:3", "--out", str(tmp_path))
        code, record, _ = run(
            capsys, "reach", str(tmp_path / "machine.mpda"),
            "--from", "q : X1", "--to", "q : X3",
        )
        assert code == 0 and record["method"] == "marked"

    def test_marked_macro_witness_expands_to_the_flat_run(self, tmp_path, capsys):
        run(capsys, "gen", "expo:5", "--out", str(tmp_path))
        m = formats.parse_mpda((tmp_path / "machine.mpda").read_text())
        wfile = tmp_path / "macro.witness"
        code, record, _ = run(
            capsys, "reach", str(tmp_path / "machine.mpda"), "--from", "q : X1", "--to", "q : X5",
            "--method", "marked", "--witness", str(wfile),
        )
        assert code == 0 and record["witness_length"] == 2 ** 5 - 2 and record["witness_steps"] == 8
        w = formats.parse_witness(wfile.read_text(), m)
        assert len(w.steps) == record["witness_steps"] and len(w.fragments) == 4
        text = formats.serialize_witness(expand(w))
        assert "define" not in text and "cancel" not in text
        flat = formats.parse_witness(text, m)
        assert len(flat.steps) == record["witness_length"]
        assert replay(m, w) == replay(m, flat) == formats.parse_configuration("q : X5", m)

    def test_large_expo_witness_stays_small(self, tmp_path, capsys):
        run(capsys, "gen", "expo:20", "--out", str(tmp_path))
        wfile = tmp_path / "run.witness"
        code, record, _ = run(
            capsys, "reach", str(tmp_path / "machine.mpda"), "--from", "q : X1", "--to", "q : X20",
            "--method", "marked", "--witness", str(wfile),
        )
        assert code == 0 and record["witness_length"] == 2 ** 20 - 2
        assert wfile.stat().st_size < 2048

    def test_bad_configuration_literal(self, workdir, capsys):
        code, record, _ = run(
            capsys, "reach", str(workdir / "machine.mpda"),
            "--from", "q1 : NOPE |", "--to", "q2 : |",
        )
        assert code == 3


class TestCaps:
    """A search cut by a user cap below the bound its decider proves
    complete answers "unknown"; the default caps are those bounds."""

    MACHINE = "mpda {\n  states: q\n  stacks: 1\n  alphabet 1: X\n  rule q X -> q :\n}\n"

    def files(self, tmp_path, edges):
        mfile = tmp_path / "m.mpda"
        mfile.write_text(self.MACHINE)
        sfile = tmp_path / "L.regset"
        sfile.write_text("regset {\n  state q {\n    nfa 1 { states: s0 ; initial: s0" + edges + " }\n"
                         "    accept: (s0)\n  }\n}\n")
        return mfile, sfile

    @pytest.mark.parametrize("method, flag", [("wqo", "--src-cap"), ("marked", "--src-cap"), ("marked", "--tgt-cap")])
    def test_cap_below_the_bound_is_unknown(self, tmp_path, capsys, method, flag):
        # X X X is in L = X* and is the target itself
        mfile, sfile = self.files(tmp_path, " ; edge s0 X s0")
        argv = ["reach", str(mfile), "--from", "@" + str(sfile), "--to", "q : X X X", "--method", method]
        code, record, out = run(capsys, *argv, flag, "2")
        assert code == 2 and record["status"] == "unknown"
        assert record["budget"] == flag[2:] and f"{flag[2:]} budget ran out" in out.out
        code, record, _ = run(capsys, *argv)
        assert code == 0 and record["status"] == "reachable"

    def test_caps_at_the_bound_keep_unreachable(self, tmp_path, capsys):
        # L holds the empty stack only
        mfile, sfile = self.files(tmp_path, "")
        m = formats.parse_mpda(mfile.read_text())
        t = formats.parse_configuration("q : X X X", m)
        scap = default_src_cap(formats.parse_regset(sfile.read_text(), m), t)
        tcap = default_tgt_cap(singleton(m, t))
        for method, caps in (("wqo", ["--src-cap", str(scap)]),
                             ("marked", ["--src-cap", str(scap), "--tgt-cap", str(tcap)])):
            code, record, _ = run(capsys, "reach", str(mfile), "--from", "@" + str(sfile), "--to", "q : X X X",
                                  "--method", method, *caps)
            assert code == 1 and record["status"] == "unreachable" and "budget" not in record


class TestExitCodes:
    def test_internal_error_exits_4_with_traceback(self, workdir, capsys, monkeypatch):
        def broken(*args, **kwargs):
            raise IndexError("tuple index out of range")

        monkeypatch.setattr("mpda.wqo.reach_wqo", broken)
        code = main([
            "reach", str(workdir / "machine.mpda"),
            "--from", "q1 : X D |", "--to", "q2 : |", "--method", "wqo",
        ])
        err = capsys.readouterr().err
        assert code == 4
        assert "Traceback" in err and "IndexError" in err

    def test_bad_numbers_are_input_errors(self, workdir, tmp_path, capsys):
        code, record, _ = run(capsys, "gen", "expo:many", "--out", str(tmp_path / "e"))
        assert code == 3 and "integer" in record["error"]
        code, record, _ = run(capsys, "gen", "expo:1", "--out", str(tmp_path / "e"))
        assert code == 3
        code, record, _ = run(
            capsys, "regset", str(workdir / "machine.mpda"), "enumerate",
            str(workdir / "target.regset"), "three",
        )
        assert code == 3 and "integer" in record["error"]
        code, record, _ = run(capsys, "regset", str(workdir / "machine.mpda"), "member")
        assert code == 3

    def test_negative_budgets_and_counts_exit_3(self, workdir, tmp_path, capsys):
        run(capsys, "gen", "expo:3", "--out", str(tmp_path / "e"))
        expo_m, anbncn_m = str(tmp_path / "e" / "machine.mpda"), str(workdir / "machine.mpda")
        spec = tmp_path / "counters.txt"
        spec.write_text("source: -1 2\ntarget: 0 2\nrule 1 : 0 1\n")
        for argv, named in (
            (["reach", anbncn_m, "--from", "q1 : X D |", "--to", "q2 : |", "--method", "oracle", "--max-explored", "-1"],
             "--max-explored"),
            (["reach", expo_m, "--from", "q : X1", "--to", "q :", "--method", "marked", "--src-cap", "-1"], "--src-cap"),
            (["reach", expo_m, "--from", "q : X1", "--to", "q :", "--method", "marked", "--tgt-cap", "-1"], "--tgt-cap"),
            (["reach", anbncn_m, "--from", "q1 : X D |", "--to", "q2 : |", "--method", "oracle", "--max-size", "-2"],
             "--max-size"),
            (["regset", anbncn_m, "enumerate", str(workdir / "target.regset"), "-1"], "size bound"),
            (["regset", anbncn_m, "complement", str(workdir / "target.regset"), "--budget", "-3"], "--budget"),
            (["gen", "comm-free", "--out", str(tmp_path / "c"), "--spec", str(spec)], "counter spec line 1"),
        ):
            code, record, _ = run(capsys, *argv)
            assert code == 3 and named in record["error"] and "non-negative" in record["error"], argv
        code, record, _ = run(capsys, "reach", anbncn_m, "--from", "q1 : X D |", "--to", "q2 : |",
                              "--method", "oracle", "--max-explored", "0")
        assert code == 2 and record["budget"] == "max-explored"

    def test_closed_stdout_exits_141_quietly(self, tmp_path, capsys):
        # more than a pipe buffer of members, and the reader closes its end
        # before reading, as `| head` does once it has its lines
        run(capsys, "gen", "expo:4", "--out", str(tmp_path))
        every_word = tmp_path / "all.regset"
        every_word.write_text(
            "regset {\n  state q {\n"
            "    nfa 1 { states: s ; initial: s ; edge s X1 s ; edge s X2 s ; edge s X3 s ; edge s X4 s }\n"
            "    accept: (s)\n  }\n}\n"
        )
        env = {**os.environ, "PYTHONPATH": str(Path(mpda.__file__).parents[1])}
        proc = subprocess.Popen(
            [sys.executable, "-m", "mpda.cli", "regset", str(tmp_path / "machine.mpda"), "enumerate", str(every_word), "7"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
        )
        proc.stdout.close()
        _, err = proc.communicate(timeout=60)
        assert proc.returncode == 141
        assert err == b""

    def test_usage_errors_exit_3_with_a_record(self, workdir, capsys):
        for argv in (
            ["reach"],
            ["reach", str(workdir / "machine.mpda"), "--from", "q1 : X D |", "--to", "q2 : |", "--max-explored", "abc"],
            ["no-such-command"],
        ):
            code, record, _ = run(capsys, *argv)
            assert code == 3 and record is not None and "error" in record, argv

    def test_help_exits_0(self, capsys):
        with pytest.raises(SystemExit) as ei:
            main(["reach", "--help"])
        assert ei.value.code == 0
        assert "--max-explored" in capsys.readouterr().out

    @pytest.mark.parametrize("flag", ["--help", "-h"])
    def test_top_level_help_names_every_command(self, capsys, flag):
        with pytest.raises(SystemExit) as ei:
            main([flag])
        assert ei.value.code == 0
        out = capsys.readouterr().out
        for cmd in ("classify", "reach", "gen", "regset", "pre", "shrink"):
            assert cmd in out

    def test_unknown_command_names_the_choices(self, capsys):
        code, record, _ = run(capsys, "frobnicate")
        assert code == 3 and "invalid choice: 'frobnicate'" in record["error"]
        for cmd in ("classify", "reach", "gen", "regset", "pre", "shrink"):
            assert f"'{cmd}'" in record["error"]

    @pytest.mark.parametrize("cmd", ["classify", "reach", "gen", "regset", "pre", "shrink"])
    def test_each_command_help_exits_0(self, capsys, cmd):
        with pytest.raises(SystemExit) as ei:
            main([cmd, "--help"])
        assert ei.value.code == 0
        assert capsys.readouterr().out.startswith(f"usage: mpda {cmd} ")

    def test_unwritable_output_is_an_input_error(self, workdir, capsys):
        code, record, _ = run(
            capsys, "reach", str(workdir / "machine.mpda"),
            "--from", "q1 : X D |", "--to", "q2 : |", "--method", "wqo",
            "--witness", str(workdir / "no-such-dir" / "w.witness"),
        )
        assert code == 3 and "cannot write" in record["error"]
        code, record, _ = run(capsys, "gen", "anbncn", "--out", str(workdir / "machine.mpda" / "sub"))
        assert code == 3 and "cannot create" in record["error"]


class TestRegsetOps:
    def test_member_and_enumerate(self, workdir, capsys):
        mfile = str(workdir / "machine.mpda")
        tfile = str(workdir / "target.regset")
        code, record, _ = run(capsys, "regset", mfile, "member", tfile, "q2 : |")
        assert code == 0 and record["member"] is True
        code, record, _ = run(capsys, "regset", mfile, "member", tfile, "q1 : X |")
        assert code == 0 and record["member"] is False
        code, record, _ = run(capsys, "regset", mfile, "enumerate", tfile, "3")
        assert code == 0 and record["members"] == ["q2 :  | "]

    def test_union_prints_without_out(self, workdir, capsys):
        m = formats.parse_mpda((workdir / "machine.mpda").read_text())
        tfile = str(workdir / "target.regset")
        code, record, out = run(capsys, "regset", str(workdir / "machine.mpda"), "union", tfile, tfile)
        assert code == 0 and record is None
        L = formats.parse_regset((workdir / "target.regset").read_text(), m)
        assert out.out == formats.serialize_regset(union(L, L))
        assert member(formats.parse_regset(out.out, m), formats.parse_configuration("q2 : |", m))

    def test_union_round_trip(self, workdir, capsys):
        m = formats.parse_mpda((workdir / "machine.mpda").read_text())
        other = workdir / "other.regset"
        other.write_text(formats.serialize_regset(singleton(m, formats.parse_configuration("q1 : X |", m))))
        out = workdir / "u.regset"
        code, record, _ = run(
            capsys, "regset", str(workdir / "machine.mpda"), "union",
            str(workdir / "target.regset"), str(other), "--out", str(out),
        )
        assert code == 0
        u = formats.parse_regset(out.read_text(), m)
        assert member(u, formats.parse_configuration("q1 : X |", m))
        assert member(u, formats.parse_configuration("q2 : |", m))

    def test_complement_budget_error(self, workdir, capsys):
        code, record, _ = run(
            capsys, "regset", str(workdir / "machine.mpda"), "complement",
            str(workdir / "target.regset"), "--budget", "1",
        )
        assert code == 3

    def test_is_empty_and_subset(self, workdir, capsys):
        mfile = str(workdir / "machine.mpda")
        tfile = str(workdir / "target.regset")
        code, record, _ = run(capsys, "regset", mfile, "is-empty", tfile)
        assert code == 0 and record["empty"] is False
        code, record, _ = run(capsys, "regset", mfile, "is-subset", tfile, tfile)
        assert code == 0 and record["subset"] is True


class TestSeparatorCertificate:
    def test_certificate_passes_the_check_after_a_round_trip(self, tmp_path, capsys):
        # two rules into q at p: the predecessor fixpoint unions two summands
        mfile = tmp_path / "m.mpda"
        mfile.write_text(
            "mpda {\n  states: p q\n  stacks: 1\n  alphabet 1: A B\n"
            "  rule p A -> q :\n  rule p B -> q :\n}\n"
        )
        cfile = tmp_path / "sep.regset"
        code, record, _ = run(
            capsys, "reach", str(mfile), "--from", "p : A B", "--to", "q :",
            "--method", "separator", "--certificate", str(cfile),
        )
        assert code == 1 and record["certificate_file"] == str(cfile)
        m = formats.parse_mpda(mfile.read_text())
        M = formats.parse_regset(cfile.read_text(), m)
        L = singleton(m, formats.parse_configuration("p : A B", m))
        K = singleton(m, formats.parse_configuration("q :", m))
        assert check_separator(m, L, K, M) is None
        assert member(M, formats.parse_configuration("p : B", m))
        assert record["strategy"] == "saturation"
        assert record["saturation"] == {"nodes": 3, "edges": 2, "contexts": 3, "passes": 1}

    def test_record_names_the_strategy(self, tmp_path, capsys):
        mfile = tmp_path / "m.mpda"
        mfile.write_text("mpda {\n  states: p q\n  stacks: 1\n  alphabet 1: A\n  rule p A -> q :\n}\n")
        code, record, _ = run(capsys, "reach", str(mfile), "--from", "p : A", "--to", "q :", "--method", "separator")
        assert code == 0
        assert {k: record[k] for k in ("strategy", "round")} == {"strategy": "search", "round": 1}
        assert "saturation" not in record  # round 1 found the run before the saturation


class TestPreAndShrink:
    def test_pre_writes_parseable_set(self, workdir, capsys):
        out = workdir / "pre.regset"
        code, record, _ = run(
            capsys, "pre", str(workdir / "machine.mpda"), str(workdir / "target.regset"),
            "--out", str(out),
        )
        assert code == 0
        m = formats.parse_mpda((workdir / "machine.mpda").read_text())
        P = formats.parse_regset(out.read_text(), m)
        assert member(P, formats.parse_configuration("q1 : D |", m))
        assert not member(P, formats.parse_configuration("q1 : X D |", m))

    def test_shrink(self, workdir, capsys):
        m = formats.parse_mpda((workdir / "machine.mpda").read_text())
        start = formats.parse_configuration("q1 : X D |", m)
        w = Witness(start, (m.rules[1], m.rules[3]))
        wfile = workdir / "w.witness"
        wfile.write_text(formats.serialize_witness(w))
        # the source must stay inside the given set; a singleton pins it
        sfile = workdir / "src.regset"
        sfile.write_text(formats.serialize_regset(singleton(m, start)))
        code, record, _ = run(
            capsys, "shrink", str(workdir / "machine.mpda"),
            "--witness", str(wfile), "--set", str(sfile),
        )
        assert code == 0
        assert record["before"] == "q1 : X D | "
        assert record["removed"] == 0

    def test_shrink_takes_a_macro_witness(self, tmp_path, capsys):
        # X1 below X3 is canceled whole, so it is irrelevant and shrinks away
        run(capsys, "gen", "expo:3", "--out", str(tmp_path))
        mfile = str(tmp_path / "machine.mpda")
        wfile, ffile = tmp_path / "macro.witness", tmp_path / "flat.witness"
        code, record, _ = run(
            capsys, "reach", mfile, "--from", "q : X1 X3", "--to", "q : X3",
            "--method", "marked", "--witness", str(wfile),
        )
        assert code == 0 and record["witness_steps"] < record["witness_length"]
        m = formats.parse_mpda(Path(mfile).read_text())
        ffile.write_text(formats.serialize_witness(expand(formats.parse_witness(wfile.read_text(), m))))
        sfile = tmp_path / "any.regset"
        sfile.write_text(
            "regset {\n  state q {\n    nfa 1 { states: s ; initial: s ; edge s X1 s ; edge s X2 s ; edge s X3 s }\n"
            "    accept: (s)\n  }\n}\n"
        )
        records = []
        for witness in (wfile, ffile):
            code, record, _ = run(capsys, "shrink", mfile, "--witness", str(witness), "--set", str(sfile))
            assert code == 0
            records.append(record)
        assert records[0] == records[1]
        assert records[0]["after"] == "q : X3" and records[0]["removed"] == 1

    def test_shrink_takes_the_macro_witness_of_a_huge_run(self, tmp_path, capsys):
        # the top X1 is canceled whole, by 2^17 - 1 flat steps that shrink never builds
        run(capsys, "gen", "expo:17", "--out", str(tmp_path))
        mfile = str(tmp_path / "machine.mpda")
        wfile = tmp_path / "macro.witness"
        code, record, _ = run(
            capsys, "reach", mfile, "--from", "q : X1 X1", "--to", "q : X17",
            "--method", "marked", "--witness", str(wfile),
        )
        assert code == 0 and record["witness_length"] == 2 ** 18 - 3 and record["witness_steps"] < 40
        sfile = tmp_path / "x1s.regset"
        sfile.write_text("regset {\n  state q {\n    nfa 1 { states: s ; initial: s ; edge s X1 s }\n    accept: (s)\n  }\n}\n")
        code, record, _ = run(capsys, "shrink", mfile, "--witness", str(wfile), "--set", str(sfile))
        assert code == 0
        assert (record["before"], record["after"], record["removed"]) == ("q : X1 X1", "q : X1", 1)


# a machine that is strongly normed but not weak: p and q reach each other
CYCLE = "mpda {\n  states: p q\n  stacks: 1\n  alphabet 1: A\n  rule p A -> q : A\n  rule q A -> p : A\n"
STRONGLY_NORMED_CYCLE = CYCLE + "  rule p A -> p :\n  rule q A -> q :\n}\n"
# neither weak nor strongly normed: A is never erased
PLAIN_CYCLE = CYCLE + "}\n"


class TestNonWeakMachines:
    def machine(self, tmp_path, text):
        mfile = tmp_path / "m.mpda"
        mfile.write_text(text)
        return str(mfile)

    def test_auto_picks_the_separator_for_a_strongly_normed_machine(self, tmp_path, capsys):
        code, record, _ = run(capsys, "reach", self.machine(tmp_path, STRONGLY_NORMED_CYCLE), "--from", "p : A", "--to", "q :")
        assert code == 0 and record["method"] == "separator" and record["status"] == "reachable"

    def test_auto_picks_the_oracle_otherwise(self, tmp_path, capsys):
        mfile = self.machine(tmp_path, PLAIN_CYCLE)
        code, record, _ = run(capsys, "reach", mfile, "--from", "p : A", "--to", "q : A")
        assert code == 0 and record["method"] == "oracle" and record["status"] == "reachable"
        code, record, _ = run(capsys, "reach", mfile, "--from", "p : A", "--to", "q :")
        assert code == 1 and record["method"] == "oracle" and record["status"] == "unreachable"

    def test_classify_names_the_cycle(self, tmp_path, capsys):
        code, record, out = run(capsys, "classify", self.machine(tmp_path, STRONGLY_NORMED_CYCLE))
        assert code == 0
        assert record["weak"] is False and record["cycle"][0] == record["cycle"][-1]
        assert set(record["cycle"]) == {"p", "q"}
        assert record["strongly_normed"] is True and record["normed"] is None
        assert "weak: no (cycle: " in out.out and "strongly normed: yes" in out.out.splitlines()
        assert "normed: not checked (machine is not weak)" in out.out


    def test_a_state_below_the_cycle_does_not_crash(self, tmp_path, capsys):
        # q lies below the cycle p -> r -> p; the cycle search once walked
        # forward into it and raised StopIteration (exit 4)
        mfile = self.machine(tmp_path, "mpda {\n  states: p q r\n  stacks: 1\n  alphabet 1: A\n"
                                       "  rule p A -> q :\n  rule p A -> r :\n  rule r A -> p :\n}\n")
        code, record, _ = run(capsys, "classify", mfile)
        assert code == 0 and record["weak"] is False and record["cycle"] == ["p", "r", "p"]
        code, record, _ = run(capsys, "reach", mfile, "--from", "p : A A", "--to", "q : A", "--method", "auto")
        assert code == 0 and record["method"] == "oracle"


# one sample argument list per command, options included
SAMPLE_ARGV = {
    "classify": ["classify", "m.mpda"],
    "reach": ["reach", "m.mpda", "--from", "q : A", "--to", "@k.regset", "--method", "wqo", "--max-explored", "7",
              "--src-cap", "2", "--witness", "w.txt"],
    "gen": ["gen", "expo:3", "--out", "d", "--spec", "s.txt"],
    "regset": ["regset", "m.mpda", "enumerate", "a.regset", "3", "--budget", "9"],
    "pre": ["pre", "m.mpda", "k.regset", "--out", "p.regset"],
    "shrink": ["shrink", "m.mpda", "--witness", "w.txt", "--set", "l.regset"],
}


class TestOneParserPerCommand:
    @pytest.mark.parametrize("cmd", SAMPLE_ARGV)
    def test_parses_as_the_full_parser(self, cmd):
        argv = SAMPLE_ARGV[cmd]
        assert vars(build_parser(cmd).parse_args(argv[1:])) == vars(build_parser().parse_args(argv))

    @pytest.mark.parametrize("cmd", SAMPLE_ARGV)
    def test_help_is_the_subparsers(self, cmd, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args([cmd, "--help"])
        full = capsys.readouterr().out
        assert full.startswith(f"usage: mpda {cmd} ")
        assert build_parser(cmd).format_help() == full
        with pytest.raises(SystemExit):
            main([cmd, "--help"])
        assert capsys.readouterr().out == full

    @pytest.mark.parametrize("cmd", SAMPLE_ARGV)
    def test_usage_errors_name_the_command(self, cmd, capsys):
        code, record, _ = run(capsys, cmd)
        assert code == 3 and record["command"] is None
        assert record["error"].startswith(f"mpda {cmd}: the following arguments are required: ")
        assert record["error"].endswith(f"(see 'mpda {cmd} --help')")

    def test_extra_arguments_are_worded_as_the_full_parser_words_them(self, capsys):
        code, record, _ = run(capsys, *SAMPLE_ARGV["pre"], "extra", "--bogus")
        assert code == 3
        assert record["error"] == "mpda: unrecognized arguments: extra --bogus (see 'mpda --help')"

    def test_help_and_unknown_commands_get_the_full_parser(self, capsys):
        with pytest.raises(SystemExit):
            main(["--help"])
        out = capsys.readouterr().out
        assert out.startswith("usage: mpda [-h] {classify,reach,gen,regset,pre,shrink} ...")
        code, record, _ = run(capsys)
        assert code == 3 and record["error"].startswith("mpda: the following arguments are required: cmd")


class TestSetEndpointErrors:
    def test_the_oracle_needs_a_source_configuration(self, workdir, capsys):
        code, record, _ = run(
            capsys, "reach", str(workdir / "machine.mpda"), "--from", "@" + str(workdir / "target.regset"),
            "--to", "q2 : |", "--method", "oracle",
        )
        assert code == 3 and "the oracle needs a single source configuration" in record["error"]

    def test_wqo_needs_a_target_configuration(self, workdir, capsys):
        code, record, _ = run(
            capsys, "reach", str(workdir / "machine.mpda"), "--from", "q1 : X D |",
            "--to", "@" + str(workdir / "target.regset"), "--method", "wqo",
        )
        assert code == 3 and record["error"] == "--method wqo needs a single target configuration"


class TestGenFamilies:
    def test_nonreg_forward(self, tmp_path, capsys):
        code, record, _ = run(capsys, "gen", "nonreg-forward", "--out", str(tmp_path))
        assert code == 0 and record["family"] == "nonreg-forward"
        m = formats.parse_mpda((tmp_path / "machine.mpda").read_text())
        formats.parse_configuration((tmp_path / "source.cfg").read_text(), m)
        formats.parse_regset((tmp_path / "target.regset").read_text(), m)

    def test_cfg_intersection(self, tmp_path, capsys):
        code, record, _ = run(capsys, "gen", "cfg-intersection", "--out", str(tmp_path / "x"))
        assert code == 3 and record["error"] == "cfg-intersection needs --grammar1 and --grammar2"
        g1, g2 = tmp_path / "g1.txt", tmp_path / "g2.txt"
        g1.write_text("terminals: a b\nnonterminals: S T\nstart: S\nS -> a T\nT -> b\n")
        g2.write_text("terminals: a b\nnonterminals: U\nstart: U\nU -> a U\nU -> b\n")
        code, _, _ = run(capsys, "gen", "cfg-intersection", "--out", str(tmp_path / "x"), "--grammar1", str(g1))
        assert code == 3
        code, record, _ = run(
            capsys, "gen", "cfg-intersection", "--out", str(tmp_path / "c"), "--grammar1", str(g1), "--grammar2", str(g2),
        )
        assert code == 0 and record["family"] == "cfg-intersection"
        mfile = str(tmp_path / "c" / "machine.mpda")
        code, record, _ = run(
            capsys, "reach", mfile, "--from", (tmp_path / "c" / "source.cfg").read_text().strip(),
            "--to", "@" + str(tmp_path / "c" / "target.regset"), "--method", "oracle",
        )
        assert code == 0  # both grammars derive "ab"

    def test_comm_free_needs_a_spec(self, tmp_path, capsys):
        code, record, _ = run(capsys, "gen", "comm-free", "--out", str(tmp_path))
        assert code == 3 and record["error"] == "comm-free needs --spec"

    @pytest.mark.parametrize("spec, error", [
        ("source: 1 0\ntarget: 0 1\n# a comment\nbogus 3\n", "counter spec line 4: unrecognized line"),
        ("source: 1 0\nrule 1 : 0 1\n", "counter spec needs 'source:' and 'target:' lines"),
        ("target: 1 0\n", "counter spec needs 'source:' and 'target:' lines"),
    ])
    def test_bad_counter_specs(self, tmp_path, capsys, spec, error):
        sfile = tmp_path / "spec.txt"
        sfile.write_text(spec)
        code, record, _ = run(capsys, "gen", "comm-free", "--out", str(tmp_path / "c"), "--spec", str(sfile))
        assert code == 3 and record["error"] == error


class TestPunctuationInNames:
    def test_reach_on_a_machine_with_punctuation_in_names_exits_3(self, tmp_path, capsys):
        # the certificate of this unreachable pair once failed to parse back
        mfile = tmp_path / "m.mpda"
        mfile.write_text("mpda {\n  states: q{0}\n  stacks: 1\n  alphabet 1: A;1\n  rule q{0} A;1 -> q{0} :\n}\n")
        cfile = tmp_path / "c.regset"
        code, record, out = run(
            capsys, "reach", str(mfile), "--from", "q{0} : A;1", "--to", "q{0} : A;1 A;1",
            "--method", "separator", "--certificate", str(cfile),
        )
        assert code == 3 and record == {"command": "reach", "error": "line 2: names may not contain '{'"}
        assert not cfile.exists()
        mfile.write_text("mpda {\n  states: q\n  stacks: 1\n  alphabet 1: A;1\n  rule q A;1 -> q :\n}\n")
        code, record, _ = run(capsys, "reach", str(mfile), "--from", "q : A", "--to", "q :")
        assert code == 3 and record["error"] == "line 4: names may not contain ';'"
