"""Tests for the command-line interface."""

import io
import json

import pytest

from repro.cli import (
    main,
    run_demo,
    run_experiments,
    run_profile,
    run_repl,
    run_top,
    run_trace,
)


def repl(script: str, **kwargs) -> str:
    out = io.StringIO()
    code = run_repl(stdin=io.StringIO(script), out=out, **kwargs)
    assert code == 0
    return out.getvalue()


class TestDemo:
    def test_demo_runs(self):
        out = io.StringIO()
        assert run_demo(out=out) == 0
        text = out.getvalue()
        assert "found: HyperFile" in text
        assert "response time" in text

    def test_demo_via_main(self, capsys):
        assert main(["demo"]) == 0
        assert "found:" in capsys.readouterr().out


class TestRepl:
    def test_query_and_quit(self):
        text = repl(
            'Root [ (Pointer, "Tree", ?X) | ^^X ]* (Rand10p, 5, ?) -> Hits\n:quit\n',
            n_objects=90,
        )
        assert "objects in" in text
        assert "bye" in text

    def test_result_sets_persist(self):
        text = repl(
            'Root [ (Pointer, "Tree", ?X) | ^^X ]* (Common, 0, ?) -> Everything\n'
            "Everything (Rand10p, 5, ?) -> Narrow\n"
            ":sets\n:quit\n",
            n_objects=90,
        )
        assert "Everything: 90 objects" in text
        assert "Narrow:" in text

    def test_retrieval_bindings_printed(self):
        text = repl('All (Unique, 3, ?) (Text, "Body", ->body) -> One\n:quit\n', n_objects=90)
        assert "->body:" in text

    def test_error_reported_not_fatal(self):
        text = repl("NoSuchSet (Common, 0, ?) -> X\n:quit\n", n_objects=90)
        assert "error:" in text and "bye" in text

    def test_syntax_error_reported(self):
        text = repl("Root (((\n:quit\n", n_objects=90)
        assert "error:" in text

    def test_members_and_stats(self):
        text = repl(":members Root\n:stats\n:quit\n", n_objects=90)
        assert "site0:0" in text
        assert "messages sent" in text

    def test_trace_cycle(self):
        text = repl(
            ":trace on\nRoot (Unique, 0, ?) -> Self\n:timeline 3\n:trace off\n:quit\n",
            n_objects=90,
        )
        assert "tracing on" in text
        assert "submit" in text
        assert "tracing off" in text

    def test_timeline_without_tracing(self):
        text = repl(":timeline\n:quit\n", n_objects=90)
        assert "tracing is off" in text

    def test_profile_after_traced_query(self):
        text = repl(
            ":trace on\nRoot (Unique, 0, ?) -> Self\n:profile\n:quit\n",
            n_objects=90,
        )
        assert "span tree OK" in text
        assert "critical path" in text

    def test_profile_without_tracing(self):
        text = repl(":profile\n:quit\n", n_objects=90)
        assert "tracing is off" in text

    def test_profile_before_any_query(self):
        text = repl(":trace on\n:profile\n:quit\n", n_objects=90)
        assert "no query run yet" in text

    def test_export_chrome_and_jsonl(self, tmp_path):
        chrome = tmp_path / "trace.json"
        jsonl = tmp_path / "trace.jsonl"
        text = repl(
            f":trace on\nRoot (Unique, 0, ?) -> Self\n"
            f":export {chrome}\n:export {jsonl}\n:quit\n",
            n_objects=90,
        )
        assert "Perfetto" in text
        doc = json.loads(chrome.read_text())
        assert doc["traceEvents"]
        assert all(json.loads(line) for line in jsonl.read_text().splitlines())

    def test_export_usage_errors(self):
        assert "tracing is off" in repl(":export /tmp/x.json\n:quit\n", n_objects=90)
        assert "usage: :export" in repl(":trace on\n:export\n:quit\n", n_objects=90)

    def test_unknown_meta_command(self):
        text = repl(":frobnicate\n:quit\n", n_objects=90)
        assert "unknown command" in text

    def test_help(self):
        text = repl(":help\n:quit\n", n_objects=90)
        assert ":members" in text

    def test_eof_exits_cleanly(self):
        assert "bye" not in repl("", n_objects=90)


class TestTraceAndProfile:
    def test_trace_writes_validated_exports(self, tmp_path):
        out = io.StringIO()
        chrome = tmp_path / "fig4.json"
        jsonl = tmp_path / "fig4.jsonl"
        code = run_trace(
            sites=3, n_objects=90, jsonl=str(jsonl), chrome=str(chrome),
            validate=True, out=out,
        )
        assert code == 0
        text = out.getvalue()
        assert "span tree OK" in text
        assert "chrome trace schema OK" in text
        doc = json.loads(chrome.read_text())
        assert {e["ph"] for e in doc["traceEvents"]} >= {"M", "i"}
        assert jsonl.read_text().count("\n") > 50

    def test_trace_without_exports_prints_lanes(self):
        out = io.StringIO()
        assert run_trace(sites=3, n_objects=90, out=out) == 0
        assert "|" in out.getvalue()  # the swim-lane grid

    def test_profile_prints_all_sections(self):
        out = io.StringIO()
        assert run_profile(sites=3, n_objects=90, out=out) == 0
        text = out.getvalue()
        assert "span tree OK" in text
        assert "critical path" in text
        assert "credit audit" in text

    def test_via_main(self, capsys, tmp_path):
        chrome = tmp_path / "t.json"
        assert main(["trace", "--objects", "90", "--chrome", str(chrome), "--validate"]) == 0
        assert "schema OK" in capsys.readouterr().out
        assert main(["profile", "--objects", "90"]) == 0
        assert "critical path" in capsys.readouterr().out

    def test_trace_dumps_flight_ring(self, tmp_path):
        out = io.StringIO()
        code = run_trace(sites=3, n_objects=90, flightrec=str(tmp_path), out=out)
        assert code == 0
        assert "flight recorder:" in out.getvalue()
        dumps = sorted(tmp_path.glob("flightrec-*-cli.jsonl"))
        assert dumps and dumps[0].read_text().count("\n") > 0

    @pytest.mark.parametrize("transport", ["sim", "threaded", "async"])
    def test_trace_accepts_every_transport(self, transport):
        out = io.StringIO()
        assert run_trace(sites=3, n_objects=30, out=out, transport=transport) == 0
        assert "span tree OK" in out.getvalue()

    def test_processes_requires_async_transport(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["trace", "--processes"])
        assert excinfo.value.code == 2
        assert "--transport async" in capsys.readouterr().err

    def test_trace_and_profile_across_processes(self):
        out = io.StringIO()
        code = run_trace(
            sites=3, n_objects=30, out=out, transport="async", processes=True
        )
        assert code == 0
        assert "span tree OK" in out.getvalue()
        out = io.StringIO()
        code = run_profile(
            sites=3, n_objects=30, out=out, transport="async", processes=True
        )
        assert code == 0
        assert "critical path" in out.getvalue()


class TestTop:
    def test_sim_frames_have_all_sites(self):
        out = io.StringIO()
        assert run_top(sites=3, n_objects=90, frames=4, out=out) == 0
        text = out.getvalue()
        assert "frame(s)" in text
        assert "site0" in text and "site1" in text and "site2" in text
        assert "msgs_out" in text

    def test_via_main(self, capsys):
        assert main(["top", "--objects", "90", "--frames", "2"]) == 0
        assert "frame(s)" in capsys.readouterr().out

    def test_process_mode_streams_from_children(self):
        out = io.StringIO()
        code = run_top(
            sites=3, n_objects=30, frames=6, out=out,
            transport="async", processes=True,
        )
        assert code == 0
        text = out.getvalue()
        assert "monotonic clock" in text
        assert "site0" in text


class TestExperiments:
    def test_quick_tables(self):
        out = io.StringIO()
        assert run_experiments(1, out=out) == 0
        text = out.getvalue()
        assert "paper" in text and "Chain" in text and "Tree" in text

    def test_via_main(self, capsys):
        assert main(["experiments", "-n", "1"]) == 0
        assert "measured_s" in capsys.readouterr().out


class TestExplore:
    def test_sweep_reports_equivalence(self):
        from repro.cli import run_explore

        out = io.StringIO()
        assert run_explore(n_runs=25, out=out) == 0
        text = out.getvalue()
        assert "distinct interleavings: 25" in text
        assert "oracle-equal results:   25" in text
        assert "zero credit deficit:    25" in text
        assert "every schedule equivalent and credit-exact" in text

    def test_reordering_only_mode(self):
        from repro.cli import run_explore

        out = io.StringIO()
        assert run_explore(n_runs=10, crashes=False, out=out) == 0
        assert "reordering only" in out.getvalue()

    def test_via_main(self, capsys):
        assert main(["explore", "-n", "10"]) == 0
        assert "explored 10 schedules" in capsys.readouterr().out

    def test_membership_mode_with_signature_log(self, tmp_path):
        from repro.cli import run_explore

        out = io.StringIO()
        sig_log = tmp_path / "sigs.log"
        assert run_explore(
            n_runs=12, membership=True, sig_log=str(sig_log), out=out
        ) == 0
        text = out.getvalue()
        assert "membership churn" in text
        assert "k restored at quiesce:  12" in text
        assert "objects lost:           0" in text
        lines = sig_log.read_text().splitlines()
        assert len(lines) == 12
        assert len(set(lines)) == 12  # every run logged a distinct walk

    def test_membership_rejects_replica_free(self):
        from repro.cli import run_explore

        out = io.StringIO()
        assert run_explore(n_runs=5, k=1, membership=True, out=out) == 2
        assert "k >= 2" in out.getvalue()


class TestCacheStats:
    def test_counters_and_savings(self):
        from repro.cli import run_cache_stats

        out = io.StringIO()
        assert run_cache_stats(n_objects=60, n_queries=3, out=out) == 0
        text = out.getvalue()
        assert "cache counters" in text
        assert "query_hit" in text and "bloom_supp" in text
        assert "remote work messages" in text
        # The repeated script must actually save remote work.
        assert "0 saved" not in text

    def test_via_main(self, capsys):
        assert main(["cache-stats", "-n", "2", "--objects", "60"]) == 0
        assert "uncached" in capsys.readouterr().out


class TestQoSStats:
    def test_counters_and_protection(self):
        from repro.cli import run_qos_stats

        out = io.StringIO()
        assert run_qos_stats(n_objects=60, n_queries=4, out=out) == 0
        text = out.getvalue()
        assert "qos counters" in text
        assert "bp_trans" in text and "throttled" in text
        # The burst overruns both tenants' buckets deterministically
        # (every arrival lands at virtual t=0, tokens refill at 0.2/s).
        assert "2 interactive + 2 batch bounced" in text
        assert "shed partials:" in text
        assert "termination credit: exact" in text
        assert "LEAKED" not in text

    def test_via_main(self, capsys):
        assert main(["qos-stats", "-n", "3", "--objects", "60"]) == 0
        assert "with qos" in capsys.readouterr().out
