"""CLI tests (the §5 standalone tool)."""

import json
import warnings

import pytest

from repro.cli import _client_request, _options, build_parser, main
from repro.core import Compiler

DEMO = """
struct item { long key; long val; long rare1; long rare2; double dead; };
struct item *tab;
int main() {
    int i; int it; long s = 0;
    tab = (struct item*) malloc(300 * sizeof(struct item));
    for (i = 0; i < 300; i++) { tab[i].key = i; tab[i].val = 2 * i;
        tab[i].rare1 = i; tab[i].rare2 = -i; tab[i].dead = 0.1; }
    for (it = 0; it < 10; it++)
        for (i = 0; i < 300; i++) s += tab[i].key + tab[i].val;
    for (i = 0; i < 300; i++) s += tab[i].rare1 - tab[i].rare2;
    printf("s=%ld\\n", s);
    return 0;
}
"""


@pytest.fixture
def demo_file(tmp_path):
    path = tmp_path / "demo.c"
    path.write_text(DEMO)
    return str(path)


class TestAnalyze:
    def test_reports_legality_and_plan(self, demo_file, capsys):
        assert main(["analyze", demo_file]) == 0
        out = capsys.readouterr().out
        assert "record types: 1" in out
        assert "item" in out
        assert "plan=peel" in out

    def test_relax_flag(self, demo_file, capsys):
        assert main(["analyze", "--relax", demo_file]) == 0

    def test_scheme_flag(self, demo_file, capsys):
        assert main(["analyze", "--scheme", "SPBO", demo_file]) == 0

    def test_bad_scheme_rejected(self, demo_file):
        with pytest.raises(SystemExit):
            main(["analyze", "--scheme", "MAGIC", demo_file])


class TestRun:
    def test_executes_and_reports_cycles(self, demo_file, capsys):
        assert main(["run", demo_file]) == 0
        out = capsys.readouterr().out
        assert "s=" in out
        assert "cycles]" in out

    def test_stats_flag(self, demo_file, capsys):
        main(["run", "--stats", demo_file])
        out = capsys.readouterr().out
        assert "L1D" in out

    def test_exit_code_propagates(self, tmp_path, capsys):
        p = tmp_path / "f.c"
        p.write_text("int main() { return 3; }")
        assert main(["run", str(p)]) == 3


class TestProgramWithoutMain:
    @pytest.mark.parametrize("command", ["run", "compare"])
    def test_program_without_main_is_one_error_line(self, command,
                                                     tmp_path, capsys):
        path = tmp_path / "nomain.c"
        path.write_text("int f() { return 1; }\n")
        assert main([command, str(path)]) == 1
        err = capsys.readouterr().err
        assert "Traceback" not in err
        lines = [ln for ln in err.splitlines() if ln.startswith("repro:")]
        assert lines == ["repro: error: cannot run the program: "
                         "no function 'main'"]


#: programs the simulator cannot run to completion -> why, as the CLI
#: says it
UNRUNNABLE = {
    "no-main": ("int f() { return 1; }\n",
                "cannot run the program: no function 'main'"),
    "invalid-free": ("int main() { int *p = 0; free(p+1); return 0; }\n",
                     "program trapped: MemoryError_: invalid free of 0x4"),
    "divide-by-zero": ("int main() { int z = 0; printf(\"%d\\n\", 5 / z);"
                       " return 0; }\n",
                       "program trapped: ZeroDivisionError: integer "
                       "division or modulo by zero"),
}


class TestProgramThatTraps:
    @pytest.mark.parametrize("command", ["run", "compare"])
    @pytest.mark.parametrize("program", ["invalid-free", "divide-by-zero"])
    def test_trap_is_one_error_line(self, command, program, tmp_path,
                                    capsys):
        source, reason = UNRUNNABLE[program]
        path = tmp_path / "trap.c"
        path.write_text(source)
        assert main([command, str(path)]) == 1
        err = capsys.readouterr().err
        assert "Traceback" not in err
        lines = [ln for ln in err.splitlines() if ln.startswith("repro:")]
        assert lines == [f"repro: error: {reason}"]


class TestCycleLimit:
    @pytest.mark.parametrize("command", ["run", "compare"])
    def test_exceeded_limit_is_one_error_line(self, command, demo_file,
                                              capsys):
        assert main([command, "--cycle-limit", "100", demo_file]) == 1
        err = capsys.readouterr().err
        assert "Traceback" not in err
        lines = [ln for ln in err.splitlines() if ln.startswith("repro:")]
        assert lines == ["repro: error: program ran past --cycle-limit "
                         "(100 cycles)"]

    @pytest.mark.parametrize("command", ["run", "compare"])
    @pytest.mark.parametrize("limit", ["0", "-3"])
    def test_limit_below_one_is_a_usage_error(self, command, limit,
                                              demo_file, capsys):
        with pytest.raises(SystemExit) as exc:
            main([command, "--cycle-limit", limit, demo_file])
        assert exc.value.code == 2
        assert "--cycle-limit: must be a positive integer" \
            in capsys.readouterr().err


class TestTransform:
    def test_emits_source_to_stdout(self, demo_file, capsys):
        assert main(["transform", demo_file]) == 0
        out = capsys.readouterr().out
        assert "struct item__p0" in out
        assert "malloc" in out

    def test_output_file(self, demo_file, tmp_path, capsys):
        out_file = tmp_path / "out.c"
        assert main(["transform", demo_file, "-o", str(out_file)]) == 0
        assert "struct item__p0" in out_file.read_text()

    def test_transformed_source_recompiles(self, demo_file, tmp_path,
                                           capsys):
        out_file = tmp_path / "out.c"
        main(["transform", demo_file, "-o", str(out_file)])
        capsys.readouterr()
        assert main(["run", str(out_file)]) == 0
        assert "s=" in capsys.readouterr().out

    def test_peel_mode_flag(self, demo_file, capsys):
        # no cold fields here, so hot-cold grouping degenerates to a
        # single piece: the framework falls back to dead-field removal
        assert main(["transform", "--peel-mode", "hot-cold",
                     demo_file]) == 0
        out = capsys.readouterr().out
        assert "struct item" in out
        assert "double dead;" not in out

    def test_ts_flag_changes_split(self, demo_file, capsys):
        assert main(["transform", "--ts", "0.0001", demo_file]) == 0


class TestLayoutFlags:
    """``--ts`` / ``--peel-mode`` tune the greedy heuristics without a
    warning and without turning on the search; ``--search`` takes only
    the search engine's own keys."""

    def test_search_rejects_greedy_floor_keys(self, demo_file, capsys):
        for key in ("ts", "peel"):
            argv = ["analyze", "--search", f"{key}=5", demo_file]
            assert main(argv) == 2
            err = capsys.readouterr().err
            assert f"unknown --search key '{key}'" in err

    @pytest.mark.parametrize("spec", ["ilp", "engine=auto"])
    def test_retired_engine_is_one_usage_error(self, spec, demo_file,
                                               capsys):
        assert main(["transform", "--search", spec, demo_file]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "Traceback" not in err
        assert err.startswith("repro: error: unknown search engine")
        assert "expected one of greedy, sa" in err

    def test_ts_and_peel_mode_do_not_warn_or_search(self, demo_file,
                                                     capsys):
        argv = ["transform", "--ts", "0.0001", "--peel-mode", "hot-cold",
                demo_file]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(argv) == 0
            options = _options(build_parser().parse_args(argv)).options
        assert [str(w.message) for w in caught] == []
        assert options.search is None
        assert options.params.ts_static == 0.0001
        assert options.params.peel_mode == "hot-cold"
        result = Compiler(options).compile_sources([("demo.c", DEMO)])
        assert result.search == {}

    def test_client_builds_the_same_options(self, demo_file):
        args = build_parser().parse_args(
            ["client", "transform", "--ts", "5", "--peel-mode",
             "affinity", "--socket", "unused.sock", demo_file])
        wire = _client_request(args).to_wire()
        assert wire["options"] == {"ts": 5.0, "peel_mode": "affinity"}


class TestCompare:
    def test_reports_effect(self, demo_file, capsys):
        assert main(["compare", demo_file]) == 0
        out = capsys.readouterr().out
        assert "effect   :" in out
        assert "item" in out


class TestAdvise:
    def test_report_printed(self, demo_file, capsys):
        assert main(["advise", demo_file]) == 0
        out = capsys.readouterr().out
        assert "Type     : item" in out
        assert "scenario advice" in out

    def test_profile_mode(self, demo_file, capsys):
        assert main(["advise", "--profile", demo_file]) == 0
        out = capsys.readouterr().out
        assert "miss :" in out

    def test_vcg_output(self, demo_file, tmp_path, capsys):
        vcg = tmp_path / "g.vcg"
        assert main(["advise", demo_file, "--vcg", str(vcg)]) == 0
        assert vcg.read_text().startswith("graph: {")


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_multi_file_program(self, tmp_path, capsys):
        a = tmp_path / "a.c"
        b = tmp_path / "b.c"
        a.write_text("struct s { long v; }; struct s *g;\n"
                     "long touch(void);\n"
                     "int main() { g = (struct s*) malloc(8 * "
                     "sizeof(struct s)); g[0].v = touch(); "
                     "printf(\"%ld\", g[0].v); return 0; }")
        b.write_text("long touch(void) { return 42; }")
        assert main(["run", str(a), str(b)]) == 0
        assert "42" in capsys.readouterr().out


class TestFarmUsage:
    @pytest.mark.parametrize("extra,message", [
        (["--config", "none.json"], "cannot read cluster config"),
        (["--config", "cluster.json", "--ha-peers", ","],
         "no endpoints"),
        # external shards take their own `repro serve --tenant-rate`
        (["--config", "cluster.json", "--tenant-rate", "5"],
         "--tenant-rate"),
    ], ids=["missing-config", "empty-ha-peers", "quota"])
    def test_bad_routing_setup_is_one_usage_error(self, extra, message,
                                                  tmp_path, monkeypatch,
                                                  capsys):
        """``repro farm --config`` refuses a bad setup with one
        ``repro: error:`` line and exit 2.  (The socket's directory does
        not exist, so a router that started anyway could not bind.)"""
        monkeypatch.chdir(tmp_path)
        (tmp_path / "cluster.json").write_text(json.dumps({"shards": [
            {"name": "s0", "socket": str(tmp_path / "s0.sock")}]}))
        code = main(["farm", "--socket", str(tmp_path / "none" / "r.sock"),
                     *extra])
        err = capsys.readouterr().err
        assert code == 2
        assert err.count("\n") == 1 and "Traceback" not in err
        assert err.startswith("repro: error: ") and message in err


class TestAdviseMT:
    def test_mt_flag(self, demo_file, capsys):
        assert main(["advise", "--mt", demo_file]) == 0
        out = capsys.readouterr().out
        assert "Multi-threaded layout advice" in out
