from conftest import corpus_path, fixture_path, run_cli


def test_run_good_script_exits_zero(tmp_path):
    script = tmp_path / "ok.njxl"
    script.write_text("print('fine')\n")
    code, out, err = run_cli(["run", str(script)])
    assert (code, out, err) == (0, "fine\n", "")


def test_run_fizzbuzz_golden():
    code, out, err = run_cli(["run", corpus_path("fizzbuzz.njxl")])
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 15
    assert lines[-1] == "FizzBuzz"


def test_parse_error_script_exits_one(tmp_path):
    script = tmp_path / "broken.njxl"
    script.write_text("x = (\n")
    code, out, err = run_cli(["run", str(script)])
    assert code == 1
    assert "ParseError" in err
    assert "line" in err


def test_runtime_error_script_exits_one(tmp_path):
    script = tmp_path / "boom.njxl"
    script.write_text("print('before')\n1/0\n")
    code, out, err = run_cli(["run", str(script)])
    assert code == 1
    assert out == "before\n"
    assert "DivideByZero" in err


def test_missing_file_exits_one():
    code, out, err = run_cli(["run", "missing.njxl"])
    assert code == 1
    assert "FileNotFound" in err


def test_bad_flags_exit_two():
    bad = (
        ["--frobnicate"],
        ["run"],
        ["--eval"],
        ["--ast"],
        ["--eval", "y", "run", "x"],
        ["--seed-clock", "-5"],
        ["--map-url", "noequals"],
    )
    for argv in bad:
        code, _, err = run_cli(argv)
        assert code == 2, argv
        assert "usage" in err


def test_eval_prints_canonical_value():
    assert run_cli(["--eval", "1+1"]) == (0, "2\n", "")
    assert run_cli(["--eval", "null"]) == (0, "null\n", "")
    assert run_cli(["--eval", "sortd([1,3,2])"]) == (0, "[3, 2, 1]\n", "")


def test_eval_error_exits_one():
    code, _, err = run_cli(["--eval", "1/0"])
    assert code == 1 and "DivideByZero" in err


def test_eval_stray_return_is_a_syntax_error():
    code, _, err = run_cli(["--eval", "list{ return 1 }([1])"])
    assert (code, err) == (1, "SyntaxError: 'return' outside a function\n")


def test_ast_dump(tmp_path):
    script = tmp_path / "small.njxl"
    script.write_text("x = 1 + 2\n")
    code, out, err = run_cli(["--ast", str(script)])
    assert code == 0
    assert out.startswith("Program (1:1)")
    assert "Binary + (1:5)" in out
    # dumping runs nothing: the print shows up as a Call node, not as output
    script2 = tmp_path / "effect.njxl"
    script2.write_text("print('side effect')\n")
    code2, out2, _ = run_cli(["--ast", str(script2)])
    assert code2 == 0
    assert "Call" in out2
    assert "side effect" not in out2.splitlines()


def test_script_args_reach_the_script(tmp_path):
    script = tmp_path / "args.njxl"
    script.write_text("print(#|__args__|)\nprint(__args__[0])\n")
    code, out, _ = run_cli(["run", str(script), "--", "alpha", "beta"])
    assert code == 0 and out == "2\nalpha\n"
    code2, out2, _ = run_cli(["run", str(script), "gamma"])
    assert code2 == 0 and out2 == "1\ngamma\n"


def test_seed_clock_makes_benchmark_deterministic():
    argv = [
        "--seed-clock",
        "1000",
        "--map-url",
        "http://www.google.co.in=" + fixture_path("page.txt"),
        "run",
        corpus_path("benchmark.njxl"),
    ]
    assert run_cli(argv) == (0, "1000\n", "")
    argv[1] = "77"
    assert run_cli(argv) == (0, "77\n", "")


def test_njexl_path_import_search(tmp_path, monkeypatch):
    lib = tmp_path / "lib"
    lib.mkdir()
    (lib / "mathy.njxl").write_text("def triple(x){ x * 3 }\n")
    script = tmp_path / "uses.njxl"
    script.write_text("import 'mathy.njxl' as M\nprint(M:triple(5))\n")
    monkeypatch.setenv("NJEXL_PATH", str(lib))
    code, out, _ = run_cli(["run", str(script)])
    assert code == 0 and out == "15\n"


def test_njexl_path_multiple_entries(tmp_path, monkeypatch):
    import os

    first, second = tmp_path / "first", tmp_path / "second"
    first.mkdir()
    second.mkdir()
    (second / "only.njxl").write_text("def tag(){ 'from second' }\n")
    script = tmp_path / "uses.njxl"
    script.write_text("import 'only.njxl' as O\nprint(O:tag())\n")
    monkeypatch.setenv("NJEXL_PATH", os.pathsep.join([str(first), str(second)]))
    code, out, _ = run_cli(["run", str(script)])
    assert code == 0 and out == "from second\n"


# --- REPL ---------------------------------------------------------------------


def test_repl_persistence_transcript():
    code, out, err = run_cli([], "x = 2\nx * 21\n:quit\n")
    assert code == 0
    assert out == "42\n"
    assert err == ""


def test_repl_error_capture_transcript():
    code, out, err = run_cli([], "#(o,:e) = int('zz')\ne\n:quit\n")
    assert code == 0
    assert "NumberFormatError" in out
    assert err == ""


def test_repl_error_recovery():
    code, out, err = run_cli([], "1/0\n40 + 2\n:quit\n")
    assert code == 0
    assert "DivideByZero" in err
    assert out == "42\n"


def test_repl_continuation_of_open_brackets():
    code, out, err = run_cli([], "(\n1)\n:quit\n")
    assert code == 0 and out == "1\n"
    code2, out2, _ = run_cli([], "xs = [1,\n2]\n#|xs|\n:quit\n")
    assert code2 == 0 and out2 == "2\n"
    code3, out3, _ = run_cli([], "def f(a){\na + 1\n}\nf(41)\n:quit\n")
    assert code3 == 0 and out3 == "42\n"


def test_repl_definitions_do_not_echo():
    code, out, _ = run_cli([], "x = 5\ndef f(){ 1 }\nimport 'java.lang.Integer' as Int\n:quit\n")
    assert code == 0 and out == ""


def test_repl_import_persists_for_static_calls():
    code, out, err = run_cli(
        [], "import 'java.lang.Integer' as Int\nInt:parseInt('41') + 1\n:quit\n"
    )
    assert code == 0 and out == "42\n" and err == ""


def test_repl_eof_exits_zero():
    assert run_cli([], "1 + 1\n") == (0, "2\n", "")


def test_repl_n_definitions_remain_visible():
    lines = [f"v{i} = {i}" for i in range(10)]
    lines.append("v0 + v1 + v2 + v3 + v4 + v5 + v6 + v7 + v8 + v9")
    lines.append(":quit")
    code, out, _ = run_cli([], "\n".join(lines) + "\n")
    assert code == 0 and out == "45\n"
