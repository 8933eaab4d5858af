"""CLI surface: parsing, output formats, exit codes, file ingestion."""
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from wreathfock import cli, groups, gsets
from wreathfock.cli import (MAX_SERIES_DEGREE, MAX_SERIES_EXPONENT, main,
                            parse_group, parse_gset)
from wreathfock.fock import graded_dim
from wreathfock.groups import GroupError, cyclic, symmetric


class TestParsing:
    def test_shorthand(self):
        assert parse_group("z4").order == 4
        assert parse_group("s3").order == 6
        assert parse_group("d4").order == 8
        assert parse_group("q8").order == 8
        assert parse_group("bd3").order == 12

    def test_builtin_prefix_and_param(self):
        assert parse_group("builtin:cyclic:5").order == 5
        assert parse_group("sl2_f3").order == 24
        with pytest.raises(GroupError):
            parse_group("no_such_group")

    def test_gset_specs(self):
        g = symmetric(3)
        assert parse_gset("pt", g).size == 1
        assert parse_gset("regular", g).size == 6


class TestCommands:
    def test_series_euler_product(self, capsys):
        assert main(["series", "euler-product", "-e", "1", "-N", "5"]) == 0
        assert capsys.readouterr().out.strip() == "1 1 2 3 5 7"

    @pytest.mark.parametrize("argv,want", [
        (["euler-product", "-e", "-3", "-N", "6"], "1 -3 0 5 0 0 -7"),
        (["graded-dim", "--d0", "2", "--d1", "3", "-N", "6"],
         "1 5 17 50 130 311 700"),
    ])
    def test_series_stdout(self, argv, want, capsys):
        assert main(["series", *argv]) == 0
        assert capsys.readouterr().out == want + "\n"

    @pytest.mark.parametrize("argv,message", [
        (["euler-product", "-N", "-1"], "truncation order must be >= 0"),
        (["graded-dim", "-N", "-1"], "truncation order must be >= 0"),
        (["graded-dim", "--d0", "-1"], "dimensions must be nonnegative"),
        (["graded-dim", "--d1", "-1"], "dimensions must be nonnegative"),
    ])
    def test_bad_series_arguments_exit_2(self, argv, message, capsys):
        assert main(["series", *argv]) == 2
        assert capsys.readouterr() == ("", f"error: {message}\n")

    @pytest.mark.parametrize("argv", [
        ["euler-product", "-N", "100000000"],
        ["euler-product", "-e", "3", "-N", "2001"],
        ["graded-dim", "--d0", "3", "--d1", "2", "-N", "100000000"],
        ["graded-dim", "-N", "2001"],
    ])
    def test_series_degree_above_cap_exit_2(self, argv, capsys):
        """The q-series recurrence is quadratic in -N: above the cap it is
        refused before any coefficient is computed."""
        assert main(["series", *argv]) == 2
        got = argv[argv.index("-N") + 1]
        assert capsys.readouterr() == (
            "", f"error: -N must be <= {MAX_SERIES_DEGREE}, got {got}\n")

    @pytest.mark.parametrize("what", ["euler-product", "graded-dim"])
    def test_series_degree_at_cap(self, what, capsys):
        assert main(["series", what, "-N", str(MAX_SERIES_DEGREE)]) == 0
        coeffs = capsys.readouterr().out.split()
        assert len(coeffs) == MAX_SERIES_DEGREE + 1
        assert coeffs[:6] == ["1", "1", "2", "3", "5", "7"]

    def test_series_help_states_the_cap(self, capsys):
        with pytest.raises(SystemExit):
            main(["series", "--help"])
        assert f"at most {MAX_SERIES_DEGREE}" in capsys.readouterr().out

    @pytest.mark.parametrize("flag,what,size", [
        ("-e", "euler-product", MAX_SERIES_EXPONENT),
        ("-e", "euler-product", -MAX_SERIES_EXPONENT),
        ("--d0", "graded-dim", MAX_SERIES_EXPONENT),
        ("--d1", "graded-dim", MAX_SERIES_EXPONENT)])
    def test_series_exponent_cap(self, flag, what, size, capsys):
        """The digits of the coefficients grow with |-e|, --d0 and --d1:
        one past the cap is refused before any coefficient is computed,
        the cap itself runs."""
        assert main(["series", what, flag, str(size)]) == 0
        assert len(capsys.readouterr().out.split()) == 6
        past = size + (1 if size > 0 else -1)
        assert main(["series", what, flag, str(past)]) == 2
        got = {"-e": 1, "--d0": 1, "--d1": 0} | {flag: past}
        assert capsys.readouterr() == ("", (
            f"error: |-e|, --d0, --d1 must be <= {MAX_SERIES_EXPONENT}, "
            f"got {got['-e']}, {got['--d0']}, {got['--d1']}\n"))

    def test_series_negative_dimension_keeps_its_refusal(self, capsys):
        assert main(["series", "graded-dim", "--d0",
                     str(-2 * MAX_SERIES_EXPONENT)]) == 2
        assert capsys.readouterr() == (
            "", "error: dimensions must be nonnegative\n")

    def test_series_huge_exponent_refused_at_once(self, capsys):
        """-e 10^40 at the degree cap would run for minutes: it is refused
        before the recurrence starts."""
        assert main(["series", "euler-product", "-e", str(10 ** 40),
                     "-N", str(MAX_SERIES_DEGREE)]) == 2
        assert capsys.readouterr().err.startswith("error: |-e|")

    def test_series_help_states_the_exponent_cap(self, capsys):
        with pytest.raises(SystemExit):
            main(["series", "--help"])
        out = " ".join(capsys.readouterr().out.split())
        assert f"|-e|, --d0, --d1 are at most {MAX_SERIES_EXPONENT}" in out

    def test_series_graded_dim_group(self, capsys):
        assert main(["series", "graded-dim", "--group", "z2", "-N", "4"]) == 0
        assert capsys.readouterr().out.strip() == "1 2 5 10 20"

    @pytest.mark.parametrize("group", ["z2", "s3", "q8"])
    def test_series_graded_dim_counts_types(self, group, capsys):
        """The CLI counts by the integer recurrence; graded_dim lists the
        types of each degree."""
        for n in range(7):
            assert main(["series", "graded-dim", "--group", group,
                         "-N", str(n)]) == 0
            want = " ".join(map(str, graded_dim(parse_group(group), n)))
            assert capsys.readouterr().out == want + "\n"

    def test_group_info_json(self, capsys):
        assert main(["group", "info", "--group", "s3",
                     "--format", "json"]) == 0
        info = json.loads(capsys.readouterr().out)
        assert info["order"] == 6 and info["num_classes"] == 3

    def test_wreath_types(self, capsys):
        assert main(["wreath", "types", "--group", "z2", "-N", "2"]) == 0
        assert len(capsys.readouterr().out.strip().splitlines()) == 5

    @pytest.mark.parametrize("what", ["types", "zrho"])
    def test_wreath_listing_above_limit_exit_2(self, what, capsys):
        """S3 has 16,790,136 types of degree 30: refused before listing."""
        assert main(["wreath", what, "--group", "s3", "-N", "30"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == ("error: degree-30 types exceed limit 50000 "
                       "(57222 at degree 16)\n")
        assert main(["wreath", what, "--group", "z2", "-N", "2",
                     "--limit", "4"]) == 2

    def test_graded_dim_above_limit_exit_2(self, capsys):
        """series graded-dim takes no --limit; it is bounded by the same
        default before any type is listed."""
        assert main(["series", "graded-dim", "--group", "s3", "-N", "30"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == ("error: degree-30 types exceed limit 50000 "
                       "(57222 at degree 16)\n")

    def test_graded_dim_negative_degree_exit_2(self, capsys):
        assert main(["series", "graded-dim", "--group", "z2", "-N", "-1"]) == 2
        assert capsys.readouterr() == ("", "error: degree must be >= 0\n")

    def test_wreath_classes_negative_degree_exit_2(self, capsys):
        assert main(["wreath", "classes", "--group", "s3", "-N", "-1"]) == 2
        assert capsys.readouterr() == ("", "error: degree must be >= 0\n")

    def test_mackey_lattice_cap_before_embeddings(self, capsys, monkeypatch):
        """sl2_f5 has 76 subgroups: refused while the lattice grows, before
        any subgroup is built."""
        built = []
        monkeypatch.setattr(groups, "subgroup_from_elements",
                            lambda *args: built.append(args))
        assert main(["verify", "mackey", "--group", "sl2_f5"]) == 2
        out, err = capsys.readouterr()
        assert out == "" and built == []
        assert err == "error: subgroup lattice exceeds cap 40\n"

    @pytest.mark.parametrize("order", [360, 720])
    def test_mackey_order_cap_before_lattice(self, order, capsys,
                                             monkeypatch):
        """A cyclic group of order past the Mackey cap is refused before
        its subgroup lattice is built."""
        built = []
        monkeypatch.setattr(groups, "all_subgroup_element_sets",
                            lambda *args: built.append(args))
        assert main(["verify", "mackey", "--group", f"z{order}"]) == 2
        assert built == []
        assert capsys.readouterr() == (
            "", f"error: group order {order} exceeds Mackey cap 120\n")

    def test_verify_all_records_the_mackey_order_cap(self, capsys,
                                                     monkeypatch):
        """verify all keeps its other suites and records the refused
        Mackey sweep as skipped, with the cap as witness."""
        monkeypatch.setattr(groups, "MAX_MACKEY_ORDER", 5)
        assert main(["verify", "all", "--group", "s3", "-N", "1"]) == 0
        out = capsys.readouterr().out
        assert "[PASS] Mackey sweep skipped  (group order 6 exceeds " \
               "Mackey cap 5)\n" in out

    @pytest.mark.parametrize("what", ["hopf", "lambda", "heisenberg", "all"])
    def test_verify_degree_past_type_limit_exit_2(self, what, capsys,
                                                  monkeypatch):
        """The suites that enumerate every type to -N are refused by the
        type count, before any suite runs; -N 9 on S3 (1479 types at
        degree 9) is let through."""
        ran = []
        for name in ("hopf_verify", "lambda_verify", "heisenberg_verify",
                     "euler_verify", "mackey_verify"):
            monkeypatch.setattr(cli, name, lambda g, *args, name=name,
                                **kw: ran.append((name, args)) or
                                cli.Report(name))
        assert main(["verify", what, "--group", "s3", "-N", "30"]) == 2
        assert ran == []
        assert capsys.readouterr() == (
            "", "error: degree-30 types exceed limit 50000 "
                "(57222 at degree 16)\n")
        assert main(["verify", what, "--group", "s3", "-N", "9"]) == 0
        assert ran

    @pytest.mark.parametrize("spec, error", [
        ("z2001", "group order 2001 exceeds cap 2000"),
        ("d1001", "group order 2002 exceeds cap 2000"),
        ("bd501", "group order 2004 exceeds cap 2000"),
        ("s7", "group order exceeds cap 2000")])
    def test_group_past_order_cap_builds_no_table(self, spec, error, capsys,
                                                  monkeypatch):
        """A Cayley table has |G|^2 entries: a builtin of order past the
        cap is refused before any table is built.  S7 is refused while
        its permutations are closed, before `_generated` fills a table
        and hands it to FiniteGroup."""
        built = []
        monkeypatch.setattr(groups, "FiniteGroup",
                            lambda *args: built.append(args))
        assert main(["group", "info", "--group", spec]) == 2
        assert built == []
        assert capsys.readouterr() == ("", f"error: {error}\n")

    def test_verify_hopf_json(self, capsys):
        assert main(["verify", "hopf", "--group", "z2", "-N", "3",
                     "--format", "json"]) == 0
        rep = json.loads(capsys.readouterr().out)
        assert rep["all_passed"] is True and rep["checks"]

    def test_verify_mackey(self, capsys):
        assert main(["verify", "mackey", "--group", "s3"]) == 0
        capsys.readouterr()

    def test_bad_input_exit_2(self, capsys):
        assert main(["group", "info", "--group", "no_such_group"]) == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["verify", "hopf", "--group", "z2", "-N", "-2"],
        ["verify", "heisenberg", "--group", "z2", "-N", "2", "-M", "0"],
        ["verify", "hopf", "--group", "z2", "-N", "2", "--limit", "-5"],
    ], ids=["N", "M", "limit"])
    def test_bad_verify_numbers_exit_2(self, argv, capsys):
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: ") and "Traceback" not in err

    def test_byte_stable_output(self, capsys):
        argv = ["verify", "lambda", "--group", "z2", "-N", "3",
                "--format", "json"]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        assert capsys.readouterr().out == first


class TestFileIngestion:
    def test_cayley_file(self, tmp_path, capsys):
        g = symmetric(3)
        path = tmp_path / "mygroup.json"
        path.write_text(g.to_json())
        assert main(["group", "info", "--group", str(path)]) == 0
        assert "order: 6" in capsys.readouterr().out

    def test_non_associative_table_file(self, tmp_path, capsys):
        path = tmp_path / "loop.json"
        path.write_text(json.dumps({"order": 5, "table": [
            [0, 1, 2, 3, 4], [1, 0, 3, 4, 2], [2, 4, 0, 1, 3],
            [3, 2, 4, 0, 1], [4, 3, 1, 2, 0]]}))
        assert main(["group", "info", "--group", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: table is not associative")
        assert "Traceback" not in err

    def test_permutation_file(self, tmp_path, capsys):
        path = tmp_path / "perms.json"
        path.write_text(json.dumps(
            {"degree": 3, "generators": [[1, 0, 2], [1, 2, 0]]}))
        assert main(["group", "info", "--group", str(path)]) == 0
        assert "order: 6" in capsys.readouterr().out

    def test_gset_file(self, tmp_path, capsys):
        path = tmp_path / "x.json"
        path.write_text(json.dumps(
            {"size": 2, "action": [[0, 1], [1, 0]]}))
        assert main(["verify", "euler", "--group", "z2", "-N", "2",
                     "--gset", str(path)]) == 0
        capsys.readouterr()

    @pytest.mark.parametrize("limit,code", [(63, 2), (64, 0)])
    def test_gset_power_bounded_by_limit(self, limit, code, tmp_path,
                                         capsys):
        """|X|^n = 4^3 = 64 at -N 3: refused, naming --limit, one below
        it and run at it.  Over the trivial group the Lemma 1.6 row needs
        only |G_2| |X|^2 = 32, so |X|^n is the bound that acts."""
        path = tmp_path / "x.json"
        path.write_text(json.dumps({"size": 4, "action": [[0, 1, 2, 3]]}))
        assert main(["verify", "euler", "--group", "z1", "-N", "3",
                     "--gset", str(path), "--limit", str(limit)]) == code
        out, err = capsys.readouterr()
        if code:
            assert (out, err) == ("", "error: |X|^n = 64 exceeds --limit 63\n")
        else:
            assert err == "" and out.endswith("7/7 checks passed\n")

    @pytest.mark.parametrize("limit,code", [(64, 2), (128, 0)])
    def test_lemma_16_row_bounded_by_limit(self, limit, code, tmp_path,
                                           capsys):
        """The Lemma 1.6 row needs |G_2| |X|^2 = 8 * 16 = 128 on a 4-point
        Z2-set: below that the suite is refused before any row, instead of
        printing the other rows without it."""
        path = tmp_path / "x.json"
        path.write_text(json.dumps(
            {"size": 4, "action": [[0, 1, 2, 3], [1, 0, 3, 2]]}))
        assert main(["verify", "euler", "--group", "z2", "-N", "3",
                     "--gset", str(path), "--limit", str(limit)]) == code
        out, err = capsys.readouterr()
        if code:
            assert (out, err) == (
                "", "error: |G_2| |X|^2 = 128 exceeds --limit 64\n")
        else:
            assert err == "" and "Lemma 1.6" in out \
                and out.endswith("7/7 checks passed\n")

    def test_verify_all_refuses_before_any_suite(self, monkeypatch, capsys):
        """|G_3| = 82944 for SL2(F3) is past the limit of the euler suite,
        which `verify all` runs last at min(N, 3): it is refused before
        hopf, the first suite, runs."""
        def never(*args, **kwargs):
            raise AssertionError("hopf_verify ran before the refusal")

        monkeypatch.setattr(cli, "hopf_verify", never)
        assert main(["verify", "all", "--group", "sl2_f3", "-N", "4"]) == 2
        assert capsys.readouterr() == (
            "", "error: |G_n| = 82944 exceeds limit 50000\n")

    def test_permutation_degree_past_cap_exit_2(self, tmp_path, capsys,
                                                monkeypatch):
        """The degree field is refused before the identity on its points
        or any closure is built."""
        def never(*args, **kwargs):
            raise AssertionError("closure reached")

        monkeypatch.setattr(groups, "closure", never)
        path = tmp_path / "big.json"
        path.write_text(json.dumps({"degree": 10**9, "generators": []}))
        assert main(["group", "info", "--group", str(path)]) == 2
        assert capsys.readouterr() == (
            "", "error: permutation degree 1000000000 exceeds cap 2000\n")

    def test_gset_size_past_rows_exit_2(self, tmp_path, capsys, monkeypatch):
        """A row shorter than the size field is refused by its length,
        before it is sorted against the size's points."""
        def never(*args, **kwargs):
            raise AssertionError("row sort reached")

        groups.trivial_group()  # built before closure is patched out
        monkeypatch.setattr(groups, "closure", never)
        monkeypatch.setattr(gsets, "sorted", never, raising=False)
        path = tmp_path / "big.json"
        path.write_text(json.dumps({"size": 10**9, "action": [[0]]}))
        assert main(["verify", "euler", "--group", "trivial",
                     "--gset", str(path)]) == 2
        assert capsys.readouterr() == (
            "", "error: each group element must act by a permutation\n")

    def test_bad_gset_file(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{}")
        assert main(["verify", "euler", "--group", "z2",
                     "--gset", str(path)]) == 2
        capsys.readouterr()

    @pytest.mark.parametrize("flag,data", [
        ("--group", {"table": 5}),
        ("--group", {"table": [[0, 1], [1, "0"]]}),
        ("--group", {"order": "2", "table": [[0, 1], [1, 0]]}),
        ("--group", {"degree": "x", "generators": [[1, 0]]}),
        ("--group", {"degree": 2, "generators": 7}),
        ("--group", 5),
        ("--gset", {"size": "1", "action": [[0], [0]]}),
        ("--gset", {"size": 1, "action": 5}),
        ("--gset", {"size": -1, "action": [[], []]}),
    ], ids=["table-int", "table-entry-str", "order-str", "degree-str",
            "generators-int", "top-level-int", "size-str", "action-int",
            "size-negative"])
    def test_malformed_json_file_exit_2(self, flag, data, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(data))
        group, gset = (path, "pt") if flag == "--group" else ("z2", path)
        assert main(["verify", "euler", "--group", str(group),
                     "--gset", str(gset), "-N", "2"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err


# JSON values of at most 6 x 6, with the keys a group file is read by; a
# permutation degree is at most 5, so a valid file has at most 120 elements
json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-1, 5) | st.floats()
    | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=6) | st.dictionaries(
        st.sampled_from(["order", "table", "degree", "generators"])
        | st.text(max_size=3), inner, max_size=4),
    max_leaves=36)


@st.composite
def near_miss_groups(draw):
    """{"order", "table"} one to three edits from a group of order <= 6:
    entries changed, a row or a column dropped, the order off or a
    string."""
    table = [list(row) for row in draw(st.sampled_from(
        [cyclic(n).table for n in range(1, 7)] + [symmetric(3).table]))]
    for _ in range(draw(st.integers(0, 2))):
        row = draw(st.sampled_from(table))
        row[draw(st.integers(0, len(row) - 1))] = draw(st.integers(-1, 6))
    cut = draw(st.sampled_from(["none", "row", "column"]))
    if cut != "none" and len(table) > 1:
        for row in table if cut == "column" else [table]:
            del row[draw(st.integers(0, len(row) - 1))]
    order = draw(st.sampled_from([len(table), len(table) + 1, "2", None]))
    return {"table": table} if order is None else \
        {"order": order, "table": table}


@st.composite
def group_files(draw):
    """A JSON value or a near miss, one time in four cut short, so that it
    is mostly not JSON."""
    text = json.dumps(draw(st.one_of(json_values, near_miss_groups())))
    if draw(st.integers(0, 3)) == 0:
        text = text[:draw(st.integers(0, len(text) - 1))]
    return text


@settings(max_examples=50, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(text=group_files())
def test_group_file_fuzz_exits_0_or_2(text, tmp_path, capsys):
    """Whatever a --group file holds, `group info` reads it as a group
    (exit 0) or refuses it with one error line (exit 2): no traceback."""
    path = tmp_path / "g.json"
    path.write_text(text)
    code = main(["group", "info", "--group", str(path)])
    err = capsys.readouterr().err
    assert code in (0, 2) and "Traceback" not in err
    assert (err == "") == (code == 0)


@st.composite
def near_miss_gsets(draw):
    """(|G|, a --gset document) for Z2 or Z3, up to three edits from a valid
    G-set (trivial, or regular): a row added or dropped, a row replaced by
    any permutation (mostly not a homomorphism), an entry out of range,
    repeated, a bool or a float, and the size off, negative, 0 or a bool."""
    order = draw(st.sampled_from([2, 3]))
    points = size = draw(st.integers(0, 3))
    regular = points == order and draw(st.booleans())
    action = [[(g + x) % order if regular else x for x in range(points)]
              for g in range(order)]
    for _ in range(draw(st.integers(0, 3))):
        edit = draw(st.sampled_from(["add", "drop", "permute", "entry",
                                     "size"]))
        rows = [row for row in action if row]
        if edit == "add":
            action.append(list(range(points)))
        elif edit == "drop" and action:
            del action[draw(st.integers(0, len(action) - 1))]
        elif edit == "permute" and action:
            action[draw(st.integers(0, len(action) - 1))] = \
                list(draw(st.permutations(range(points))))
        elif edit == "entry" and rows:
            row = draw(st.sampled_from(rows))
            row[draw(st.integers(0, len(row) - 1))] = draw(
                st.integers(-1, 4) | st.booleans() | st.floats())
        elif edit == "size":
            size = draw(st.sampled_from([-1, 0, points + 1, True, 1.0]))
    return order, {"size": size, "action": action}


@settings(max_examples=50, deadline=2000,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(case=near_miss_gsets())
def test_gset_file_fuzz_exits_cleanly(case, tmp_path, capsys):
    """Whatever a --gset file holds, `verify euler -N 2` runs the suite
    (exit 0 or 1) or refuses the file with one error line (exit 2); no
    exception leaves `main`."""
    order, doc = case
    path = tmp_path / "x.json"
    path.write_text(json.dumps(doc))
    code = main(["verify", "euler", "--group", f"z{order}",
                 "--gset", str(path), "-N", "2"])
    out, err = capsys.readouterr()
    assert code in (0, 1, 2) and "Traceback" not in err
    if code == 2:
        assert out == "" and err.startswith("error: ") \
            and err.count("\n") == 1


GOLDEN = Path(__file__).parent / "golden"


# test id -> (CLI arguments, golden file)
GOLDEN_RUNS = {
    "table-txt-z2": ("verify all --group z2 -N 3", "verify_all_z2_N3.txt"),
    "json-json-z2": ("verify all --group z2 -N 3 --format json",
                     "verify_all_z2_N3.json"),
    "table-txt-s3": ("verify all --group s3 -N 3", "verify_all_s3_N3.txt"),
    "json-json-s3": ("verify all --group s3 -N 3 --format json",
                     "verify_all_s3_N3.json"),
    "heisenberg-s3-M3": ("verify heisenberg --group s3 -N 3 -M 3",
                         "verify_heisenberg_s3_N3_M3.txt"),
    "heisenberg-z3-json": ("verify heisenberg --group z3 -N 3 -M 2 "
                           "--format json", "verify_heisenberg_z3_N3_M2.json"),
    "heisenberg-q8-M2": ("verify heisenberg --group q8 -N 3 -M 2",
                         "verify_heisenberg_q8_N3_M2.txt"),
    "hopf-z3-N4": ("verify hopf --group z3 -N 4", "verify_hopf_z3_N4.txt"),
    "hopf-s3-N5": ("verify hopf --group s3 -N 5 --limit 100",
                   "verify_hopf_s3_N5_limit100.txt"),
    "lambda-sl2_f3-N4": ("verify lambda --group sl2_f3 -N 4",
                         "verify_lambda_sl2_f3_N4.txt"),
    "euler-s3-regular": ("verify euler --group s3 --gset regular -N 3",
                         "verify_euler_s3_regular_N3.txt"),
    "mackey-d4": ("verify mackey --group d4", "verify_mackey_d4.txt"),
    "classes-sl2_f5": ("group classes --group sl2_f5",
                       "group_classes_sl2_f5.txt"),
    "classes-binary_octahedral": ("group classes --group binary_octahedral",
                                  "group_classes_binary_octahedral.txt"),
    "classes-q8": ("group classes --group q8", "group_classes_q8.txt"),
    "classes-d4": ("group classes --group d4", "group_classes_d4.txt"),
    "wreath-classes-s3-N2": ("wreath classes --group s3 -N 2 --format json",
                             "wreath_classes_s3_N2.json"),
    "wreath-classes-d4-N2": ("wreath classes --group d4 -N 2 --format json",
                             "wreath_classes_d4_N2.json"),
    "wreath-classes-z257-N1": ("wreath classes --group z257 -N 1 "
                               "--format json", "wreath_classes_z257_N1.json"),
}


@pytest.mark.parametrize("run", GOLDEN_RUNS)
def test_verify_all_golden_output(run, capsys):
    """CLI stdout, byte for byte, as recorded in tests/golden."""
    argv, golden = GOLDEN_RUNS[run]
    assert main(argv.split()) == 0
    assert capsys.readouterr().out == (GOLDEN / golden).read_text()


@pytest.mark.parametrize("run", ["table-txt-s3", "heisenberg-z3-json"])
def test_golden_output_across_hash_seeds(run):
    """Types hash by identity, so dict and set layouts follow object
    addresses; the output must not.  Two fresh interpreters with different
    string-hash seeds both print the golden bytes."""
    argv, golden = GOLDEN_RUNS[run]
    src = Path(__file__).resolve().parent.parent / "src"
    for seed in ("1", "2718"):
        out = subprocess.run(
            [sys.executable, "-m", "wreathfock.cli", *argv.split()],
            capture_output=True, text=True, check=True,
            env=dict(os.environ, PYTHONPATH=str(src), PYTHONHASHSEED=seed))
        assert out.stdout == (GOLDEN / golden).read_text()
