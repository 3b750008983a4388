"""Command line interface, exercised in process through main()."""

import argparse
import csv
import gc
import hashlib
import inspect
import io
import json
import subprocess
import sys
from functools import reduce

import pytest

import fflv.characters
import fflv.cli
import fflv.marked_poset
import fflv.polytope
import fflv.weyl
from fflv.cli import main
from fflv.polytope import enumerate_lattice_points, minkowski_sum
from fflv.roots import DominantWeight, parse_root, rho
from fflv.weyl import (
    Permutation,
    RootSubset,
    all_permutations,
    inversion_roots,
    is_kempf,
    is_triangular_element,
)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_weyl_scan_text_counts(capsys):
    code, out, err = run(capsys, "weyl-scan", "--n", "2")
    assert code == 0
    assert err == ""
    assert out.strip().splitlines()[-1] == (
        "total=6 kempf=5 triangular=6 kempf_non_triangular=0"
    )


def test_weyl_scan_json_rank3(capsys):
    code, out, _ = run(capsys, "weyl-scan", "--n", "3", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["counts"] == {
        "total": 24,
        "kempf": 14,
        "triangular": 22,
        "kempf_non_triangular": 0,
    }
    non_triangular = sorted(r["w"] for r in data["elements"] if not r["is_triangular"])
    assert non_triangular == ["2 4 1 3", "4 2 3 1"]


def test_weyl_scan_csv_header(capsys):
    code, out, _ = run(capsys, "weyl-scan", "--n", "2", "--format", "csv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "w,length,is_kempf,is_triangular"
    assert len(lines) == 7


@pytest.mark.parametrize("n", ["0", "-2"])
def test_weyl_scan_rejects_rank_below_one(capsys, n):
    code, out, err = run(capsys, "weyl-scan", "--n", n)
    assert code == 2
    assert out == ""
    assert "rank must be >= 1" in err


def test_weyl_scan_rank_cap(capsys):
    """A rank over --max-rank is a usage error: one error line, exit 2."""
    for argv, message in [(("--n", "7"), "rank 7 exceeds the cap 6"),
                          (("--n", "9"), "rank 9 exceeds the cap 6"),
                          (("--n", "3", "--max-rank", "0"), "rank 3 exceeds the cap 0")]:
        code, out, err = run(capsys, "weyl-scan", *argv)
        assert (code, out, err) == (2, "", f"error: {message}\n")


def assert_same_output(got, want):
    """Equality with a short report; pytest's own diff of two long one-line
    JSON documents takes minutes."""
    if got != want:
        at = next((k for k, (a, b) in enumerate(zip(got, want)) if a != b),
                  min(len(got), len(want)))
        lo = max(at - 40, 0)
        pytest.fail(f"outputs differ at offset {at} (lengths {len(got)}, {len(want)}): "
                    f"{got[lo:at + 40]!r} != {want[lo:at + 40]!r}")


def reference_scan_output(n, fmt):
    """The scan rendering as it was before rows were streamed: one dict per
    element and a whole-document `json.dumps`."""
    rows = [{"w": " ".join(str(v) for v in w.images), "length": w.length(),
             "is_kempf": is_kempf(w), "is_triangular": is_triangular_element(w)}
            for w in all_permutations(n)]
    bad = [r["w"] for r in rows if r["is_kempf"] and not r["is_triangular"]]
    counts = {"total": len(rows), "kempf": sum(1 for r in rows if r["is_kempf"]),
              "triangular": sum(1 for r in rows if r["is_triangular"]),
              "kempf_non_triangular": len(bad)}
    if fmt == "json":
        out = json.dumps({"rank": n, "elements": rows, "counts": counts},
                         sort_keys=True, separators=(",", ":")) + "\n"
    elif fmt == "csv":
        out = "w,length,is_kempf,is_triangular\n" + "".join(
            f"{r['w'].replace(' ', '')},{r['length']},{r['is_kempf']},{r['is_triangular']}\n"
            for r in rows)
    else:
        out = "".join(
            f"[{r['w']}]  length={r['length']}  "
            f"{'K' if r['is_kempf'] else '-'}{'T' if r['is_triangular'] else '-'}\n"
            for r in rows)
        out += (f"total={counts['total']} kempf={counts['kempf']} "
                f"triangular={counts['triangular']} "
                f"kempf_non_triangular={counts['kempf_non_triangular']}\n")
    return (1 if bad else 0), out


@pytest.mark.parametrize("fmt", ["text", "csv", "json"])
def test_scan_output_matches_reference_rendering(capsys, fmt):
    for n in (1, 2, 3, 4):
        code, out, err = run(capsys, "weyl-scan", "--n", str(n), "--format", fmt)
        want_code, want = reference_scan_output(n, fmt)
        assert (code, err) == (want_code, "")
        assert_same_output(out, want)


@pytest.mark.parametrize("n, fmt, digest", [
    (6, "text", "00bb40fef786bbfae16492078a2d629fa1085fdac5dd1beba3944ee327265571"),
    (6, "csv", "2be3609bbd8455b0bfa1ec6d260e5bc7a3d17db524a86bf737283141013757ae"),
    (6, "json", "5788030198df6c34f28b141cb0b37e8aca67b23fc3c06a2de4188a8f570e5e18"),
    (7, "text", "db5325341a62019bd7cac1c0794d830a883f6d12aa1291669bf9b8efef69ce5e"),
    (7, "csv", "f80357d61abd981e82139ba5244f5d4a11f8d64e50fc1df6b5d47614345642bd"),
    (7, "json", "df362a88522937ee9694b49cde2bfa33781108e59d72715e306c944ff8190dd2"),
])
def test_scan_bytes_are_pinned(capsys, n, fmt, digest):
    """The `scan` cases of the benchmark, pinned by the sha256 of their
    stdout as the per-element classification produced it."""
    code, out, err = run(capsys, "weyl-scan", "--n", str(n), "--max-rank", "7",
                         "--format", fmt)
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_scan_leaves_no_cyclic_garbage(capsys):
    """The walk keeps its levels in lists and steps by a plain function, so
    a scan's states and rows are freed when it returns.  The command is
    called past `main`, whose argument parser holds cycles of its own; the
    collector is off during the calls, so no automatic collection hides a
    cycle."""
    gc.collect()
    gc.disable()
    try:
        for fmt in ("text", "csv", "json"):
            assert fflv.cli.cmd_weyl_scan(argparse.Namespace(n=5, format=fmt)) == 0
            assert gc.collect() == 0
    finally:
        gc.enable()
    assert capsys.readouterr().out.count("total=720 ") == 1


@pytest.mark.parametrize("argv", [
    ("points", "--A", "1.1,1.2,2.2", "--lambda", "1,1", "--dilate", "2", "--format", "text"),
    ("points", "--A", "1.1,1.2,2.2", "--lambda", "1,1", "--dilate", "2", "--format", "csv"),
    ("points", "--A", "1.1,1.2,2.2", "--lambda", "1,1", "--dilate", "2", "--format", "json"),
    ("char-compare", "--w-oneline", "3 2 1", "--lambda", "1,1"),
    ("verify", "--w-oneline", "3 2 1", "--lambda", "1,1"),
    ("verify", "--w-oneline", "3 2 1", "--lambda", "1,1", "--no-rep"),
    ("verify", "--A", "1.1,1.2,2.2", "--lambda", "2,1"),
])
def test_commands_leave_no_cyclic_garbage(capsys, argv):
    """Every command frees what it builds when it returns.  `main` builds
    its argument parser, which holds cycles of its own, once per process,
    so once the parser exists a call leaves no cyclic object at all, with
    the collector off."""
    fflv.cli._parser()
    gc.collect()
    gc.disable()
    try:
        assert main(list(argv)) == 0
        assert gc.collect() == 0
    finally:
        gc.enable()
    assert capsys.readouterr().out


def test_the_parser_is_built_on_the_first_call_and_kept():
    """Importing the command line builds no parser; the first `main` call
    builds the one the process keeps."""
    script = ("import fflv.cli as c; n = c._parser.cache_info().currsize; "
              "c.main(['weyl-scan', '--n', '1']); p = c._parser(); "
              "c.main(['weyl-scan', '--n', '2']); "
              "print(n, c._parser.cache_info().currsize, c._parser() is p)")
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout.splitlines()[-1] == "0 1 True"


def test_scan_is_one_call_into_the_weyl_layer(capsys, monkeypatch):
    """The benchmark's tracer wraps every public function of `fflv.weyl`
    wherever an fflv module holds it; a scan makes one such call, so the
    tracer records one span per scan and none per prefix or element."""
    calls = []
    modules = [m for name, m in sys.modules.items()
               if m is not None and (name == "fflv" or name.startswith("fflv."))]
    for attr, fn in list(vars(fflv.weyl).items()):
        if attr.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != "fflv.weyl":
            continue

        def counted(*args, _fn=fn, _name=attr, **kwargs):
            calls.append(_name)
            return _fn(*args, **kwargs)

        for holder in modules:
            for key, value in list(vars(holder).items()):
                if value is fn:
                    monkeypatch.setattr(holder, key, counted)
    for fmt in ("text", "csv", "json"):
        code, _, _ = run(capsys, "weyl-scan", "--n", "4", "--format", fmt)
        assert code == 0
    assert calls == ["classify_permutations"] * 3


def test_points_text(capsys):
    code, out, _ = run(capsys, "points", "--A", "1.1,1.2,2.2", "--lambda", "1,1")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "count 8"
    assert len(lines) == 9


def test_points_csv(capsys):
    code, out, _ = run(capsys, "points", "--A", "1.1,1.2,2.2", "--lambda", "1,1",
                       "--format", "csv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "a1.1,a1.2,a2.2"
    assert len(lines) == 9


def test_points_json_enrichment(capsys):
    code, out, _ = run(capsys, "points", "--w", "s1 s2", "--lambda", "2,1",
                       "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["count"] == len(data["points"])
    for pt in data["points"]:
        assert set(pt) == {"values", "weight", "degree"}
        assert pt["degree"] == sum(v for _, _, v in pt["values"])


def test_points_dilated_counts_match_scaled_weight(capsys):
    code, out, _ = run(capsys, "points", "--A", "1.1,1.2,2.2", "--lambda", "1,1",
                       "--dilate", "2")
    assert code == 0
    assert out.splitlines()[0] == "count 27"


def test_points_rejects_bad_dilation(capsys):
    code, _, err = run(capsys, "points", "--A", "1.1", "--lambda", "1,1",
                       "--dilate", "0")
    assert code == 2
    assert "dilation factor" in err


def test_points_unbounded_face(capsys):
    code, _, err = run(capsys, "points", "--w-oneline", "4 2 3 1",
                       "--lambda", "1,1,1")
    assert code == 2
    assert err.startswith("unbounded")


def test_points_rejects_root_outside_rank(capsys):
    code, _, err = run(capsys, "points", "--A", "1.3", "--lambda", "1,1")
    assert code == 2
    assert "does not fit rank" in err


def test_bad_weight_is_reported(capsys):
    code, _, err = run(capsys, "points", "--A", "1.1", "--lambda", "one")
    assert code == 2
    assert "cannot parse weight" in err


@pytest.mark.parametrize("flags", [
    ("points", "--lambda", "1,,1"),
    ("points", "--lambda", "1,"),
    ("points", "--lambda", ",1,1"),
    ("points", "--lambda", ","),
    ("verify", "--lambda", "1,1", "--mu", "1,,1"),
    ("verify", "--lambda", "1,1", "--mu", "1, ,1"),
])
def test_weight_with_an_empty_field_is_rejected(capsys, flags):
    code, out, err = run(capsys, flags[0], "--A", "1.1", *flags[1:])
    assert code == 2
    assert out == ""
    assert err.startswith("error: empty coefficient in weight")
    assert err.count("\n") == 1


@pytest.mark.parametrize("text", ["1,1,1", "1 1 1", "1, 1, 1"])
def test_weight_separators_are_accepted(capsys, text):
    code, out, _ = run(capsys, "points", "--A", "1.1", "--lambda", text)
    assert code == 0
    assert out.splitlines()[0] == "count 2"


def reference_points_output(S, lam, fmt):
    """The `points` rendering as it was before rows were streamed: the
    weight summed root by root, a dict per point and a whole-document
    `json.dumps`; CSV through the csv writer."""
    rows = []
    for values in S.tuples:
        coeffs = [0] * S.n
        for r, v in zip(S.roots, values):
            for k in range(r.i, r.j + 1):
                coeffs[k - 1] += v
        rows.append((values, coeffs, sum(values)))
    if fmt == "json":
        points = [{"values": [[r.i, r.j, v] for r, v in zip(S.roots, values) if v],
                   "weight": coeffs, "degree": deg} for values, coeffs, deg in rows]
        data = {"rank": S.n, "A": [[r.i, r.j] for r in S.roots],
                "lambda": list(lam.coeffs), "count": len(S), "points": points}
        return json.dumps(data, sort_keys=True, separators=(",", ":")) + "\n"
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow([r.label for r in S.roots])
        for values, _, _ in rows:
            writer.writerow(values)
        return buf.getvalue()
    lines = [f"count {len(S)}"]
    for values, coeffs, deg in rows:
        body = " ".join(f"{r.label}={v}" for r, v in zip(S.roots, values))
        lines.append(f"{body}  weight={','.join(str(c) for c in coeffs)} degree={deg}")
    return "\n".join(lines) + "\n"


NON_TRIANGULAR_4 = "1.1,1.3,2.2,2.3,2.4,3.3,4.4"
FULL_TRIANGLE_4 = "1.1,1.2,1.3,1.4,2.2,2.3,2.4,3.3,3.4,4.4"
FULL_TRIANGLE_5 = ",".join(f"{i}.{j}" for i in range(1, 6) for j in range(i, 6))


@pytest.mark.parametrize("fmt", ["text", "csv", "json"])
@pytest.mark.parametrize("subset, lam, k", [
    ("1.1,1.2,1.3,2.2,2.3,3.3", "1,1,1", 1),       # the full triangle at rho(3)
    (NON_TRIANGULAR_4, "1,1,1,1", 1),
    (NON_TRIANGULAR_4, "1,1,1,1", 2),
    (NON_TRIANGULAR_4, "1,1,1,1", 3),
    # A packed weight field filled to its width: simple root 1's at
    # (0,0,0,7), simple root 4's at (3,0,0,0), the field next to the
    # degree (`test_weight_counts_with_a_field_filled_to_its_width`).
    (FULL_TRIANGLE_4, "0,0,0,7", 1),
    (FULL_TRIANGLE_4, "3,0,0,0", 1),
    ("1.2,2.3", "2,1,1", 1),                       # a1.1 etc. absent, zeros common
    ("", "1,1", 1),                                # only the origin, no columns
])
def test_points_output_matches_reference_rendering(capsys, fmt, subset, lam, k):
    weight = DominantWeight(tuple(int(t) for t in lam.split(",")))
    A = RootSubset.of(weight.n, [parse_root(t) for t in subset.split(",") if t])
    S = reduce(minkowski_sum, [enumerate_lattice_points(A, weight)] * k)
    assert not S.roots or any(0 in vals for vals in S.tuples)  # `values` skips zeros
    code, out, err = run(capsys, "points", "--A", subset, "--lambda", lam,
                         "--dilate", str(k), "--format", fmt)
    assert (code, err) == (0, "")
    assert_same_output(out, reference_points_output(S, weight, fmt))


@pytest.mark.parametrize("argv, digest", [
    (("--A", FULL_TRIANGLE_5, "--lambda", "1,1,1,1,1", "--format", "text"),
     "ea512a4a9e3ece4bf929b0d6f5b7ee9194da6976a794b19c3a25dabfa577e55b"),
    (("--A", FULL_TRIANGLE_5, "--lambda", "1,1,1,1,1", "--format", "csv"),
     "f4cb3a699902f07d5c8c953a0711e88c5a2cee06939e8e3ab9716b3045f57d04"),
    (("--A", FULL_TRIANGLE_5, "--lambda", "1,1,1,1,1", "--format", "json"),
     "5015e3697c911081b7f93824f807a7f8e19cccd00d37da4df894175e975e967c"),
    (("--A", NON_TRIANGULAR_4, "--lambda", "1,1,1,1", "--format", "csv"),
     "271799f9f9f5290ac1165aacb9fdb5aba873183c1c14f6fda474595eb03256eb"),
    (("--A", NON_TRIANGULAR_4, "--lambda", "1,1,1,1", "--format", "json", "--dilate", "2"),
     "88a8cd087f8ad7927c7d1ddad444630c8d984c28375a37c9bab83ff77d152c7b"),
    (("--A", NON_TRIANGULAR_4, "--lambda", "1,1,1,1", "--format", "csv", "--dilate", "3"),
     "3be02664c1c6c49bce503fda58a12e666b449152c7ad735b9a8434441b2f945b"),
])
def test_points_export_bytes_are_pinned(capsys, argv, digest):
    """The `points` exports of the benchmark, pinned by the sha256 of their
    stdout as the per-point rendering produced it."""
    code, out, err = run(capsys, "points", *argv)
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize("argv, digest", [
    (("verify", "--w-oneline", "4 3 2 5 1", "--lambda", "1,1,1,1", "--no-rep"),
     "c6a6cf8a71962231ba6fcc5c5f376282508240e1d9c652caed25a8af0af50e77"),
    (("verify", "--w-oneline", "4 5 1 2 3", "--lambda", "1,1,1,1", "--no-rep"),
     "4ae5bd08130367f9ce88940e8451a1ff0f158aecbd41c8ab8a65e2a66222208d"),
    (("verify", "--A", "1.2,1.4,2.2,2.4,3.4,4.4", "--lambda", "1,1,1,1", "--no-rep"),
     "b1fe876191142a9503912e78bc602f6dbc96b3054cd4304c9b40298fb04ce49a"),
    (("verify", "--w", "s1 s2 s3 s1 s2", "--lambda", "2,2,1", "--no-rep"),
     "b9caaf9619b163bf9b621083be76195b02fa512eafdf7ec8209cdc0e0a3b3299"),
    (("verify", "--w-oneline", "4 3 2 1", "--lambda", "2,1,1", "--no-rep"),
     "4b780b4c523208e49206495053f6cd30a981e005a629f7798f27e87955ed6747"),
    (("char-compare", "--w-oneline", "5 4 3 2 1", "--lambda", "2,1,1,2", "--format", "json"),
     "39e2d8a31e7439836d3204a915c56dbd7d750e8880a373229d381f9d3d990200"),
    (("char-compare", "--w-oneline", "3 5 4 2 1", "--lambda", "1,2,1,1", "--format", "text"),
     "4702ce6c234b3868fc83aa4ae20e532645422adf9c8833c835cecc45a1697a02"),
    (("char-compare", "--w", "s2 s1 s3 s2 s4", "--lambda", "2,1,1,2", "--format", "json"),
     "8ead05660071c407402eee7d232e70570a0ec67b4fb8a693878bb7d9b5b81cfa"),
    (("verify", "--w-oneline", "4 3 2 1", "--lambda", "1,2,1"),
     "2c62093106aa348f30f3cc15288adc879be13d0cff067e67de5ba7898469d16d"),
    (("verify", "--w-oneline", "3 4 2 1", "--lambda", "2,1,1"),
     "c678fabd8a4b9badbded653d08c63bab6030c0dde535d37114b38b90efa12944"),
    (("verify", "--A", "1.3,2.2,2.3,3.3", "--lambda", "2,1,1"),
     "a0836899362e199dae2749573042c01ed7b7fdb0699cd075901ce3c25e7da1eb"),
    (("verify", "--w", "s2 s1 s3 s2 s4", "--lambda", "1,1,1,1", "--max-dim", "2000"),
     "89cc2602892011ecf4fb2cc65bdbd723becab30a012b499783889303efe75830"),
    (("verify", "--w-oneline", "5 4 3 2 1", "--lambda", "1,1,1,1", "--max-dim", "2000"),
     "10d215a04be4936056ffcac34b7f76cc9374fd35fd99978e0b65f7e786993d08"),
])
def test_verify_bytes_are_pinned(capsys, argv, digest):
    """The `polytope` and `module` cases of the benchmark and the rank-4
    longest element with modules, pinned by the sha256 of their stdout as
    the module stages produced it with a closure of the irreducible module
    in front."""
    code, out, err = run(capsys, *argv)
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_points_out_of_memory_exits_2(capsys, monkeypatch):
    def exhausted(A, lam, k):
        raise MemoryError

    monkeypatch.setattr(fflv.cli, "lattice_point_graph", exhausted)
    code, out, err = run(capsys, "points", "--A", "1.1", "--lambda", "1,1")
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and len(err.splitlines()) == 1


def test_broken_invariant_exits_3(capsys, monkeypatch):
    """An `ArithmeticError` escaping a command is a broken internal
    invariant: one error line, nothing on stdout, exit 3."""
    def broken(w, lam):
        raise ArithmeticError("operator string lost a term")

    monkeypatch.setattr(fflv.cli, "demazure_character_oracle", broken)
    code, out, err = run(capsys, "char-compare", "--w", "s1 s2", "--lambda", "2,1")
    assert code == 3
    assert out == ""
    assert err.startswith("error: ") and len(err.splitlines()) == 1


def test_points_one_root_face_at_rank_14(capsys):
    """The path system of {a1.1} costs what the subset does, not what the
    rank does: fourteen zero coefficients give one point."""
    code, out, err = run(capsys, "points", "--A", "1.1", "--lambda", ",".join(["0"] * 14))
    assert code == 0
    assert err == ""
    assert out.splitlines() == ["count 1", f"a1.1=0  weight={','.join(['0'] * 14)} degree=0"]


def test_char_compare_triangular_equal(capsys):
    code, out, _ = run(capsys, "char-compare", "--w", "s1 s2", "--lambda", "2,1",
                       "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["triangular"] is True
    assert data["termwise_equal"] is True
    assert data["mass_deficit"] == 0
    assert data["lattice_points"] == data["lattice_mass"]


def test_char_compare_reports_non_triangular(capsys):
    # The smallest non-triangular element still matches termwise at rho,
    # so the comparison passes while flagging triangular: false.
    code, out, _ = run(capsys, "char-compare", "--w", "s1 s3 s2",
                       "--lambda", "1,1,1", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["triangular"] is False
    assert data["termwise_equal"] is True
    assert data["lattice_mass"] == data["oracle_mass"] == 13


def test_char_compare_unbounded(capsys):
    """Both formats of the unbounded case, byte for byte, exit 2: the error
    comes from the weight-graded count as it came from the enumerator."""
    reason = ("coordinate a1.3 is not bounded by any path inequality at rank 3; "
              "the face is an unbounded cone")
    argv = ("char-compare", "--w-oneline", "4 2 3 1", "--lambda", "1,1,1", "--format")
    assert run(capsys, *argv, "json") == (2, (
        '{"case":"n=3 lambda=1,1,1 w=4 2 3 1","oracle_mass":49,"triangular":false,'
        f'"unbounded":"{reason}"}}\n'), "")
    assert run(capsys, *argv, "text") == (2, f"oracle mass: 49\nunbounded: {reason}\n", "")


def test_char_compare_lists_no_point(capsys, monkeypatch):
    """The character comes from the point counts per weight; an enumerator
    that raises is never reached, and the point count is the mass."""
    def unreachable(*args):
        raise AssertionError("char-compare listed the points")

    monkeypatch.setattr(fflv.cli, "enumerate_lattice_points", unreachable)
    monkeypatch.setattr(fflv.polytope, "enumerate_integer_points", unreachable)
    code, out, err = run(capsys, "char-compare", "--w-oneline", "5 4 3 2 1",
                         "--lambda", "2,1,1,2", "--format", "json")
    assert (code, err) == (0, "")
    assert out == ('{"case":"n=4 lambda=2,1,1,2 w=5 4 3 2 1","lattice_mass":6125,'
                   '"lattice_points":6125,"mass_deficit":0,"oracle_mass":6125,'
                   '"termwise_equal":true,"triangular":true}\n')


def test_verify_full_flag_bundle(capsys):
    code, out, _ = run(capsys, "verify", "--w", "s1 s2 s1", "--lambda", "1,1")
    assert code == 0
    data = json.loads(out)
    assert data["ok"] is True
    checks = data["checks"]
    assert {name: c["status"] for name, c in checks.items()} == {
        "points": "pass",
        "character": "pass",
        "minkowski": "pass",
        "normality": "pass",
        "marked_poset": "pass",
        "rep": "pass",
    }
    dims = checks["rep"]["dims"]
    assert dims == {"subset": 8, "lattice": 8, "demazure": 8, "oracle": 8}


def test_verify_unbounded_case(capsys):
    code, out, _ = run(capsys, "verify", "--w-oneline", "4 2 3 1",
                       "--lambda", "1,1,1")
    assert code == 1
    data = json.loads(out)
    assert data["ok"] is False
    checks = data["checks"]
    assert checks["points"]["status"] == "fail"
    assert checks["character"]["status"] == "fail"
    assert checks["minkowski"]["status"] == "skipped"
    assert checks["normality"]["status"] == "skipped"
    assert checks["rep"]["status"] == "skipped"
    assert checks["marked_poset"]["status"] == "pass"


def test_verify_no_rep_and_text_format(capsys):
    code, out, _ = run(capsys, "verify", "--w", "s1", "--lambda", "1,1",
                       "--no-rep", "--format", "text")
    assert code == 0
    assert "SKIPPED rep" in out
    assert out.strip().splitlines()[-1] == "overall: ok"


def test_verify_rank5_longest_element_without_modules(capsys):
    """The polytope side of the rank-5 longest element, Ehrhart rows at
    rho(5), 2 rho(5) and 3 rho(5) included; about a second."""
    code, out, _ = run(capsys, "verify", "--w-oneline", "6 5 4 3 2 1",
                       "--lambda", "1,1,1,1,1", "--no-rep")
    assert code == 0
    ehrhart = json.loads(out)["checks"]["marked_poset"]["ehrhart"]
    assert ehrhart == [[32768, 32768], [14348907, 14348907], [1073741824, 1073741824]]


def test_verify_dimension_cap_skips_rep(capsys):
    code, out, _ = run(capsys, "verify", "--w", "s1 s2", "--lambda", "1,1",
                       "--max-dim", "5")
    assert code == 0
    data = json.loads(out)
    assert data["checks"]["rep"]["status"] == "skipped"


def test_verify_with_separate_mu(capsys):
    code, out, _ = run(capsys, "verify", "--A", "1.1,1.2,2.2", "--lambda", "1,0",
                       "--mu", "0,1")
    assert code == 0
    data = json.loads(out)
    mink = data["checks"]["minkowski"]
    assert mink["status"] == "pass"
    assert (mink["left"], mink["right"], mink["total"]) == (3, 3, 8)


def _record_polytope_calls(monkeypatch):
    """Wrap the CLI's enumerator and Minkowski sum counter; return the call
    logs."""
    weights, sums = [], []
    enumerate_, minkowski = fflv.cli.enumerate_lattice_points, fflv.cli.count_sum_points

    def enumerate_recorded(A, lam):
        weights.append(lam.coeffs)
        return enumerate_(A, lam)

    def minkowski_recorded(*summands):
        sums.append(tuple(map(len, summands)))
        return minkowski(*summands)

    monkeypatch.setattr(fflv.cli, "enumerate_lattice_points", enumerate_recorded)
    monkeypatch.setattr(fflv.cli, "count_sum_points", minkowski_recorded)
    return weights, sums


def test_verify_separate_mu_enumerates_its_own_faces(capsys, monkeypatch):
    """With mu != lambda on a triangular face, the Minkowski check passes
    by certificate: S(lambda) is the only face listed, the faces at mu and
    lambda + mu are counted, and no sum is formed."""
    weights, sums = _record_polytope_calls(monkeypatch)
    code, out, _ = run(capsys, "verify", "--w-oneline", "4 3 2 1", "--lambda", "1,2,1",
                       "--mu", "2,0,1", "--no-rep")
    assert code == 0
    A = inversion_roots(Permutation((4, 3, 2, 1)))
    lam, mu = DominantWeight((1, 2, 1)), DominantWeight((2, 0, 1))
    left, right, total = (len(enumerate_lattice_points(A, nu)) for nu in (lam, mu, lam + mu))
    assert weights == [(1, 2, 1)]
    assert sums == []
    mink = json.loads(out)["checks"]["minkowski"]
    assert mink == {"status": "pass", "left": left, "right": right, "total": total}
    assert (left, right, total) == (175, 36, 1260)


def test_verify_mu_equal_lambda_forms_each_polytope_once(capsys, monkeypatch):
    """A triangular face with mu = lambda is certified: S(lambda) is the
    only face enumerated and no sum is formed, with the same bundle."""
    weights, sums = _record_polytope_calls(monkeypatch)
    code, out, _ = run(capsys, "verify", "--w-oneline", "3 4 2 1", "--lambda", "2,1,1")
    assert code == 0
    assert weights == [(2, 1, 1)]
    assert sums == []
    assert out == (
        '{"case":"n=3 lambda=2,1,1 w=3 4 2 1","checks":{"character":{"deficit":0,'
        '"lattice_mass":76,"oracle_mass":76,"status":"pass"},"marked_poset":'
        '{"chain_count":76,"ehrhart":[[76,76],[720,720],[3360,3360]],"lattice_count":76,'
        '"status":"pass"},"minkowski":{"left":76,"right":76,"status":"pass","total":720},'
        '"normality":{"checked_dilations":[2,3],"status":"pass"},"points":{"count":76,'
        '"status":"pass"},"rep":{"basis_ok":true,"dims":{"demazure":76,"lattice":76,'
        '"oracle":76,"subset":76},"essential_ok":true,"graded_ok":true,"status":"pass"}},'
        '"ok":true}\n'
    )


def _record_path_systems(monkeypatch):
    """Wrap the path-system builder; return the log of weights it saw."""
    weights = []
    build = fflv.polytope.build_inequalities

    def build_recorded(A, lam):
        weights.append(lam.coeffs)
        return build(A, lam)

    monkeypatch.setattr(fflv.polytope, "build_inequalities", build_recorded)
    return weights


def test_verify_builds_each_face_system_once(capsys, monkeypatch):
    """A triangular rank-3 `verify` with mu = lambda builds the path system
    once, for lambda, and forms no Minkowski sum: the module checks take
    the face `verify` already holds, and the certificate replaces the sums.
    With a separate mu, the faces at mu and lambda + mu are counted, and
    still no sum is formed."""
    weights = _record_path_systems(monkeypatch)
    _, sums = _record_polytope_calls(monkeypatch)
    code, _, _ = run(capsys, "verify", "--w-oneline", "4 3 2 1", "--lambda", "1,1,1")
    assert code == 0
    assert weights == [(1, 1, 1)]
    assert sums == []
    code, _, _ = run(capsys, "verify", "--w-oneline", "4 3 2 1", "--lambda", "1,1,1",
                     "--mu", "1,0,1")
    assert code == 0
    assert weights == [(1, 1, 1), (1, 1, 1), (1, 0, 1), (2, 1, 2)]
    assert sums == []


def test_verify_builds_the_face_system_once_for_every_check(capsys, monkeypatch):
    """`verify --w` builds the path system at lambda once, in every module
    that holds the builder: the character check reads the listed face, so
    no second system and no weight tally is formed for it.  One more path
    system is enumerated, by the marked-poset certificate, free of the
    weight."""
    built, paths, tallies = [], [], []
    for module in (fflv.polytope, fflv.characters):
        monkeypatch.setattr(module, "build_inequalities",
                            lambda A, lam, f=module.build_inequalities:
                            built.append(lam.coeffs) or f(A, lam))
    for module in (fflv.polytope, fflv.marked_poset):
        monkeypatch.setattr(module, "enumerate_dyck_paths_for",
                            lambda A, f=module.enumerate_dyck_paths_for:
                            paths.append(A) or f(A))
    monkeypatch.setattr(fflv.characters, "count_points_by_weight",
                        lambda *a, f=fflv.characters.count_points_by_weight:
                        tallies.append(a) or f(*a))
    code, out, _ = run(capsys, "verify", "--w-oneline", "4 3 2 1", "--lambda", "1,1,1")
    assert code == 0
    assert json.loads(out)["checks"]["character"] == {
        "deficit": 0, "lattice_mass": 64, "oracle_mass": 64, "status": "pass"}
    assert built == [(1, 1, 1)]
    assert len(paths) == 2
    assert tallies == []


def test_verify_rank5_triangular_elements_up_to_mass_500(capsys):
    """The whole bundle, module checks included, at rho(5) for every
    triangular element of S_6 whose Demazure mass there is at most 500:
    232 of the 366, about 3 s."""
    lam = rho(5)
    elements = [w for w in all_permutations(5) if is_triangular_element(w)
                and fflv.characters.demazure_character_oracle(w, lam).mass <= 500]
    assert len(elements) == 232
    for w in elements:
        code, out, _ = run(capsys, "verify", "--w-oneline", str(w),
                           "--lambda", "1,1,1,1,1", "--max-dim", "40000")
        data = json.loads(out)
        assert (code, data["ok"], data["checks"]["rep"]["status"]) == (0, True, "pass"), w


@pytest.mark.slow
def test_verify_rank5_triangular_elements(capsys):
    """The whole bundle, module checks included, at rho(5) for all 366
    triangular elements of S_6, about a minute."""
    elements = [w for w in all_permutations(5) if is_triangular_element(w)]
    assert len(elements) == 366
    for w in elements:
        code, out, _ = run(capsys, "verify", "--w-oneline", str(w),
                           "--lambda", "1,1,1,1,1", "--max-dim", "40000")
        data = json.loads(out)
        assert (code, data["ok"], data["checks"]["rep"]["status"]) == (0, True, "pass"), w


@pytest.mark.slow
def test_verify_rank5_longest_element_with_modules(capsys):
    """The whole bundle of the rank-5 longest element at rho(5), module
    checks included: a module of dimension 32,768, about 5 s."""
    code, out, _ = run(capsys, "verify", "--w-oneline", "6 5 4 3 2 1",
                       "--lambda", "1,1,1,1,1", "--max-dim", "40000")
    assert code == 0
    rep = json.loads(out)["checks"]["rep"]
    assert rep["status"] == "pass"
    assert rep["dims"] == {"subset": 32768, "lattice": 32768, "demazure": 32768, "oracle": 32768}


def test_verify_forms_the_sums_where_the_identity_fails(capsys, monkeypatch):
    """The face of 1.2, 2.3 is not its marked chain polytope (9 points
    against 8 at rho(3)), so the sums are formed, as counts: the two- and
    three-fold sums of S are counted against the faces at 2 lambda and
    3 lambda, whose path systems are built but whose points are not
    listed, and `total` is the face count at 2 lambda, not the chain
    count."""
    systems = _record_path_systems(monkeypatch)
    weights, sums = _record_polytope_calls(monkeypatch)
    code, out, _ = run(capsys, "verify", "--A", "1.2,2.3", "--lambda", "1,1,1", "--no-rep")
    assert code == 0
    assert weights == [(1, 1, 1)]
    assert systems == [(1, 1, 1), (2, 2, 2), (3, 3, 3)]
    assert sums == [(9, 9), (9, 9, 9)]
    checks = json.loads(out)["checks"]
    assert checks["minkowski"]["total"] == 25
    assert checks["marked_poset"]["ehrhart"][1] == [22, 22]


@pytest.mark.parametrize("argv", [
    ("--w-oneline", "4 3 2 1", "--lambda", "1,1,1"),
    ("--w-oneline", "4 3 2 1", "--lambda", "1,1,1", "--format", "text"),
    ("--w-oneline", "4 3 2 1", "--lambda", "1,1,1", "--mu", "1,0,1"),
    ("--w-oneline", "4 3 2 1", "--lambda", "1,0,1"),
    ("--A", "1.1,2.2", "--lambda", "1,1"),
    ("--A", "1.2,1.3,2.3", "--lambda", "1,1,1"),
    ("--A", "1.3,2.2,2.3,3.3", "--lambda", "2,1,1", "--mu", "0,1,2"),
    ("--w-oneline", "3 4 2 1", "--lambda", "2,0,1", "--mu", "1,1,0"),
    ("--A", NON_TRIANGULAR_4, "--lambda", "1,1,1,1", "--mu", "1,0,0,1", "--no-rep"),
])
def test_certificate_leaves_the_bundle_unchanged(capsys, monkeypatch, argv):
    """The bundle is byte-identical whether the certificate or the packed
    sums decide normality and Minkowski additivity."""
    certified = run(capsys, "verify", *argv)
    monkeypatch.setattr(fflv.cli, "is_marked_chain_face", lambda A: False)
    assert run(capsys, "verify", *argv) == certified


def test_verify_mu_rank_mismatch(capsys):
    code, _, err = run(capsys, "verify", "--w", "s1", "--lambda", "1,1",
                       "--mu", "1")
    assert code == 2
    assert "same rank" in err


def test_verify_reports_unstable_essential_scan_as_a_failed_check(capsys):
    code, out, err = run(capsys, "verify", "--A", "1.1,2.2", "--lambda", "1,1")
    assert code == 1
    data = json.loads(out)
    assert data["ok"] is False
    rep = data["checks"]["rep"]
    assert rep["status"] == "fail"
    assert "did not stabilize" in rep["error"]
    assert "Traceback" not in err


def test_essential_scan_gives_up_once_every_monomial_vanishes(capsys):
    # The ordered monomials of this subset never span its lowering closure;
    # every one of degree 9 kills the highest vector, so the scan stops there.
    code, out, _ = run(capsys, "verify", "--A", "1.1,2.2,3.3,1.2,2.3", "--lambda", "1,1,1")
    assert code == 1
    rep = json.loads(out)["checks"]["rep"]
    assert rep == {"status": "fail", "error": "essential monomial scan did not stabilize"}


@pytest.mark.parametrize("cap", ["0", "-5"])
def test_verify_rejects_dimension_cap_below_one(capsys, cap):
    code, out, err = run(capsys, "verify", "--w", "s1 s2", "--lambda", "1,1",
                         "--max-dim", cap)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and "dimension cap" in err


def test_scan_output_is_thread_count_independent(capsys, monkeypatch):
    # The scan runs in one thread; a leftover FFLV_THREADS setting is ignored.
    monkeypatch.setenv("FFLV_THREADS", "1")
    code1, out1, _ = run(capsys, "weyl-scan", "--n", "3", "--format", "json")
    monkeypatch.setenv("FFLV_THREADS", "4")
    code2, out2, _ = run(capsys, "weyl-scan", "--n", "3", "--format", "json")
    assert code1 == code2 == 0
    assert out1 == out2


def test_repeated_runs_are_byte_identical(capsys):
    args = ("points", "--w", "s2 s1", "--lambda", "2,1", "--format", "json")
    code1, out1, _ = run(capsys, *args)
    code2, out2, _ = run(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "fflv", "weyl-scan", "--n", "2", "--format", "csv"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.splitlines()[0] == "w,length,is_kempf,is_triangular"
