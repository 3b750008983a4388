"""Command line interface, exercised in process through main()."""

import csv
import io
import json
import subprocess
import sys

import pytest

import fflv.cli
import fflv.polytope
from fflv.cli import main
from fflv.polytope import dilate, enumerate_lattice_points
from fflv.roots import DominantWeight, parse_root
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


@pytest.mark.parametrize("fmt", ["text", "csv", "json"])
@pytest.mark.parametrize("subset, lam, k", [
    ("1.1,1.2,1.3,2.2,2.3,3.3", "1,1,1", 1),       # the full triangle at rho(3)
    (NON_TRIANGULAR_4, "1,1,1,1", 1),
    (NON_TRIANGULAR_4, "1,1,1,1", 2),
    ("1.2,2.3", "2,1,1", 1),                       # a1.1 etc. absent, zeros common
    ("", "1,1", 1),                                # only the origin, no columns
])
def test_points_output_matches_reference_rendering(capsys, fmt, subset, lam, k):
    weight = DominantWeight(tuple(int(t) for t in lam.split(",")))
    A = RootSubset.of(weight.n, [parse_root(t) for t in subset.split(",") if t])
    S = dilate(enumerate_lattice_points(A, weight), k)
    assert not S.roots or any(0 in vals for vals in S.tuples)  # `values` skips zeros
    code, out, err = run(capsys, "points", "--A", subset, "--lambda", lam,
                         "--dilate", str(k), "--format", fmt)
    assert (code, err) == (0, "")
    assert_same_output(out, reference_points_output(S, weight, fmt))


def test_points_out_of_memory_exits_2(capsys, monkeypatch):
    def exhausted(A, lam):
        raise MemoryError

    monkeypatch.setattr(fflv.cli, "enumerate_lattice_points", exhausted)
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
    """Wrap the CLI's enumerator and Minkowski sum; return the call logs."""
    weights, sums = [], []
    enumerate_, minkowski = fflv.cli.enumerate_lattice_points, fflv.cli.minkowski_sum

    def enumerate_recorded(A, lam):
        weights.append(lam.coeffs)
        return enumerate_(A, lam)

    def minkowski_recorded(S1, S2):
        sums.append((len(S1), len(S2)))
        return minkowski(S1, S2)

    monkeypatch.setattr(fflv.cli, "enumerate_lattice_points", enumerate_recorded)
    monkeypatch.setattr(fflv.cli, "minkowski_sum", minkowski_recorded)
    return weights, sums


def test_verify_separate_mu_enumerates_its_own_faces(capsys, monkeypatch):
    """With mu != lambda the Minkowski check forms S + S(mu) against
    S(lambda + mu); normality passes by certificate, with no sum."""
    weights, sums = _record_polytope_calls(monkeypatch)
    code, out, _ = run(capsys, "verify", "--w-oneline", "4 3 2 1", "--lambda", "1,2,1",
                       "--mu", "2,0,1", "--no-rep")
    assert code == 0
    A = inversion_roots(Permutation((4, 3, 2, 1)))
    lam, mu = DominantWeight((1, 2, 1)), DominantWeight((2, 0, 1))
    left, right, total = (len(enumerate_lattice_points(A, nu)) for nu in (lam, mu, lam + mu))
    assert weights == [(1, 2, 1), (2, 0, 1), (3, 2, 2)]
    assert sums == [(left, right)]
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
    With a separate mu, S + S(mu) is the one sum formed."""
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
    assert sums == [(64, 15)]


def test_verify_forms_the_sums_where_the_identity_fails(capsys, monkeypatch):
    """The face of 1.2, 2.3 is not its marked chain polytope (9 points
    against 8 at rho(3)), so the sums are formed and `total` is the face
    count at 2 lambda, not the chain count."""
    weights, sums = _record_polytope_calls(monkeypatch)
    code, out, _ = run(capsys, "verify", "--A", "1.2,2.3", "--lambda", "1,1,1", "--no-rep")
    assert code == 0
    assert weights == [(1, 1, 1), (2, 2, 2), (3, 3, 3)]
    assert sums == [(9, 9), (25, 9)]
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
