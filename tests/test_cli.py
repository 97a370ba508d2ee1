"""Command-line interface: exit codes, JSON output, file-based inputs."""

import json
import subprocess
import sys

import pytest

from pfisterinv import csa, qform, quat, shapiro4
from pfisterinv.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


class TestQf:
    def test_invariants_hyperbolic_plane(self, capsys):
        code, out = run(capsys, "qf", "invariants", "--diag", "1,-1")
        data = json.loads(out)
        assert code == 0
        assert data["disc"] == 1
        assert data["signature"] == 0

    def test_pfister_negative(self, capsys):
        code, out = run(capsys, "qf", "pfister", "--r", "2", "--diag", "1,1,1,-7")
        assert code == 1
        assert "not similar" in out

    def test_pfister_positive(self, capsys):
        code, _ = run(capsys, "qf", "pfister", "--r", "2", "--diag", "3,3,3,3")
        assert code == 0

    def test_witt(self, capsys):
        code, out = run(capsys, "qf", "witt", "--diag", "1,-1,2,-2")
        assert code == 0
        assert json.loads(out)["witt_index"] == 2

    def test_isometric(self, capsys):
        code, out = run(capsys, "qf", "isometric", "1,-1", "2,-2")
        assert code == 0 and "isometric" in out
        code, out = run(capsys, "qf", "isometric", "1,1", "1,-1")
        assert code == 1 and "not isometric" in out

    def test_form_file_input(self, capsys, tmp_path):
        p = tmp_path / "form.json"
        p.write_text(json.dumps({"gram": [["1", "0"], ["0", "-1"]]}))
        code, out = run(capsys, "qf", "invariants", "--file", str(p))
        assert code == 0
        assert json.loads(out)["disc"] == 1

    def test_degenerate_rejected(self, capsys):
        code, _ = run(capsys, "qf", "invariants", "--diag", "1,0")
        assert code == 2

    def test_malformed_rejected(self, capsys):
        code, _ = run(capsys, "qf", "invariants", "--diag", "1,zebra")
        assert code == 2

    def test_zero_denominator_rejected(self, capsys):
        code = main(["qf", "invariants", "--diag", "1/0,1"])
        err = capsys.readouterr().err
        assert code == 2
        assert err == "error: bad diagonal '1/0,1': zero denominator in '1/0'\n"

    def test_witness_route_failure_exits_2(self, capsys, monkeypatch):
        # <7, -1, 7, 11> is isotropic, but it has no zero on a basis vector
        # or in its form reduction, and no isotropic ternary subform, so its
        # first witness comes from binary splitting
        q = qform.QuadraticForm.from_diagonal([7, -1, 7, 11])
        assert list(qform._cheap_zeros(q)) == []
        assert qform._isotropy_decision(q)
        assert qform._isotropic_subset(q.squarefree_diagonal()) is None
        argv = [sys.executable, "-m", "pfisterinv.cli", "qf", "witt", "--diag=7,-1,7,11"]
        found = subprocess.run(argv, capture_output=True, text=True)
        assert found.returncode == 0, found.stderr
        assert json.loads(found.stdout)["witt_index"] == 1
        monkeypatch.setattr(qform, "_split_point", lambda diag: None)
        code = main(["qf", "witt", "--diag=7,-1,7,11"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


class TestQuat:
    def test_split_and_not(self, capsys):
        code, out = run(capsys, "quat", "split", "1", "5")
        assert code == 0 and "split" in out
        code, out = run(capsys, "quat", "split", "-1", "-1")
        assert code == 1 and "ramified" in out

    def test_normform_matches_diagonal(self, capsys):
        code, out = run(capsys, "quat", "normform", "2", "3")
        assert code == 0
        assert json.loads(out)["diag"] == ["1", "-2", "-3", "6"]

    def test_splitmap(self, capsys):
        code, out = run(capsys, "quat", "splitmap", "1", "5")
        assert code == 0
        assert json.loads(out)["1"] == [["1", "0"], ["0", "1"]]
        code, _ = run(capsys, "quat", "splitmap", "-1", "-1")
        assert code == 1

    def test_zero_symbol_rejected(self, capsys):
        code, _ = run(capsys, "quat", "split", "0", "3")
        assert code == 2

    def test_failed_splitting_certificate_exits_2(self, capsys, monkeypatch):
        # a reduced basis, with its pivots, of span(1, i): j * 1 leaves it
        basis = ([[1, 0, 0, 0], [0, 1, 0, 0]], [0, 1])
        monkeypatch.setattr(quat.linalg, "rref", lambda rows: basis)
        code = main(["quat", "splitmap", "1", "5"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == "error: left ideal is not invariant\n"


class TestInv:
    def write(self, tmp_path, data):
        p = tmp_path / "algebra.json"
        p.write_text(json.dumps(data))
        return str(p)

    def test_adjoint_degree3(self, capsys, tmp_path):
        path = self.write(
            tmp_path, {"adjoint": {"gram": [["1", "0", "0"], ["0", "2", "0"], ["0", "0", "3"]]}}
        )
        code, out = run(capsys, "inv", "invariants", path)
        assert code == 0
        assert "e0 = 1" in out
        assert "e1 undefined" in out

    def write_degree8_pfister(self, tmp_path):
        diag = ["1", "2", "3", "6", "5", "10", "15", "30"]
        gram = [
            [diag[i] if i == j else "0" for j in range(8)] for i in range(8)
        ]
        return self.write(tmp_path, {"adjoint": {"gram": gram}})

    def test_adjoint_degree8_pfister(self, capsys, tmp_path):
        path = self.write_degree8_pfister(tmp_path)
        code, out = run(capsys, "inv", "invariants", path)
        assert code == 0
        assert "e1 = 1" in out
        assert "trivial: True" in out
        assert "pfister involution: True" in out

    def test_adjoint_form_is_solved_once(self, capsys, tmp_path, monkeypatch):
        # e1, e2 and the Pfister verdict share the algebra's one adjoint form
        calls = []
        solve = csa.adjoint_gram
        monkeypatch.setattr(csa, "adjoint_gram", lambda a, iso: calls.append(a) or solve(a, iso))
        path = self.write_degree8_pfister(tmp_path)
        code, out = run(capsys, "inv", "invariants", path)
        assert len(calls) == 1
        assert code == 0
        assert out == (
            "e0 = 0\n"
            "e1 = 1\n"
            "e2 = {trivial} (trivial: True)\n"
            "pfister involution: True\n"
        )

    def test_canonical_pair(self, capsys, tmp_path):
        path = self.write(
            tmp_path,
            {"factors": [{"a": "-1", "b": "-1"}, {"a": "2", "b": "3"}]},
        )
        code, out = run(capsys, "inv", "invariants", path)
        assert code == 0
        assert "e1 = 1" in out

    def test_symplectic_rejected(self, capsys, tmp_path):
        path = self.write(tmp_path, {"factors": [{"a": "2", "b": "3"}]})
        code, out = run(capsys, "inv", "invariants", path)
        assert code == 1
        assert "symplectic" in out

    def test_bad_file(self, capsys, tmp_path):
        path = self.write(tmp_path, {"factors": []})
        assert run(capsys, "inv", "invariants", path)[0] == 2

    def test_uncomputable_invariant_is_an_error(self, capsys, tmp_path):
        # e1 of a twisted single quaternion involution has no route
        path = self.write(
            tmp_path,
            {
                "factors": [{"a": "2", "b": "3", "involution": {"s": ["0", "1", "0", "0"]}}],
                "twist": ["0", "0", "1", "0"],
            },
        )
        code = main(["inv", "invariants", path])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "twist",
        [
            # 1 + i(x)i is a zero divisor: (i(x)i)^2 = 1 in (1, 1) (x) (1, 1)
            ["1", "0", "0", "0", "0", "1"] + ["0"] * 10,
            # 20 coordinates for a 16-dimensional algebra
            ["1"] + ["0"] * 18 + ["1"],
        ],
    )
    def test_bad_twist_is_an_error(self, capsys, tmp_path, twist):
        path = self.write(
            tmp_path,
            {"factors": [{"a": "1", "b": "1"}, {"a": "1", "b": "1"}], "twist": twist},
        )
        code = main(["inv", "invariants", path])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1

    def test_uncomputable_clifford_pair_is_an_error(self, capsys, tmp_path):
        # e1 = 1 through the reduced norm of the twist, but e2 of a twisted
        # non-split product has no route
        path = self.write(
            tmp_path,
            {
                "factors": [{"a": "-1", "b": "-1"}, {"a": "-1", "b": "-1"}],
                "twist": ["1"] + ["0"] * 15,
            },
        )
        code = main(["inv", "invariants", path])
        captured = capsys.readouterr()
        assert code == 2
        assert "e1 = 1" in captured.out
        assert captured.err == "error: twisted non-split algebra\n"


class TestShapiro4:
    def test_run_writes_json(self, capsys, tmp_path):
        out_path = tmp_path / "report.json"
        code, out = run(
            capsys, "shapiro4", "run", "--count", "1", "--seed", "1",
            "--json", str(out_path),
        )
        assert code == 0
        assert "verdict=pass" in out
        payload = json.loads(out_path.read_text())
        assert len(payload["reports"]) == 1
        assert payload["reports"][0]["verdict"] == "pass"

    def test_run_repeatable_bytes(self, capsys, tmp_path):
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        run(capsys, "shapiro4", "run", "--count", "1", "--seed", "2", "--json", str(p1))
        run(capsys, "shapiro4", "run", "--count", "1", "--seed", "2", "--json", str(p2))
        assert p1.read_bytes() == p2.read_bytes()

    def test_verify_scenario_file(self, capsys, tmp_path):
        from pfisterinv import shapiro4 as s4

        scenario = s4.sample_scenario(3)
        p = tmp_path / "scenario.json"
        p.write_text(json.dumps(scenario.to_json()))
        code, out = run(capsys, "shapiro4", "verify", str(p))
        assert code == 0
        assert "verdict=pass" in out

    def test_verify_u_rejects_bad_u(self, capsys, tmp_path):
        p = tmp_path / "u.json"
        p.write_text(
            json.dumps(
                {
                    "q1": {"a": "2", "b": "3"},
                    "q2": {"a": "2", "b": "3"},
                    # unit: symmetric but has nonzero reduced trace
                    "u": ["1"] + ["0"] * 15,
                }
            )
        )
        code, _ = run(capsys, "shapiro4", "verify-u", str(p))
        assert code == 2

    def test_verify_u_seed_7(self, capsys, tmp_path):
        # q1, q2 and u of the seed-7 report of `shapiro4 run`
        u = ["0"] * 16
        u[5:8] = ["48269", "11729", "3"]
        p = tmp_path / "u.json"
        p.write_text(
            json.dumps({"q1": {"a": "-3", "b": "2"}, "q2": {"a": "5", "b": "11"}, "u": u})
        )
        code, out = run(capsys, "shapiro4", "verify-u", str(p))
        assert code == 0
        assert "branch=hyperbolic witt_index=8" in out
        assert "verdict=pass (hyperbolic)" in out

    @pytest.mark.parametrize("seed", [8, 16])
    def test_verify_u_certifies_what_run_certifies(self, capsys, tmp_path, seed):
        # the Witt index comes from a Lagrangian grown from Q1 (x) 1, so the u
        # of these reports verifies without a 16-dimensional isotropy search
        report = tmp_path / "report.json"
        run(capsys, "shapiro4", "run", "--count", "1", "--seed", str(seed), "--json", str(report))
        rep = json.loads(report.read_text())["reports"][0]
        p = tmp_path / "u.json"
        p.write_text(json.dumps({**rep["scenario"], "u": rep["u"]}))
        code, out = run(capsys, "shapiro4", "verify-u", str(p))
        assert code == 0
        assert "branch=hyperbolic witt_index=8" in out
        assert "verdict=pass (hyperbolic)" in out

    @pytest.mark.parametrize("count", ["0", "-3"])
    def test_run_with_no_scenarios_is_an_error(self, capsys, count):
        code = main(["shapiro4", "run", "--count", count, "--seed", "7"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1

    def test_run_bytes_survive_python_O(self, tmp_path):
        paths = []
        for flags in ([], ["-O"]):
            path = tmp_path / f"report{''.join(flags)}.json"
            proc = subprocess.run(
                [sys.executable, *flags, "-m", "pfisterinv.cli", "shapiro4", "run",
                 "--count", "2", "--seed", "7", "--json", str(path)],
                capture_output=True, text=True,
            )
            assert proc.returncode == 0, proc.stderr
            paths.append(path)
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_first_scenarios_do_not_import_sympy(self):
        # seed 8 factors 2901616322458327139 = 4547 * 8669 * 17377 * 4236149,
        # which the bounded rho splits before sympy would be asked
        code = (
            "import sys\n"
            "from pfisterinv.cli import main\n"
            "assert main(['shapiro4', 'run', '--count', '2', '--seed', '7']) == 0\n"
            "print('sympy' in sys.modules)\n"
        )
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "False"

    def test_missing_file(self, capsys):
        assert run(capsys, "shapiro4", "verify", "/nonexistent.json")[0] == 2


def _scenario(**fields) -> dict:
    """The scenario file of seed 3 with some fields replaced."""
    return {**shapiro4.sample_scenario(3).to_json(), **fields}


_C = _scenario()["c"]


@pytest.mark.parametrize(
    "argv, data, message",
    [
        (["shapiro4", "verify"], _scenario(c=5), "bad input file"),
        (["shapiro4", "verify"], _scenario(c=[0.5] + _C[1:]), "bad input file"),
        (["shapiro4", "verify"], _scenario(**{"lambda": [1]}), "bad input file"),
        (["shapiro4", "verify"], _scenario(q1=[1, 2]), "bad input file"),
        (["shapiro4", "verify"], _scenario(c=_C + ["1"]), "c must have 16 coordinates, got 17"),
        (["shapiro4", "verify"], _scenario(c=_C[:15]), "c must have 16 coordinates, got 15"),
        (["qf", "invariants", "--file"], {"gram": 5}, "bad input file"),
        (["qf", "invariants", "--file"], {"gram": [[1.5]]}, "bad input file"),
        (["qf", "invariants", "--file"], {"diag": [0.5, 1]}, "bad input file"),
    ],
    ids=["c-int", "c-float", "lambda-list", "q1-list", "c-17", "c-15", "gram-int",
         "gram-float", "diag-float"],
)
def test_malformed_input_file_is_an_error(capsys, tmp_path, argv, data, message):
    # a malformed file is bad input (exit 2, one line), never a crash
    p = tmp_path / "input.json"
    p.write_text(json.dumps(data))
    code = main([*argv, str(p)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith(f"error: {message}") and captured.err.count("\n") == 1
