"""End-to-end command line checks, run in process through main(); the
closed-pipe check runs the module in a child process."""
import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from functorlab import augmentation, cli, gamma_section
from functorlab.cli import main
from functorlab.gamma_section import VerificationError

SRC = Path(__file__).resolve().parents[1] / "src"


# stdout of `verify gamma-epsilon --k 2 --n 3`, recorded while the summary
# line still recomputed the cell instead of reusing the suite's results.
GAMMA_EPSILON_2_3 = """\
{
  "cells": [
    {
      "anchor": "cokernel-invariants-match",
      "params": {
        "k": 2,
        "n": 3
      },
      "verdict": "pass"
    },
    {
      "anchor": "finite-index-injection",
      "params": {
        "k": 2,
        "n": 3
      },
      "verdict": "pass"
    },
    {
      "anchor": "kernel-lattice-match",
      "params": {
        "k": 2,
        "n": 3
      },
      "verdict": "pass"
    },
    {
      "anchor": "section-identity",
      "params": {
        "k": 2,
        "n": 3
      },
      "verdict": "pass"
    }
  ],
  "seed": 0,
  "suite": "gamma-epsilon",
  "summary": {
    "coker_invariants": [
      2,
      2,
      6,
      6
    ],
    "index": 144,
    "kernel_match": true,
    "section": true
  }
}
"""


# sha256 of the stdout of `verify all --max-k 2 --max-n 2 --seed 7`, recorded
# before the augmentation and divided-power classes shared one base.
VERIFY_ALL_2_2_SEED_7 = "b191c2abf959ca84fdd061bcded1b0ecb8c77a4856d341ba15c66dc75b8c4e36"

# sha256 of `verify all --max-k 4 --max-n 3 --seed 3`, the grid that reaches
# the rank-4 composition tables; the same digest is in perfbench/expected.json.
VERIFY_ALL_4_3_SEED_3 = "09519caf221d49a88cbdeddb7d157e3b3be8bb73ee1bc53eb8f39e18f9d01320"

# sha256 of `table invariants|index --max-k 4 --max-n 3 --format json`, the
# rank-4 Smith forms, recorded while the Smith form still built U and V.
TABLE_INVARIANTS_4_3 = "04a26fc170ba5eebb9e005f5edaae961985c33ab6a2594d648f8a2934e0cc195"
TABLE_INDEX_4_3 = "3e7fc99042f903d56d1eedcb24c03b2cac7bef5e8117dd81e2d9d27deaa5a2da"

# sha256 of `functor arrow --format json` for MIXED_SUM on a 2x3 and a 3x2
# hom, recorded while each functor kind still went through isinstance ladders.
MIXED_SUM = '{"sum":[{"tensor":2},{"sym":2},{"ext":2},{"div":2},{"const":1}]}'
MIXED_SUM_ARROWS = {
    "[[1, -2, 0], [3, 1, 2]]": "c657874189589c0454457a11f2a7911457a20f648ca7f7ed34edfc813a7f993f",
    "[[2, 0], [-1, 3], [1, 1]]": "65dd8730dd4b350d15c618e1ddf5594ee88fac9745cfbd2682c04d4f677f2983",
}


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


class TestVerify:
    def test_pinned_gamma_epsilon_cell(self, capsys):
        code, out, _ = run(capsys, ["verify", "gamma-epsilon", "--k", "1", "--n", "2"])
        assert code == 0
        report = json.loads(out)
        assert report["summary"] == {
            "section": True,
            "kernel_match": True,
            "coker_invariants": [2],
            "index": 2,
        }
        assert report["cells"]
        assert all(c["verdict"] == "pass" for c in report["cells"])

    def _check_verify_all(self, capsys, max_k, max_n, seed, digest):
        code, out, _ = run(
            capsys,
            ["verify", "all", "--max-k", str(max_k), "--max-n", str(max_n), "--seed", str(seed)],
        )
        assert code == 0
        report = json.loads(out)
        suites = {c["params"]["suite"] for c in report["cells"]}
        assert suites == {"deviations", "aug-algebra", "gamma-epsilon", "schur", "morita"}
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_all_suites_pass(self, capsys):
        self._check_verify_all(capsys, 2, 2, 7, VERIFY_ALL_2_2_SEED_7)

    def test_all_suites_pass_up_to_rank_four(self, capsys):
        self._check_verify_all(capsys, 4, 3, 3, VERIFY_ALL_4_3_SEED_3)

    def test_identical_invocations_print_identical_bytes(self, capsys):
        argv = ["verify", "schur", "--max-n", "2", "--seed", "5"]
        code1, out1, _ = run(capsys, argv)
        code2, out2, _ = run(capsys, argv)
        assert code1 == code2 == 0
        assert out1 == out2

    def test_plain_format_one_line_per_cell(self, capsys):
        code, out, _ = run(
            capsys,
            ["verify", "deviations", "--max-n", "1", "--format", "plain"],
        )
        assert code == 0
        lines = [l for l in out.splitlines() if l.strip()]
        assert all(l.startswith(("pass", "fail")) for l in lines)

    def test_csv_format_has_header(self, capsys):
        code, out, _ = run(
            capsys,
            ["verify", "deviations", "--max-n", "1", "--format", "csv"],
        )
        assert code == 0
        assert out.splitlines()[0] == "anchor,params,verdict,witness"

    def test_empty_grid_passes_vacuously(self, capsys):
        code, out, _ = run(
            capsys, ["verify", "gamma-epsilon", "--max-k", "0", "--max-n", "0"]
        )
        assert code == 0
        assert json.loads(out)["cells"] == []

    def test_gamma_epsilon_cell_output_is_pinned(self, capsys):
        code, out, _ = run(capsys, ["verify", "gamma-epsilon", "--k", "2", "--n", "3"])
        assert code == 0
        assert out == GAMMA_EPSILON_2_3

    def failing_kernel_cell(self, capsys, monkeypatch, edit):
        """The cells of `verify gamma-epsilon --k 2 --n 4` with the scaling
        rows changed by edit(rows, dim): exit 1, an empty stderr, and only
        the kernel cell failing, whose witness is returned."""
        real = gamma_section._scaling_rows

        def rows(rank, degree):
            out = real(rank, degree)
            edit(out, augmentation.aug_dimension(rank, degree))
            return out

        monkeypatch.setattr(gamma_section, "_scaling_rows", rows)
        code, out, err = run(capsys, ["verify", "gamma-epsilon", "--k", "2", "--n", "4"])
        assert code == 1 and not err
        cells = {c["anchor"]: c for c in json.loads(out)["cells"]}
        ker = cells.pop("kernel-lattice-match")
        assert ker["verdict"] == "fail"
        assert all(c["verdict"] == "pass" and "witness" not in c for c in cells.values())
        assert json.loads(out)["summary"]["kernel_match"] is False
        return ker["witness"]

    def test_failing_kernel_cell_carries_witness(self, capsys, monkeypatch):
        # one scaling class fewer leaves the span a rank short of the kernel
        witness = self.failing_kernel_cell(capsys, monkeypatch, lambda rows, dim: rows.popitem())
        assert witness == ["rank", 9, 10]

    def test_escaping_kernel_row_carries_witness(self, capsys, monkeypatch):
        # a class that gamma does not kill (its last column is nonzero) is
        # named by its point z
        def perturb(rows, dim):
            rows[(0, 0)][dim - 1] = 1

        witness = self.failing_kernel_cell(capsys, monkeypatch, perturb)
        assert witness == ["escape", [0, 0]]

    def test_kernel_cell_passes_past_degree_three(self, capsys):
        code, out, _ = run(capsys, ["verify", "gamma-epsilon", "--k", "2", "--n", "4"])
        assert code == 0
        cells = json.loads(out)["cells"]
        assert "kernel-lattice-match" in {c["anchor"] for c in cells}
        assert all(c["verdict"] == "pass" and "witness" not in c for c in cells)

    def test_rank_nine_degree_two_cell(self, capsys):
        # values from the Smith form of the stacked map, recorded while the
        # products sublattice was still built product by product
        code, out, _ = run(capsys, ["verify", "gamma-epsilon", "--k", "9", "--n", "2"])
        assert code == 0
        summary = json.loads(out)["summary"]
        assert summary["coker_invariants"] == [2] * 9
        assert summary["index"] == 512

    @pytest.mark.parametrize("error", [VerificationError, ValueError])
    def test_morita_extraction_error_is_a_failing_cell(self, capsys, monkeypatch, error):
        real = cli.extract_morita_module

        def extract(spec, n, seed=0):
            if spec == cli.Sym(2):
                raise error("extraction broke")
            return real(spec, n, seed=seed)

        monkeypatch.setattr(cli, "extract_morita_module", extract)
        code, out, err = run(capsys, ["verify", "all", "--max-k", "1", "--max-n", "1"])
        assert code == 1 and not err
        failed = [c for c in json.loads(out)["cells"] if c["verdict"] == "fail"]
        assert failed == [
            {
                "anchor": "module-ring-axioms",
                "params": {"functor": "sym^2", "n": 2, "suite": "morita"},
                "verdict": "fail",
                "witness": "extraction broke",
            }
        ]
        # the other catalog functors still reach their reconstruction cells
        cells = json.loads(out)["cells"]
        assert {c["params"]["functor"] for c in cells if c["anchor"] == "reconstruction-rank"} == {
            "tensor^2", "ext^2", "div^2"
        }

    @pytest.mark.parametrize("error", [VerificationError, ValueError])
    @pytest.mark.parametrize(
        "target,anchors",
        [
            (
                "ring_hom_checks",
                {
                    "divided-power-map-multiplicative",
                    "section-multiplicative",
                    "top-deviation-product",
                },
            ),
            ("extract_gamma_structure", {"restriction-matches-extraction"}),
            ("restrict_scalars", {"restriction-matches-extraction"}),
            ("kernel_of_gamma", {"kernel-lattice-match"}),
            ("cokernel_of_pi_gamma", {"cokernel-invariants-match", "finite-index-injection"}),
            ("scaling_cross_check", {"functor-scaling-laws"}),
            ("degree_certificate", {"degree-certificate", "degree-certificate-sharp"}),
            ("reconstruct", {"reconstruction-rank"}),
            ("quasi_homogeneity_test", {"kernel-annihilation", "kernel-annihilation-mixed"}),
            ("is_numerical_degree", {"scalar-binomial-degree", "scalar-binomial-sharp"}),
        ],
    )
    def test_cell_error_is_a_failing_cell(self, capsys, monkeypatch, error, target, anchors):
        def broken(*args, **kwargs):
            raise error("check broke")

        monkeypatch.setattr(cli, target, broken)
        code, out, err = run(capsys, ["verify", "all", "--max-k", "1", "--max-n", "1"])
        assert code == 1 and not err
        failed = [c for c in json.loads(out)["cells"] if c["verdict"] == "fail"]
        assert {c["anchor"] for c in failed} == anchors
        assert all(c["witness"] == "check broke" for c in failed)

    @pytest.mark.parametrize("error", [VerificationError, ValueError])
    def test_failed_cokernel_leaves_summary_without_invariants(self, capsys, monkeypatch, error):
        def broken(k, n):
            raise error("cokernel broke")

        monkeypatch.setattr(cli, "cokernel_of_pi_gamma", broken)
        code, out, err = run(capsys, ["verify", "gamma-epsilon", "--k", "2", "--n", "3"])
        assert code == 1 and not err
        report = json.loads(out)
        assert report["summary"] == {
            "section": True,
            "kernel_match": True,
            "coker_invariants": None,
            "index": None,
        }
        failed = {c["anchor"]: c["witness"] for c in report["cells"] if c["verdict"] == "fail"}
        assert failed == {
            "cokernel-invariants-match": "cokernel broke",
            "finite-index-injection": "cokernel broke",
        }

    def test_failing_sampled_cell_names_a_failing_draw(self, capsys, monkeypatch):
        # with the unit of the sum product broken, a draw of sum-ring-axioms
        # fails exactly when its u is nonzero, so the witness names such a
        # draw; the other cells, which draw from the same seeded stream after
        # it, are unchanged
        argv = ["verify", "aug-algebra", "--max-k", "2", "--max-n", "2", "--seed", "4"]
        _, before, _ = run(capsys, argv)
        monkeypatch.setattr(augmentation.AugAlgebra, "one", lambda self: self.zero())
        code, out, err = run(capsys, argv)
        assert code == 1 and not err
        cells, expected = json.loads(out)["cells"], json.loads(before)["cells"]
        failed = [c for c in cells if c["verdict"] == "fail"]
        assert {c["anchor"] for c in failed} == {"sum-ring-axioms"}
        assert len(failed) == 4
        for cell in failed:
            witness = cell["witness"]
            assert sorted(witness) == ["u", "v", "w", "x", "y"]
            assert any(witness["u"])
        assert [c for c in cells if c["anchor"] != "sum-ring-axioms"] == [
            c for c in expected if c["anchor"] != "sum-ring-axioms"
        ]

    def test_sampled_runs_every_draw_and_keeps_the_last_failure(self):
        ran = []

        def draw(i, ok):
            def check():
                ran.append(i)
                if ok is None:
                    raise ValueError(f"draw {i} broke")
                return ok, {"draw": i}
            return check

        outcomes = [True, False, None, False, True]
        assert cli._sampled([draw(i, ok) for i, ok in enumerate(outcomes)]) == (False, {"draw": 3})
        assert ran == [0, 1, 2, 3, 4]
        assert cli._sampled([draw(0, False), draw(1, None)]) == (False, "draw 1 broke")
        assert cli._sampled([draw(0, True), draw(1, True)]) == (True, None)
        assert cli._sampled([]) == (True, None)

    def test_failing_draw_reproduces_alone(self, capsys, monkeypatch):
        # a broken orbit-sum read-off fails on every nonzero vector; the
        # witness, the last failing draw, fails when checked by itself
        real = cli.tensor_readoff
        monkeypatch.setattr(cli, "tensor_readoff", lambda space, t: real(space, t).scale(2))
        code, out, _ = run(capsys, ["verify", "schur", "--max-n", "2", "--seed", "1"])
        assert code == 1
        failed = [c for c in json.loads(out)["cells"] if c["verdict"] == "fail"]
        assert [c["anchor"] for c in failed] == ["orbit-sum-round-trip"] * 2
        for cell in failed:
            space = cli.GammaModule(4, cell["params"]["n"])
            elem = space.from_vector(tuple(cell["witness"]["vector"]))
            assert cli.tensor_readoff(space, cli.tensor_embedding(elem)) != elem

    def test_failed_section_identity_fails_its_cells(self, capsys, monkeypatch):
        # epsilon_matrix raises inside the section cell and inside
        # ring_hom_checks; both become failing cells, not a traceback
        monkeypatch.setattr(gamma_section, "_is_section", lambda gam, eps: False)
        code, out, err = run(capsys, ["verify", "all", "--max-k", "2", "--max-n", "2"])
        assert code == 1 and not err
        failed = [c for c in json.loads(out)["cells"] if c["verdict"] == "fail"]
        assert sorted((c["anchor"], c["params"]["n"]) for c in failed) == sorted(
            [("section-identity", n) for k in (1, 2) for n in (1, 2)]
            + [
                (anchor, n)
                for anchor in (
                    "divided-power-map-multiplicative", "section-multiplicative", "top-deviation-product"
                )
                for n in (1, 2)
            ]
        )
        assert all(c["witness"].startswith("section identity failed") for c in failed)

    @pytest.mark.parametrize(
        "argv",
        [
            # more output than the stdout buffer holds: a write fails
            ["verify", "all"],
            # a few lines: only the final flush fails
            ["verify", "gamma-epsilon", "--k", "1", "--n", "1"],
        ],
    )
    def test_closed_pipe_exits_without_traceback(self, argv):
        read_end, write_end = os.pipe()
        os.close(read_end)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
        env.pop("PYTHONUNBUFFERED", None)  # keep stdout block-buffered
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "functorlab.cli", *argv],
                stdout=write_end,
                stderr=subprocess.PIPE,
                env=env,
                timeout=300,
            )
        finally:
            os.close(write_end)
        assert b"Traceback" not in proc.stderr
        assert b"BrokenPipeError" not in proc.stderr
        assert proc.returncode in (0, 1, 2)

    @pytest.mark.parametrize(
        "argv",
        [
            ["verify", "gamma-epsilon", "--k", "-1", "--n", "2"],
            ["verify", "gamma-epsilon", "--k", "2", "--n", "0"],
            ["verify", "all", "--max-k", "-1"],
            # --k and --n only name a gamma-epsilon cell together
            ["verify", "gamma-epsilon", "--k", "2"],
            ["verify", "gamma-epsilon", "--n", "2"],
            ["verify", "all", "--k", "1", "--n", "1"],
            ["verify", "schur", "--k", "1", "--n", "1"],
        ],
    )
    def test_bad_sizes_are_usage_errors(self, capsys, argv):
        code, out, err = run(capsys, argv)
        assert code == 2
        assert out == ""
        assert "Traceback" not in err

    def test_unknown_suite_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "nonsense"])
        assert exc.value.code == 2
        capsys.readouterr()


class TestTable:
    def test_dims_json(self, capsys):
        code, out, _ = run(
            capsys, ["table", "dims", "--max-k", "2", "--max-n", "2", "--format", "json"]
        )
        assert code == 0
        rows = json.loads(out)["rows"]
        assert {"k": 1, "n": 2, "truncated_dim": 3, "divided_dim": 1} in rows
        assert {"k": 2, "n": 2, "truncated_dim": 6, "divided_dim": 3} in rows

    def test_index_values(self, capsys):
        code, out, _ = run(
            capsys, ["table", "index", "--max-k", "2", "--max-n", "2", "--format", "json"]
        )
        assert code == 0
        got = {(r["k"], r["n"]): r["index"] for r in json.loads(out)["rows"]}
        assert got == {(1, 1): 1, (1, 2): 2, (2, 1): 1, (2, 2): 4}

    def test_invariants_csv(self, capsys):
        code, out, _ = run(
            capsys,
            ["table", "invariants", "--max-k", "1", "--max-n", "2", "--format", "csv"],
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "k,n,torsion,free_rank"
        assert lines[2] == "1,2,2,0"

    @pytest.mark.parametrize(
        "table, digest", [("invariants", TABLE_INVARIANTS_4_3), ("index", TABLE_INDEX_4_3)]
    )
    def test_rank_four_digest(self, capsys, table, digest):
        code, out, _ = run(
            capsys, ["table", table, "--max-k", "4", "--max-n", "3", "--format", "json"]
        )
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_plain_is_aligned(self, capsys):
        code, out, _ = run(capsys, ["table", "dims", "--max-k", "1", "--max-n", "1"])
        assert code == 0
        header, row = out.splitlines()[:2]
        assert header.split() == ["k", "n", "truncated_dim", "divided_dim"]
        assert row.split() == ["1", "1", "2", "1"]


class TestFunctor:
    def test_dims(self, capsys):
        code, out, _ = run(
            capsys,
            ["functor", "dims", "--spec", '{"sym": 2}', "--q", "3", "--format", "plain"],
        )
        assert code == 0
        assert out.strip() == "6"

    def test_arrow_plain(self, capsys):
        code, out, _ = run(
            capsys,
            [
                "functor",
                "arrow",
                "--spec",
                '{"sym": 2}',
                "--hom",
                "[[1, 2], [3, 4]]",
                "--format",
                "plain",
            ],
        )
        assert code == 0
        assert out.splitlines() == ["1 2 4", "6 10 16", "9 12 16"]

    def test_extract_reports_module(self, capsys):
        code, out, _ = run(capsys, ["functor", "extract", "--spec", '{"ext": 2}'])
        assert code == 0
        data = json.loads(out)
        assert data["generators"] == 1
        assert data["free_rank"] == 1
        assert data["torsion"] == []
        assert data["multiplicative"] is True

    @pytest.mark.parametrize("hom", sorted(MIXED_SUM_ARROWS))
    def test_mixed_sum_arrow_is_pinned(self, capsys, hom):
        code, out, _ = run(
            capsys, ["functor", "arrow", "--spec", MIXED_SUM, "--hom", hom, "--format", "json"]
        )
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == MIXED_SUM_ARROWS[hom]

    def test_power_kinds_stay_distinct(self):
        # suite_morita keys its modules by spec
        powers = [cli.Tensor(2), cli.Sym(2), cli.Ext(2), cli.Div(2)]
        for i, a in enumerate(powers):
            for b in powers[i + 1 :]:
                assert a != b
        keyed = {spec: spec.label() for spec in powers}
        assert len(keyed) == 4
        assert [keyed[spec] for spec in powers] == ["tensor^2", "sym^2", "ext^2", "div^2"]

    @pytest.mark.parametrize("error", [VerificationError, ValueError])
    @pytest.mark.parametrize("action", [["extract"], ["reconstruct", "--q", "2"]])
    def test_extraction_error_is_reported(self, capsys, monkeypatch, error, action):
        def extract(spec, n, seed=0):
            raise error("extraction broke")

        monkeypatch.setattr(cli, "extract_morita_module", extract)
        code, out, err = run(capsys, ["functor", action[0], "--spec", '{"sym": 2}', *action[1:]])
        assert (code, out, err) == (1, '{"error": "extraction broke"}\n', "")

    @pytest.mark.parametrize("error", [VerificationError, ValueError])
    def test_reconstruction_error_is_reported(self, capsys, monkeypatch, error):
        def broken(module, q):
            raise error("reconstruction broke")

        monkeypatch.setattr(cli, "reconstruct", broken)
        code, out, err = run(capsys, ["functor", "reconstruct", "--spec", '{"sym": 2}', "--q", "2"])
        assert (code, out, err) == (1, '{"error": "reconstruction broke"}\n', "")

    def test_extract_rejects_wrong_degree(self, capsys):
        code, out, _ = run(
            capsys, ["functor", "extract", "--spec", '{"sym": 2}', "--n", "1"]
        )
        assert code == 1
        assert "error" in json.loads(out)

    def test_reconstruct_matches(self, capsys):
        code, out, _ = run(
            capsys, ["functor", "reconstruct", "--spec", '{"div": 2}', "--q", "2"]
        )
        assert code == 0
        data = json.loads(out)
        assert data["matches"] is True
        assert data["free_rank"] == data["expected_rank"] == 3

    @pytest.mark.parametrize(
        "argv",
        [
            ["functor", "dims", "--spec", '{"sym": 2}', "--q", "-1"],
            ["functor", "extract", "--spec", '{"sym": 2}', "--n", "-1"],
            ["functor", "reconstruct", "--spec", '{"sym": 2}', "--q", "-2"],
            ["functor", "dims", "--spec", '{"sym": true}', "--q", "2"],
            ["functor", "dims", "--spec", '{"sym": "2"}', "--q", "2"],
            # 10^5000 has more digits than Python converts to a string
            ["functor", "dims", "--spec", '{"tensor": 5000}', "--q", "10", "--format", "plain"],
            ["functor", "dims", "--spec", '{"tensor": 5000}', "--q", "10"],
            # an arrow or a reconstruction whose integers are past that limit
            ["functor", "arrow", "--spec", '{"tensor": 3}', "--hom", f"[[{'9' * 2000}]]"],
            [
                "functor", "arrow", "--spec", '{"sym": 3}', "--hom", f"[[{'9' * 2000}]]",
                "--format", "plain",
            ],
            ["functor", "reconstruct", "--spec", '{"sym": 3}', "--n", "3", "--q", "9" * 4000],
        ],
    )
    def test_bad_sizes_and_powers_are_usage_errors(self, capsys, argv):
        code, out, err = run(capsys, argv)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ")
        assert "Traceback" not in err

    def test_missing_q_is_usage_error(self, capsys):
        code, _, err = run(capsys, ["functor", "dims", "--spec", '{"sym": 2}'])
        assert code == 2
        assert "needs --q" in err

    def test_bad_spec_is_usage_error(self, capsys):
        code, _, err = run(
            capsys, ["functor", "dims", "--spec", '{"frobnicate": 1}', "--q", "2"]
        )
        assert code == 2
        assert "bad functor spec" in err

    def test_bad_matrix_is_usage_error(self, capsys):
        code, _, err = run(
            capsys,
            ["functor", "arrow", "--spec", '{"sym": 2}', "--hom", "[[1, 0.5]]"],
        )
        assert code == 2
        assert "bad matrix" in err


# ------------------------------------------------------------ argv fuzzing

SMALL = st.integers(-1, 2)
SEEDS = st.integers(-3, 3)
FORMATS = st.sampled_from(["json", "csv", "plain", "plain", "yaml"])


def _one_key(keys, values):
    return st.builds(lambda k, v: {k: v}, st.sampled_from(keys), values)


SPECS = st.recursive(
    _one_key(["tensor", "sym", "ext", "div"], st.integers(0, 3))
    | _one_key(["const"], st.integers(0, 2)),
    lambda inner: st.lists(inner, min_size=1, max_size=3).map(lambda xs: {"sum": xs}),
    max_leaves=4,
)
# malformed: unknown kinds, values of the wrong type, not JSON at all
BAD_SPECS = st.sampled_from(
    ['{"sym": -1}', '{"sym": true}', '{"sym": "2"}', '{"frob": 1}', "[]", "{}", "sym", '{"sum": 3}']
)
MATRICES = st.tuples(st.integers(0, 3), st.integers(0, 3)).flatmap(
    lambda shape: st.lists(
        st.lists(st.integers(-3, 3), min_size=shape[1], max_size=shape[1]),
        min_size=shape[0],
        max_size=shape[0],
    )
)
# malformed: ragged, fractional, boolean, not a list of rows
BAD_MATRICES = st.sampled_from(
    ["[[1, 2], [3]]", "[[0.5]]", "[[true]]", "[1, 2]", '[["a"]]', "{}", "[[]]", "[[1]"]
)
HOMS = st.one_of(MATRICES.map(json.dumps), BAD_MATRICES, st.text(max_size=6))
# stray arguments: unknown flags, a flag without its value, non-integer values
STRAY = st.lists(
    st.sampled_from(["--bogus", "--seed", "--k", "x", "-1", "--max-k=a", "--n=1.5"]),
    min_size=1,
    max_size=2,
)


def _flag(name, values):
    return st.tuples(st.just(name), values.map(str))


def _argv(command, positionals, flags, required=()):
    """[command, positional, *required, *flags, *stray]: a few distinct flags,
    stray arguments in about one case in four."""
    return st.tuples(
        st.sampled_from(positionals * 3 + ["bogus"]),
        st.tuples(*required),
        st.lists(st.one_of(*flags), max_size=4, unique_by=lambda f: f[0]),
        st.one_of(st.just([]), st.just([]), st.just([]), STRAY),
    ).map(lambda t: [command, t[0], *(x for f in (*t[1], *t[2]) for x in f), *t[3]])


ARGV = st.one_of(
    _argv(
        "verify",
        list(cli._SUITES),
        [_flag(f, SMALL) for f in ("--k", "--n", "--q", "--max-k", "--max-n")]
        + [_flag("--seed", SEEDS), _flag("--format", FORMATS)],
    ),
    _argv(
        "table",
        ["dims", "index", "invariants"],
        [_flag("--max-k", SMALL), _flag("--max-n", SMALL), _flag("--format", FORMATS)],
    ),
    _argv(
        "functor",
        ["dims", "arrow", "extract", "reconstruct"],
        [_flag(f, SMALL) for f in ("--q", "--n")]
        + [_flag("--seed", SEEDS), _flag("--format", FORMATS)]
        + [st.tuples(st.just("--hom"), HOMS)],
        required=[
            st.tuples(
                st.just("--spec"),
                st.one_of(*[SPECS.map(json.dumps)] * 4, BAD_SPECS, st.text(max_size=6)),
            )
        ],
    ),
)


class TestContract:
    @settings(max_examples=120, deadline=None)
    @given(ARGV)
    def test_exit_codes_and_streams(self, argv):
        # exit 0, 1 or 2 only, and no exception escapes main; stdout is
        # empty on a refused input (exit 2) and stderr is empty otherwise
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse refused the arguments
                code = exc.code
        assert code in (0, 1, 2), (argv, code)
        if code == 2:
            assert out.getvalue() == "", argv
        else:
            assert err.getvalue() == "", (argv, err.getvalue())

    @pytest.mark.parametrize(
        "argv",
        [
            ["functor", "arrow", "--spec", '{"tensor": 12}', "--hom", "[[1, 2], [3, 4]]"],
            ["verify", "gamma-epsilon", "--k", "30", "--n", "6"],
            ["verify", "all", "--max-k", "30", "--max-n", "6"],
            ["table", "index", "--max-k", "30", "--max-n", "6"],
            ["table", "invariants", "--max-k", "30", "--max-n", "6"],
            ["verify", "deviations", "--max-n", "7"],
            ["verify", "all", "--max-k", "2", "--max-n", "7"],
            ["verify", "deviations", "--max-n", str(10**12)],
            # composition tables past their weight, and aug-algebra past the
            # dimension limit
            ["verify", "schur", "--max-n", "7"],
            ["verify", "schur", "--max-n", "100"],
            ["verify", "schur", "--max-n", str(10**12)],
            ["verify", "aug-algebra", "--max-k", "3", "--max-n", "11"],
            ["verify", "aug-algebra", "--max-k", "9", "--max-n", "5"],
            ["verify", "aug-algebra", "--max-k", "81", "--max-n", "2"],
            ["verify", "aug-algebra", "--max-k", "4", "--max-n", "40"],
            ["verify", "aug-algebra", "--max-k", "30", "--max-n", "6"],
            ["verify", "all", "--max-k", "9", "--max-n", "6"],
            # functor extract and reconstruct past the dimension limit or with
            # a certificate arrow past the arrow limit, and the morita sweep
            # past its limit on --q
            ["functor", "extract", "--spec", '{"sym": 2}', "--n", "5"],
            ["functor", "extract", "--spec", '{"sym": 2}', "--n", str(10**6)],
            ["functor", "reconstruct", "--spec", '{"sym": 2}', "--n", "5", "--q", "1"],
            ["functor", "reconstruct", "--spec", '{"sym": 2}', "--n", str(10**6), "--q", "1"],
            ["functor", "extract", "--spec", '{"tensor": 10}', "--n", "3"],
            ["functor", "reconstruct", "--spec", '{"tensor": 10}', "--n", "3", "--q", "1"],
            ["verify", "morita", "--q", "4097"],
            ["verify", "all", "--q", "4097"],
            ["verify", "morita", "--q", str(10**12)],
            ["verify", "all", "--q", str(10**12)],
        ]
        # within the dimension limit, but dim B(k, n) * n^2 is past its own:
        # built, (4, 14) takes 14 s and (2, 60) a minute
        + [
            ["verify", "gamma-epsilon", "--k", str(k), "--n", str(n)]
            for k, n in [(2, 60), (1, 300), (4, 14), (1, 200), (3, 30), (4, 19), (2, 90), (0, 10**12)]
        ],
    )
    def test_oversized_runs_are_refused_at_once(self, capsys, argv):
        # built, these would exhaust memory or time; their size is read off a
        # closed form first, so they exit 2 at once with one line on stderr
        # and nothing on stdout
        start = time.perf_counter()
        code, out, err = run(capsys, argv)
        assert time.perf_counter() - start < 2
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and "size limit" in err and err.count("\n") == 1

    @pytest.mark.parametrize("k,n,seconds", [(2, 20, 2), (3, 12, 3), (4, 11, 10)])
    def test_gamma_epsilon_cells_past_the_old_weight_pass(self, capsys, k, n, seconds):
        # refused while the cell built the kernel of gamma; without it they
        # take 0.3 s, 0.7 s and 2.6 s
        start = time.perf_counter()
        code, out, err = run(capsys, ["verify", "gamma-epsilon", "--k", str(k), "--n", str(n)])
        assert time.perf_counter() - start < seconds
        assert (code, err) == (0, "")
        report = json.loads(out)
        assert len(report["cells"]) == 4 and all(c["verdict"] == "pass" for c in report["cells"])
        assert report["summary"]["kernel_match"] is True

    @pytest.mark.parametrize(
        "argv",
        [
            ["functor", "reconstruct", "--spec", '{"sym": 2}', "--n", "2", "--q", "100000"],
            ["functor", "reconstruct", "--spec", '{"sym": 2}', "--n", "2", "--q", str(10**30)],
            ["functor", "reconstruct", "--spec", '{"tensor": 3}', "--n", "3", "--q", "17"],
            ["verify", "morita", "--q", "100"],
        ],
    )
    def test_runs_that_grow_with_q_alone_finish_at_once(self, capsys, argv):
        # reconstruction reads q off its cross effects and builds nothing that
        # grows with q, so these end at once; the morita sweep adds four cheap
        # cells per q
        start = time.perf_counter()
        code, out, err = run(capsys, argv)
        assert time.perf_counter() - start < 2
        assert (code, err) == (0, "")
        data = json.loads(out)
        if argv[0] == "functor":
            assert data["matches"] is True and data["free_rank"] == data["expected_rank"]
        else:
            ranks = [c for c in data["cells"] if c["anchor"] == "reconstruction-rank"]
            assert len(ranks) == 400 and all(c["verdict"] == "pass" for c in ranks)

    def test_extract_at_degree_four_runs(self, capsys):
        # refused while its multiplicativity check built the whole 4 x 4
        # composition table (30 s); the check now walks ten entries
        start = time.perf_counter()
        code, out, err = run(capsys, ["functor", "extract", "--spec", '{"sym": 4}', "--n", "4"])
        assert time.perf_counter() - start < 10
        assert (code, err) == (0, "")
        data = json.loads(out)
        assert (data["generators"], data["free_rank"], data["torsion"]) == (35, 35, [])
        assert data["multiplicative"] is True

    @pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"), reason="no digit limit")
    def test_exact_integers_print_under_a_low_digit_limit(self, capsys):
        # the index at (4, 9) has 652 digits: under a 640-digit limit on
        # int-to-str conversion both commands print the bytes they print at
        # the default limit, and leave the limit as they found it
        formats = ("json", "plain", "csv")
        runs = [["verify", "gamma-epsilon", "--k", "4", "--n", "9", "--format", f] for f in formats]
        runs += [["table", "index", "--max-k", "4", "--max-n", "9", "--format", f] for f in formats]
        expected = [run(capsys, argv) for argv in runs]
        old = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(640)
        try:
            for argv, want in zip(runs, expected):
                assert want[0] == 0 and want[2] == "", argv
                assert run(capsys, argv) == want, argv
                assert sys.get_int_max_str_digits() == 640
        finally:
            sys.set_int_max_str_digits(old)
        assert sys.get_int_max_str_digits() == old

    def test_size_limits_keep_the_reach_cells(self):
        # the gamma-epsilon cells of the CI reach steps and 12 x 5 stay under
        # the limit; tensor^12 of a 2 x 2 matrix (4096 x 4096, every entry
        # nonzero) is past it; the deviations suite reaches max-n 6 (tensor^6
        # of the 6 x 6 identity has 6^6 rows) and no further
        reach = [(9, 2), (9, 4), (6, 6), (4, 8), (4, 9), (4, 10), (12, 5), (2, 20), (3, 12), (4, 11)]
        for k, n in reach + [(7, 8)]:
            assert augmentation.aug_dimension(k, n) <= cli.MAX_AUG_DIMENSION
            assert augmentation.aug_dimension(k, n) * n * n <= cli.MAX_GAMMA_EPSILON_WEIGHT
        # the gamma-epsilon weight never refuses a verify-all grid (n <= 6)
        # that the dimension limit lets through, nor a cell that the kernel's
        # weight dim B(k, n) * 2^n <= 2^20 let through
        assert cli.MAX_AUG_DIMENSION * 6 * 6 <= cli.MAX_GAMMA_EPSILON_WEIGHT
        for n in range(1, 21):
            k = 0
            while (dim := augmentation.aug_dimension(k, n)) <= cli.MAX_AUG_DIMENSION and dim << n <= 2**20:
                assert dim * n * n <= cli.MAX_GAMMA_EPSILON_WEIGHT
                k += 1
        assert augmentation.aug_dimension(30, 6) > cli.MAX_AUG_DIMENSION
        assert 4096 * 4096 > cli.MAX_ARROW_ENTRIES
        assert 6**6 <= cli.MAX_TENSOR_ROWS < 7**7
        # the composition tables of the reach steps, `verify schur --max-n 6`
        # and `verify aug-algebra --max-k 9 --max-n 4`, stay under their limit
        for side, n in [(2, 6), (3, 4), (1, 10), (8, 2)]:
            cli._check_composition_table(side, n)
        for side, n in [(2, 7), (3, 5), (4, 4), (5, 3), (9, 2), (1, 11)]:
            with pytest.raises(cli.UsageError, match="size limit"):
                cli._check_composition_table(side, n)
        # functor extract and reconstruct, which build no table, stay under
        # the dimension limit at n <= 4, and their certificate arrows under
        # the arrow limit up to tensor^4 at n = 4; the CI step `verify morita
        # --q 30` and `--q 100` stay under the sweep's limit
        for n in range(5):
            cli._check_aug_dimension(n * n, n)
            assert cli.object_dim(cli.Tensor(n), max(n + 1, 2)) ** 2 <= cli.MAX_ARROW_ENTRIES
        assert 100 <= cli.MAX_MORITA_Q < 10**12

    def test_aug_algebra_names_the_dimension_limit(self, capsys):
        # a grid past the dimension limit is past the table weight too; the
        # dimension is checked first, as in gamma-epsilon and all
        code, out, err = run(capsys, ["verify", "aug-algebra", "--max-k", "30", "--max-n", "6"])
        assert (code, out) == (2, "")
        assert "dim B(30, 6) exceeds the size limit" in err

    def test_table_dims_is_not_guarded(self, capsys):
        # the dims table reads closed forms only, so any grid prints
        code, out, err = run(capsys, ["table", "dims", "--max-k", "30", "--max-n", "6"])
        assert (code, err) == (0, "")
        assert out.splitlines()[-1].split() == ["30", "6", "1947792", "1623160"]
