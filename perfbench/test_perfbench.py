"""Tests of the benchmark itself: seeded inputs, verdict checks, isolation
of forked commands and the tracer.

Run with ``python3 -m pytest perfbench`` from the repository root.
"""

from __future__ import annotations

import json
import sys
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
for path in (HERE, HERE.parent / "src"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

import pytest  # noqa: E402

import layers  # noqa: E402
import runner  # noqa: E402
import workloads  # noqa: E402
from qclifford import cli  # noqa: E402
from qclifford.deform import GeneratorSet, build_deforming_map  # noqa: E402
from qclifford.rmatrix import RMatrix, build_rhat_sl  # noqa: E402

SEEDED = ("verify", "chain", "symmetry")


def inputs(workload):
    return [(c.label, c.argv) for c in workload.commands], workload.files


def expectations(workload):
    """Known answers with the seed-dependent eval value left out."""
    out = []
    for command in workload.commands:
        expect = dict(command.expect)
        expect.pop("value", None)
        out.append((command.label, expect))
    return out


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_same_seed_gives_byte_identical_inputs(name):
    first, second = workloads.build(name, 11), workloads.build(name, 11)
    assert inputs(first) == inputs(second)


@pytest.mark.parametrize("name", SEEDED)
def test_other_seed_changes_inputs_not_verdicts(name):
    first, second = workloads.build(name, 1), workloads.build(name, 2)
    assert inputs(first) != inputs(second)
    assert expectations(first) == expectations(second)


def test_poincare_ignores_the_seed():
    assert inputs(workloads.build("poincare", 1)) == inputs(workloads.build("poincare", 2))


def test_unscaled_generator_file_is_the_deforming_map():
    doc = workloads.generator_set_doc(4, [(Fraction(1), 0)] * 4)
    gens = GeneratorSet.from_json(json.loads(json.dumps(doc)))
    reference = build_deforming_map(4)
    assert gens.creators == reference.creators
    assert gens.annihilators == reference.annihilators


def test_braid_file_is_the_sl_braid_matrix():
    assert RMatrix.from_json(workloads.braid_sl_doc(3)) == build_rhat_sl(3)


def _verify_n2(exit_code):
    return workloads.Command(
        "verify-map.n2", ("verify-map", "--n", "2", "--output", "json"),
        {"exit_code": exit_code, "summary": {"total": 13, "exact_zero": 13, "failed": 0}})


def test_planted_wrong_verdict_counts_as_failed(tmp_path):
    result = runner.run_pass([_verify_n2(0), _verify_n2(1)], tmp_path)
    assert [label for label, _ in result.failures] == ["verify-map.n2"]
    assert len(result.failures) / len(result.outcomes) == 0.5
    assert "exit_code" in result.failures[0][1][0]


def test_planted_cache_does_not_carry_across_commands(tmp_path, monkeypatch):
    original = cli.parse_rational

    def cached(text):
        print(f"cache entries: {len(cli.planted_cache)}", file=sys.stderr)
        return cli.planted_cache.setdefault(text, original(text))

    monkeypatch.setattr(cli, "planted_cache", {}, raising=False)
    monkeypatch.setattr(cli, "parse_rational", cached)
    argv = ("eval", "q + 1", "--output", "json")
    outcomes = [runner.run_command("eval", argv, tmp_path) for _ in range(2)]
    assert [o.stderr for o in outcomes] == ["cache entries: 0\n"] * 2
    assert cli.planted_cache == {}
    cached("q + 1")     # in one process the cache does fill
    assert len(cli.planted_cache) == 1


def test_tracer_wraps_rebound_names_in_the_child_only(tmp_path):
    outcome = runner.run_command("poincare.n2", ("poincare", "--n", "2", "--output", "json"),
                                 tmp_path, tracer=layers.Tracer())
    assert outcome.error is None and outcome.layers["missing"] == []
    values = layers.pass_metrics([outcome])
    # poincare calls rank through the name deform.exact_rank
    assert values["linalg.rank.calls"] == 2
    assert values["linalg.rank.rows"] == 2 * 4 ** 2
    assert values["deform.relations.calls"] == 1
    assert values["scalar.gcd.calls"] > 0
    assert not hasattr(cli.deform.poincare_rank, "__wrapped__")


def test_benchmark_json_lists_every_metric():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [m["name"] for m in spec["end_to_end"]] == ["wall_s", "setup_s", "peak_rss_mb"]
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == \
        [tuple(m) for m in layers.PER_LAYER]
