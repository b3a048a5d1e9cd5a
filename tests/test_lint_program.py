"""Tests for the whole-program analysis engine (repro.lint.program).

Covers the project model (module naming, import tagging, call-graph
resolution), each L1–L4 pass against its seeded-violation corpus case
under ``tests/lint_corpus/`` (every pass must fire — an inert pass
fails here, not silently in CI), the clean-tree acceptance criterion,
the SARIF 2.1.0 exporter round-trip and validator, the parse cache,
and the new CLI surface (``--program``, ``--sarif``, stale-baseline
loudness).
"""

from __future__ import annotations

import json
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from repro.lint import (
    Baseline,
    Diagnostic,
    ParseCache,
    build_project,
    cache_fingerprint,
    from_sarif,
    run_program_passes,
    to_sarif,
    validate,
)
from repro.lint.passes import PASS_REGISTRY
from repro.lint.program import module_name_for

REPO_ROOT = Path(__file__).resolve().parent.parent
CORPUS = REPO_ROOT / "tests" / "lint_corpus"
SRC = REPO_ROOT / "src"


def corpus_diags(case: str, passes: list[str] | None = None) -> list[Diagnostic]:
    return run_program_passes([CORPUS / case / "src"], passes=passes)


def _run_cli(args: list[str], cwd: Path) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "repro.lint", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        env={"PYTHONPATH": str(SRC), "PATH": "/usr/bin:/bin"},
    )


def _write_tree(root: Path, files: dict[str, str]) -> None:
    for rel, body in files.items():
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(body), encoding="utf-8")


# ----------------------------------------------------------------------
# Project model


class TestProjectModel:
    def test_module_naming(self, tmp_path):
        root = tmp_path / "src"
        _write_tree(
            root,
            {
                "repro/__init__.py": "",
                "repro/core/deep.py": "x = 1\n",
                "repro/core/__init__.py": "",
            },
        )
        assert module_name_for(root / "repro/core/deep.py", root) == "repro.core.deep"
        assert module_name_for(root / "repro/__init__.py", root) == "repro"
        assert module_name_for(root / "repro/core/__init__.py", root) == "repro.core"

    def test_import_edges_tag_lazy_and_type_checking(self, tmp_path):
        root = tmp_path / "src"
        _write_tree(
            root,
            {
                "repro/core/a.py": """
                    from typing import TYPE_CHECKING

                    from repro.core import b

                    if TYPE_CHECKING:
                        from repro.core import c


                    def use():
                        from repro.core import d
                        return b, d
                """,
                "repro/core/b.py": "x = 1\n",
                "repro/core/c.py": "x = 1\n",
                "repro/core/d.py": "x = 1\n",
            },
        )
        model, problems = build_project([root])
        assert problems == []
        edges = {
            e.target: (e.eager, e.type_checking)
            for e in model.modules["repro.core.a"].imports
            if e.target.startswith("repro.")
        }
        assert edges["repro.core.b"] == (True, False)
        assert edges["repro.core.c"] == (True, True)
        assert edges["repro.core.d"] == (False, False)

    def test_call_graph_resolves_aliases_and_methods(self, tmp_path):
        root = tmp_path / "src"
        _write_tree(
            root,
            {
                "repro/core/util.py": """
                    def helper():
                        return 1
                """,
                "repro/core/use.py": """
                    from repro.core import util
                    from repro.core.util import helper


                    class Driver:
                        def run(self):
                            return self.step() + util.helper()

                        def step(self):
                            return helper()
                """,
            },
        )
        model, _ = build_project([root])
        run = model.function_index["repro.core.use:Driver.run"]
        assert "repro.core.use:Driver.step" in run.callees
        assert "repro.core.util:helper" in run.callees
        step = model.function_index["repro.core.use:Driver.step"]
        assert "repro.core.util:helper" in step.callees

    def test_real_tree_worker_entry_points(self):
        model, _ = build_project([SRC])
        entries = model.worker_entry_points()
        assert "repro.parallel.worker:init_worker" in entries
        assert "repro.parallel.worker:evaluate_chunk" in entries

    def test_real_tree_reaches_obs_transitively(self):
        model, _ = build_project([SRC])
        # gac() never calls obs directly but reaches it through callees.
        assert model.reaches_obs("repro.anchors.gac:gac")

    def test_real_tree_worker_obs_reach(self):
        model, _ = build_project([SRC])
        # evaluate_chunk ships spans; init_worker deliberately does not
        # (it carries an obs-ok waiver instead).
        assert model.reaches_worker_obs("repro.parallel.worker:evaluate_chunk")
        assert not model.reaches_worker_obs("repro.parallel.worker:init_worker")
        # Ordinary obs reach is a weaker property than worker-obs reach.
        assert model.reaches_obs("repro.parallel.worker:evaluate_chunk")


# ----------------------------------------------------------------------
# The four passes against the seeded corpus (acceptance criterion:
# every pass produces at least one diagnostic on its case).


class TestSeededCorpus:
    @pytest.mark.parametrize(
        "case,pass_id",
        [
            ("layering", "L1"),
            ("worker_race", "L2"),
            ("obs_coverage", "L3"),
            ("checkpoint_contract", "L4"),
        ],
    )
    def test_every_pass_fires(self, case, pass_id):
        diags = corpus_diags(case, passes=[pass_id])
        assert diags, f"pass {pass_id} is inert on corpus case {case!r}"
        assert all(d.rule == pass_id for d in diags)

    def test_layering_reports_upward_import_and_cycle(self):
        messages = [d.message for d in corpus_diags("layering", passes=["L1"])]
        assert any("upward import" in m and "repro.cli" in m for m in messages)
        assert any("eager import cycle" in m and "repro.core.alpha" in m
                   for m in messages)

    def test_layering_negative_control_same_layer_import(self):
        diags = corpus_diags("layering", passes=["L1"])
        assert not any("repro.errors" in d.message for d in diags)

    def test_worker_race_flags_every_seeded_flavour(self):
        messages = " | ".join(
            d.message for d in corpus_diags("worker_race", passes=["L2"])
        )
        assert "calls .clear() on module-global object '_cache'" in messages
        assert "setattr() on 'sys'" in messages
        assert "item assignment" in messages
        assert "random.random()" in messages
        assert "mutates captured variable 'gathered'" in messages
        assert "attached shared-memory buffer 'view'" in messages

    def test_worker_race_negative_control_pure_helper(self):
        diags = corpus_diags("worker_race", passes=["L2"])
        assert not any("_pure_helper" in d.message or "window" in d.message
                       for d in diags)

    def test_obs_coverage_flags_only_the_naked_function(self):
        diags = corpus_diags("obs_coverage", passes=["L3"])
        messages = [d.message for d in diags]
        assert len(diags) == 2
        assert any("naked_choice" in m for m in messages)
        # instrumented / counted / waived / private: all quiet.

    def test_obs_coverage_worker_entries_need_shipping(self):
        diags = corpus_diags("obs_coverage", passes=["L3"])
        worker = [d for d in diags if "worker entry point" in d.message]
        assert len(worker) == 1
        # plain obs access is NOT coverage for a pool-submitted function…
        assert "plain_obs_chunk" in worker[0].message
        assert "repro.obs.shipping" in worker[0].message
        # …while the shipped and waived entries stay quiet, and dispatch
        # (parent-side, ordinary span coverage) is not a worker entry.
        silent = " | ".join(d.message for d in diags)
        assert "shipped_chunk" not in silent
        assert "waived_chunk" not in silent
        assert "dispatch" not in silent

    def test_checkpoint_contract_both_directions(self):
        diags = corpus_diags("checkpoint_contract", passes=["L4"])
        by_field = {d.code: d.message for d in diags}
        assert "orphaned" in by_field and "never consumed" in by_field["orphaned"]
        assert "phantom" in by_field and "never written" in by_field["phantom"]
        assert "anchors" not in by_field and "gains" not in by_field


# ----------------------------------------------------------------------
# Clean-tree acceptance criterion


class TestCleanTree:
    def test_program_passes_clean_on_real_tree(self):
        assert run_program_passes([SRC]) == []

    def test_cli_program_flag_clean(self, tmp_path):
        result = _run_cli(["--program", "--program-root", str(SRC), str(SRC)],
                          cwd=REPO_ROOT)
        assert result.returncode == 0, result.stdout + result.stderr


# ----------------------------------------------------------------------
# Waiver interaction with the passes


class TestPassWaivers:
    def test_layer_waiver_silences_upward_import(self, tmp_path):
        root = tmp_path / "src"
        _write_tree(
            root,
            {
                "repro/graphs/g.py": """
                    from repro.cli import entry  # lint: layer-ok corpus test

                    def use():
                        return entry
                """,
                "repro/cli.py": "def entry():\n    return 1\n",
            },
        )
        assert run_program_passes([root], passes=["L1"]) == []

    def test_decorator_line_waiver_covers_function(self, tmp_path):
        root = tmp_path / "src"
        _write_tree(
            root,
            {
                "repro/anchors/h.py": """
                    import functools


                    @functools.lru_cache(None)  # lint: obs-ok cached pure helper
                    def pick(n: int) -> int:
                        return n + 1
                """,
            },
        )
        assert run_program_passes([root], passes=["L3"]) == []

    def test_unwaived_equivalent_still_fires(self, tmp_path):
        root = tmp_path / "src"
        _write_tree(
            root,
            {
                "repro/anchors/h.py": """
                    import functools


                    @functools.lru_cache(maxsize=None)
                    def pick(n: int) -> int:
                        return n + 1
                """,
            },
        )
        diags = run_program_passes([root], passes=["L3"])
        assert len(diags) == 1 and "pick" in diags[0].message


# ----------------------------------------------------------------------
# SARIF


class TestSarif:
    def _diags(self) -> list[Diagnostic]:
        diags: list[Diagnostic] = []
        for case, pass_id in [
            ("layering", "L1"), ("worker_race", "L2"),
            ("obs_coverage", "L3"), ("checkpoint_contract", "L4"),
        ]:
            diags.extend(corpus_diags(case, passes=[pass_id]))
        return sorted(diags)

    def test_round_trip_matches_json_exporter_set(self):
        diags = self._diags()
        assert from_sarif(to_sarif(diags)) == diags

    def test_document_validates(self):
        assert validate(to_sarif(self._diags())) == []

    def test_document_survives_json_serialization(self):
        document = json.loads(json.dumps(to_sarif(self._diags())))
        assert validate(document) == []
        assert from_sarif(document) == self._diags()

    def test_rules_cover_all_registered_passes(self):
        document = to_sarif([])
        rules = document["runs"][0]["tool"]["driver"]["rules"]
        ids = {r["id"] for r in rules}
        assert set(PASS_REGISTRY) <= ids
        assert "R1" in ids  # file rules are declared too

    @pytest.mark.parametrize(
        "mutate,expect",
        [
            (lambda d: d.update(version="2.0.0"), "version"),
            (lambda d: d.update(runs=[]), "runs"),
            (lambda d: d["runs"][0]["results"][0].pop("ruleId"), "ruleId"),
            (lambda d: d["runs"][0]["results"][0]["message"].pop("text"),
             "message.text"),
            (lambda d: d["runs"][0]["results"][0].update(locations=[]),
             "locations"),
            (lambda d: d["runs"][0]["results"][0]["locations"][0][
                "physicalLocation"]["region"].update(startLine=0), "startLine"),
            (lambda d: d["runs"][0]["results"][0].update(ruleId="ZZ9"),
             "not declared"),
        ],
    )
    def test_validator_rejects_broken_documents(self, mutate, expect):
        document = to_sarif(self._diags())
        mutate(document)
        problems = validate(document)
        assert problems and any(expect in p for p in problems)

    def test_cli_sarif_output_validates(self, tmp_path):
        out = tmp_path / "lint.sarif"
        result = _run_cli(
            ["--program", "--sarif", str(out)], cwd=REPO_ROOT
        )
        assert result.returncode == 0, result.stdout + result.stderr
        document = json.loads(out.read_text(encoding="utf-8"))
        assert validate(document) == []
        check = _run_cli(["--validate-sarif", str(out)], cwd=REPO_ROOT)
        assert check.returncode == 0
        assert "valid SARIF 2.1.0" in check.stdout

    def test_cli_validate_sarif_rejects_garbage(self, tmp_path):
        bad = tmp_path / "bad.sarif"
        bad.write_text('{"version": "1.0"}', encoding="utf-8")
        result = _run_cli(["--validate-sarif", str(bad)], cwd=REPO_ROOT)
        assert result.returncode == 1
        assert "problem" in result.stdout


# ----------------------------------------------------------------------
# Parse cache


class TestParseCache:
    def test_second_run_hits(self, tmp_path):
        target = tmp_path / "mod.py"
        target.write_text("x = 1\n", encoding="utf-8")
        cache_file = tmp_path / "cache.pkl"
        cache = ParseCache(cache_file, cache_fingerprint())
        from repro.lint import lint_paths

        lint_paths([target], cache=cache)
        assert (cache.hits, cache.misses) == (0, 1)
        cache.save()

        warm = ParseCache(cache_file, cache_fingerprint())
        lint_paths([target], cache=warm)
        assert (warm.hits, warm.misses) == (1, 0)

    def test_modified_file_misses(self, tmp_path):
        target = tmp_path / "mod.py"
        target.write_text("x = 1\n", encoding="utf-8")
        cache_file = tmp_path / "cache.pkl"
        cache = ParseCache(cache_file, cache_fingerprint())
        from repro.lint import lint_paths

        lint_paths([target], cache=cache)
        cache.save()
        target.write_text("x = 2  # changed\n", encoding="utf-8")
        warm = ParseCache(cache_file, cache_fingerprint())
        lint_paths([target], cache=warm)
        assert warm.hits == 0 and warm.misses == 1

    def test_fingerprint_change_discards_entries(self, tmp_path):
        target = tmp_path / "mod.py"
        target.write_text("x = 1\n", encoding="utf-8")
        cache_file = tmp_path / "cache.pkl"
        cache = ParseCache(cache_file, "config-a")
        from repro.lint import lint_paths

        lint_paths([target], cache=cache)
        cache.save()
        other = ParseCache(cache_file, "config-b")
        assert len(other) == 0

    def test_corrupt_cache_file_is_ignored(self, tmp_path):
        cache_file = tmp_path / "cache.pkl"
        cache_file.write_bytes(b"not a pickle")
        cache = ParseCache(cache_file, "x")
        assert len(cache) == 0

    def test_cli_reports_cache_stats(self, tmp_path):
        (tmp_path / "mod.py").write_text("x = 1\n", encoding="utf-8")
        first = _run_cli(["--cache", "--no-baseline", "mod.py"], cwd=tmp_path)
        assert "[cache: 1 parsed, 0 from cache]" in first.stdout
        second = _run_cli(["--cache", "--no-baseline", "mod.py"], cwd=tmp_path)
        assert "[cache: 0 parsed, 1 from cache]" in second.stdout

    def test_cached_and_uncached_runs_agree_on_program_passes(self, tmp_path):
        cache = ParseCache(tmp_path / "cache.pkl", cache_fingerprint())
        cold = run_program_passes(
            [CORPUS / "worker_race" / "src"], cache=cache, passes=["L2"]
        )
        warm = run_program_passes(
            [CORPUS / "worker_race" / "src"], cache=cache, passes=["L2"]
        )
        assert cold == warm
        assert cold == corpus_diags("worker_race", passes=["L2"])


# ----------------------------------------------------------------------
# Stale baseline must fail loudly (CLI-level)


class TestStaleBaseline:
    def test_stale_entry_fails_and_names_the_entry(self, tmp_path):
        (tmp_path / "mod.py").write_text("x = 1\n", encoding="utf-8")
        stale = Baseline.from_diagnostics(
            [Diagnostic(path="mod.py", line=1, col=0, rule="R4",
                        code="assert x == 1.0", message="gone")]
        )
        stale.save(tmp_path / ".lint-baseline.json")
        result = _run_cli(["mod.py"], cwd=tmp_path)
        assert result.returncode == 1
        assert "stale baseline entry" in result.stderr
        assert "mod.py" in result.stderr

    def test_stale_entry_for_unlinted_path_is_not_reported(self, tmp_path):
        (tmp_path / "mod.py").write_text("x = 1\n", encoding="utf-8")
        stale = Baseline.from_diagnostics(
            [Diagnostic(path="elsewhere/other.py", line=1, col=0, rule="R4",
                        code="assert y == 2.0", message="gone")]
        )
        stale.save(tmp_path / ".lint-baseline.json")
        result = _run_cli(["mod.py"], cwd=tmp_path)
        assert result.returncode == 0, result.stdout + result.stderr
