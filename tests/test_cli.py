import hashlib
import json
import os
import random
import re
import resource
import subprocess
import sys
import time
from collections import Counter
from importlib import resources
from itertools import product
from pathlib import Path
from types import SimpleNamespace

import jsonschema
import pytest

import delsub
from delsub.cli import CHUNK, PAIR_CAP, main
from delsub.intersect import (
    CheckResult, constant_regime_bound, coverage_bound, extremal_pair, intersection_size_fast,
    min_valid_length,
)
from delsub.sequence import Sequence


def load_schema(name: str) -> dict:
    ref = resources.files("delsub") / "schemas" / f"{name}.schema.json"
    return json.loads(ref.read_text())


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def cli_process(argv, **kwargs) -> subprocess.Popen:
    """``python -m delsub.cli`` with this checkout's package, in a child."""
    src = str(Path(delsub.__file__).resolve().parent.parent)
    return subprocess.Popen([sys.executable, "-m", "delsub.cli", *argv],
                            env={"PYTHONPATH": src}, **kwargs)


class TestBallCommand:
    def test_tiny_deletion_ball(self, capsys):
        code, out, _ = run_cli(
            capsys, "ball", "--q", "2", "--x", "01", "--t", "1", "--s", "0"
        )
        assert code == 0
        assert "size 2" in out
        assert out.splitlines()[1:] == ["0", "1"]

    def test_json_validates(self, capsys):
        code, out, _ = run_cli(
            capsys, "ball", "--q", "2", "--x", "01010111", "--t", "1", "--s", "1",
            "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        jsonschema.validate(payload, load_schema("ball"))
        assert payload["size"] == len(payload["members"])

    def test_over_budget_is_structured_error(self, capsys):
        code, out, _ = run_cli(
            capsys, "ball", "--q", "2", "--x", "0101010101010101010101",
            "--t", "2", "--s", "2", "--budget", "100", "--format", "json",
        )
        assert code == 2
        assert "error" in json.loads(out)

    def test_oversized_ball_refused_before_allocating(self):
        # 1000 symbols give about 2.2M members of 999 symbols, 24 GB as
        # tuples; with its address space capped at 512 MiB the child must
        # refuse with a budget error, not run out of memory
        word = "".join(str(random.Random(5).randrange(4)) for _ in range(1000))
        cap = 512 << 20
        proc = cli_process(
            ["ball", "--q", "4", "--x", word, "--t", "1", "--s", "1"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (cap, cap)),
        )
        out, err = proc.communicate(timeout=60)
        assert proc.returncode == 2
        assert out == ""
        assert err.startswith("error: ") and "bytes at once, above the budget" in err
        assert "Traceback" not in err

    def test_csv(self, capsys):
        code, out, _ = run_cli(
            capsys, "ball", "--q", "2", "--x", "01", "--t", "1", "--s", "0",
            "--format", "csv",
        )
        assert code == 0
        assert out.splitlines() == ["member", "0", "1"]


class TestIntersectCommand:
    def test_both_mode_on_tight_q3_pair(self, capsys):
        code, out, _ = run_cli(
            capsys, "intersect", "--q", "3",
            "--x", "01201010101010101", "--y", "10201010101010101",
            "--mode", "both", "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        jsonschema.validate(payload, load_schema("intersect"))
        assert payload["size"] == 91
        assert payload["oracle_size"] == 91
        assert payload["match"] is True

    def test_both_mode_on_tight_q2_pair(self, capsys):
        x = "0101" + "01" * 12 + "0"
        y = "1001" + "01" * 12 + "0"
        code, out, _ = run_cli(
            capsys, "intersect", "--q", "2", "--x", x, "--y", y,
            "--mode", "both", "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["n"] == 29
        assert payload["size"] == 107
        assert payload["match"] is True

    def test_fast_mode_is_structural_at_distance_one(self, capsys):
        code, out, _ = run_cli(
            capsys, "intersect", "--q", "2", "--x", "01010", "--y", "01011",
            "--mode", "both", "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        jsonschema.validate(payload, load_schema("intersect"))
        assert payload["d"] == 1
        assert payload["method"] == "structural"
        assert payload["group_sizes"]
        assert payload["size"] == payload["oracle_size"]
        assert payload["match"] is True

    def test_oracle_mode(self, capsys):
        code, out, _ = run_cli(
            capsys, "intersect", "--q", "2", "--x", "01010111", "--y", "01101011",
            "--mode", "oracle", "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        jsonschema.validate(payload, load_schema("intersect"))
        assert payload["method"] == "oracle"
        assert payload["oracle_size"] is None

    def test_oracle_budget_counts_packed_bytes(self, capsys):
        # the oracle may hold 9,072,160 bytes at once here, above the budget
        # even though the ball has only 60*(1+3*59) = 10,680 elements
        x = "0123" * 15
        y = "1023" + "0123" * 14
        code, out, _ = run_cli(
            capsys, "intersect", "--q", "4", "--x", x, "--y", y,
            "--mode", "oracle", "--budget", "100000", "--format", "json",
        )
        assert code == 2
        assert "bytes" in json.loads(out)["error"]

    def test_mismatch_exits_one(self, capsys, monkeypatch):
        import delsub.cli as cli_module

        real = cli_module.intersection_size_fast

        def skewed(x, y):
            report = real(x, y)
            object.__setattr__(report, "size", report.size + 1)
            return report

        monkeypatch.setattr(cli_module, "intersection_size_fast", skewed)
        code, out, _ = run_cli(
            capsys, "intersect", "--q", "2", "--x", "01010111", "--y", "01101011",
            "--mode", "both", "--format", "json",
        )
        assert code == 1
        assert json.loads(out)["match"] is False

    @pytest.mark.parametrize("kind, q", [
        ("extremal", 2), ("extremal", 3), ("extremal", 4), ("equal", 3), ("one-off", 4),
    ])
    def test_fast_json_stdout_is_the_report(self, capsys, kind, q):
        # stdout byte for byte: the report's JSON with x and y written one
        # digit per symbol
        if kind == "extremal":
            x, y = extremal_pair(q, 400)
        else:
            x = Sequence(tuple(i * i % q for i in range(120)), q)
            ys = list(x.symbols)
            if kind == "one-off":
                ys[57] = (ys[57] + 1) % q
            y = Sequence(tuple(ys), q)
        text_x, text_y = "".join(map(str, x.symbols)), "".join(map(str, y.symbols))
        code, out, _ = run_cli(capsys, "intersect", "--q", str(q), "--x", text_x, "--y", text_y,
                               "--mode", "fast", "--format", "json")
        assert code == 0
        expected = {"command": "intersect", "mode": "fast", "x": text_x, "y": text_y,
                    **intersection_size_fast(x, y).to_dict(), "oracle_size": None, "match": None}
        assert out == json.dumps(expected, indent=2) + "\n"

    def test_length_mismatch_is_usage_error(self, capsys):
        code, _, err = run_cli(
            capsys, "intersect", "--q", "2", "--x", "0101", "--y", "010"
        )
        assert code == 2
        assert "error" in err


def exact_task(q, n, scope, limit, min_d, samples, seed, k):
    """What ``_check_task`` returns for a bounded scope, from sizing every
    pair of the same sampled stream by ``intersection_size_fast``."""
    from delsub.cli import SAMPLE_LIMIT, _sampled_pairs

    pairs = _sampled_pairs(random.Random(f"{seed}:{k}"), q, n,
                           min(CHUNK, samples - k * CHUNK), min_d, scope == "remark5")
    sized = [(xs, ys, intersection_size_fast(Sequence(xs, q), Sequence(ys, q)).size)
             for xs, ys, _ in pairs]
    top = max(size for _, _, size in sized)
    witness = next((xs, ys) for xs, ys, size in sized if size == top)
    over = [{"x": str(Sequence(xs, q)), "y": str(Sequence(ys, q)), "size": size,
             "limit": limit} for xs, ys, size in sized if size > limit]
    return len(sized), over[:SAMPLE_LIMIT], len(over), Counter(), top, witness


class TestVerifyCommand:
    def test_exhaustive_claims_clean(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--scope", "claims", "--q", "2", "--n", "5",
            "--exhaustive", "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        jsonschema.validate(payload, load_schema("verify"))
        assert payload["violations"] == 0
        assert payload["failed_checks"] == {}
        assert payload["max_size"] is None and payload["max_witness"] is None

    def test_exhaustive_lemmas_clean(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--scope", "lemmas", "--q", "2", "--n", "5",
            "--exhaustive", "--format", "json",
        )
        assert code == 0
        assert json.loads(out)["violations"] == 0

    def test_sampled_theorem_deterministic(self, capsys):
        argv = [
            "verify", "--scope", "theorem", "--q", "3", "--n", "17",
            "--samples", "100", "--seed", "7", "--format", "json",
        ]
        code1, out1, _ = run_cli(capsys, *argv)
        code2, out2, _ = run_cli(capsys, *argv)
        assert code1 == code2 == 0
        assert out1 == out2
        payload = json.loads(out1)
        jsonschema.validate(payload, load_schema("verify"))
        assert payload["max_size"] <= payload["bound"]
        assert payload["failed_checks"] == {}
        witness = payload["max_witness"]
        x, y = (Sequence.parse(witness[k], 3) for k in ("x", "y"))
        assert intersection_size_fast(x, y).size == payload["max_size"]

    def test_sampled_remark5(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--scope", "remark5", "--q", "2", "--n", "29",
            "--samples", "50", "--seed", "7", "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["max_size"] <= 40
        assert payload["bound"] == 40

    # the sampled sweeps' sha256 was recorded before they took sizes
    # without a report, so the same pairs, sizes and witnesses must come out
    @pytest.mark.parametrize("argv, digest", [
        (["--scope", "claims", "--q", "2", "--n", "4", "--exhaustive"], None),
        (["--scope", "theorem", "--q", "2", "--n", "29", "--samples", "2000", "--seed", "7"],
         "7c9a48e347945c86f22fc366897c25a3edf77059721dc7ef88ac78e80a4ff701"),
        (["--scope", "remark5", "--q", "2", "--n", "29", "--samples", "600", "--seed", "7"],
         "5a0c2cf023cc05d29e454b58bdd40392244d671a72bb5710218325079ecd3858"),
        (["--scope", "lemmas", "--q", "2", "--n", "5", "--exhaustive"], None),
    ], ids=["claims-exhaustive", "theorem-sampled", "remark5-sampled", "lemmas-exhaustive"])
    def test_jobs_do_not_change_output(self, capsys, argv, digest):
        outs = [run_cli(capsys, "verify", *argv, "--format", "json", "--jobs", jobs)[1]
                for jobs in ("1", "2", "3")]
        assert outs[0] == outs[1] == outs[2]
        assert json.loads(outs[0])["pairs_checked"] > 0
        if digest is not None:
            assert hashlib.sha256(outs[0].encode()).hexdigest() == digest

    def test_jobs_bounded_by_cores(self, capsys, monkeypatch):
        # a Pool stand-in records the worker count it is asked for and maps
        # serially, so a huge --jobs starts no process even if unbounded
        import os

        import delsub.cli as cli_module

        sizes = []

        class SerialPool:
            def __init__(self, processes):
                sizes.append(processes)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def imap(self, func, tasks):
                return map(func, tasks)

        argv = ["verify", "--scope", "theorem", "--q", "2", "--n", "29",
                "--samples", "600", "--seed", "7", "--format", "json"]
        _, serial, _ = run_cli(capsys, *argv, "--jobs", "1")
        monkeypatch.setattr(cli_module, "Pool", SerialPool)
        code, out, _ = run_cli(capsys, *argv, "--jobs", "100000")
        assert code == 0
        assert out == serial
        cores = os.cpu_count() or 1
        assert sizes == ([cores] if cores > 1 else [])

    @pytest.mark.parametrize("samples", [100, 256, 300])
    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_partial_chunks_check_every_requested_pair(self, capsys, samples, jobs):
        # fewer pairs than one chunk, exactly one chunk, and a sweep
        # that ends mid-chunk
        code, out, _ = run_cli(
            capsys, "verify", "--scope", "theorem", "--q", "2", "--n", "29",
            "--samples", str(samples), "--seed", "3", "--jobs", jobs, "--format", "json",
        )
        assert code == 0
        assert json.loads(out)["pairs_checked"] == samples

    @pytest.mark.parametrize("argv", [
        ["--scope", "theorem", "--q", "2", "--n", "29", "--samples", "6000", "--seed", "5"],
        ["--scope", "lemmas", "--q", "2", "--n", "5", "--exhaustive"],
    ])
    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_progress_lines_survive_chunking(self, capsys, argv, jobs):
        code, out, err = run_cli(
            capsys, "verify", *argv, "--jobs", jobs, "--progress", "--format", "json",
        )
        assert code == 0
        total = json.loads(out)["pairs_checked"]
        lines = err.splitlines()
        assert 1 <= len(lines) <= 20
        counts = []
        for line in lines:
            m = re.fullmatch(r"checked (\d+)/(\d+) (\d+\.\d\d)s (\d+) pairs/s", line)
            assert m, line
            assert int(m.group(2)) == total
            counts.append(int(m.group(1)))
        assert all(a < b for a, b in zip(counts, counts[1:]))
        assert counts[-1] == total

    @staticmethod
    def _count_faulty_checks(capsys, monkeypatch, scope, name, jobs):
        # a stand-in for the scope's check function that fails one check on
        # pairs whose x starts with 0 and another on pairs whose y ends with 1
        import delsub.cli as cli_module

        def faulty(x, y):
            return (CheckResult("head", x.symbols[0] == 1),
                    CheckResult("tail", y.symbols[-1] == 0))

        monkeypatch.setattr(cli_module, name, faulty)
        code, out, _ = run_cli(
            capsys, "verify", "--scope", scope, "--q", "2", "--n", "4",
            "--exhaustive", "--jobs", jobs, "--format", "json",
        )
        assert code == 1
        payload = json.loads(out)
        jsonschema.validate(payload, load_schema("verify"))
        words = list(product((0, 1), repeat=4))
        pairs = [(x, y) for x in words for y in words if sum(a != b for a, b in zip(x, y)) >= 2]
        heads = sum(x[0] == 0 for x, _ in pairs)
        tails = sum(y[-1] == 1 for _, y in pairs)
        assert payload["failed_checks"] == {"head": heads, "tail": tails}
        assert payload["violations"] == sum(x[0] == 0 or y[-1] == 1 for x, y in pairs)
        assert len(payload["violation_samples"]) == 10
        assert payload["max_size"] is None and payload["max_witness"] is None

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_failed_checks_count_every_violation(self, capsys, monkeypatch, jobs):
        self._count_faulty_checks(capsys, monkeypatch, "claims", "verify_claims", jobs)

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_failed_lemma_checks_count_every_violation(self, capsys, monkeypatch, jobs):
        self._count_faulty_checks(capsys, monkeypatch, "lemmas", "verify_lemmas", jobs)

    @pytest.mark.parametrize("scope, skipped", [
        # the group checks compare deleted-pair families: no member
        # expansion, no fact check
        ("claims", ("structural_group_sets", "_fact_checks")),
        # the fact checks read the scan: no direct construction
        ("lemmas", ("_claims_keys",)),
    ], ids=["claims", "lemmas"])
    def test_scope_runs_only_its_own_checks(self, capsys, monkeypatch, scope, skipped):
        from delsub import intersect as intersect_module

        def forbidden(*args, **kwargs):
            raise AssertionError(f"the {scope} scope ran work it does not report")

        for name in skipped:
            monkeypatch.setattr(intersect_module, name, forbidden)
        code, out, _ = run_cli(
            capsys, "verify", "--scope", scope, "--q", "2", "--n", "5",
            "--exhaustive", "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["violations"] == 0
        assert payload["pairs_checked"] > 0

    # sha256 of the JSON stdout, recorded before the claims and lemmas
    # scopes were split into separate check functions
    @pytest.mark.parametrize("argv, digest", [
        (["--scope", "claims", "--q", "2", "--n", "6"],
         "47707727afd722fb090750745168217bb15d746c4e988652e116595dbd55e034"),
        (["--scope", "lemmas", "--q", "3", "--n", "4"],
         "154468596c1b5f95c09c567065bab6f1da81e77250a490b542e696ec651890cc"),
    ], ids=["claims-q2n6", "lemmas-q3n4"])
    def test_sweep_output_is_pinned(self, capsys, argv, digest):
        code, out, _ = run_cli(capsys, "verify", *argv, "--exhaustive", "--format", "json")
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_samples_require_seed(self, capsys):
        code, _, err = run_cli(
            capsys, "verify", "--scope", "claims", "--q", "2", "--n", "5",
            "--samples", "10",
        )
        assert code == 2

    def test_theorem_below_threshold_rejected(self, capsys):
        code, _, _ = run_cli(
            capsys, "verify", "--scope", "theorem", "--q", "2", "--n", "20",
            "--samples", "10", "--seed", "1",
        )
        assert code == 2

    def test_exhaustive_cap(self, capsys):
        code, _, err = run_cli(
            capsys, "verify", "--scope", "claims", "--q", "4", "--n", "8",
            "--exhaustive",
        )
        assert code == 2
        assert err == ("error: 4294901760 ordered pairs exceed the exhaustive cap of "
                       "4000000; use --samples with --seed\n")

    def test_exhaustive_cap_needs_no_huge_integer(self, capsys):
        # 3^n (3^n - 1) at n = 10^7 has about 9.5 million digits: too long
        # to print, and seconds to compute
        started = time.perf_counter()
        code, out, err = run_cli(
            capsys, "verify", "--scope", "claims", "--q", "3", "--n", "10000000",
            "--exhaustive",
        )
        assert time.perf_counter() - started < 5
        assert code == 2
        assert out == ""
        assert err == ("error: 3^10000000 (3^10000000 - 1) ordered pairs exceed the "
                       "exhaustive cap of 4000000; use --samples with --seed\n")

    def test_no_exhaustive_sweep_reaches_the_bound_scopes(self):
        # theorem and remark5 need n >= min_valid_length(q), where every
        # exhaustive sweep is over the cap: so an exhaustive remark5 sweep
        # never needs the shift filter its sampler applies
        for q in range(2, 301):
            m = min_valid_length(q)
            assert q**m * (q**m - 1) > PAIR_CAP, q

    @pytest.mark.parametrize("q, n", [(2, 4), (2, 7), (3, 4), (4, 3)])
    def test_exhaustive_tasks_walk_the_pairs_in_order(self, capsys, monkeypatch, q, n):
        # the pairs the tasks build, in task order, are the nested-loop
        # list, and the sweep size found without enumerating is its length
        import delsub.cli as cli_module

        words = list(product(range(q), repeat=n))
        for min_d in (2, 3):
            reference = [(x, y) for x in words for y in words
                         if sum(a != b for a, b in zip(x, y)) >= min_d]
            partners = len(reference) // q**n
            tasks = [list(cli_module._exhaustive_pairs(q, n, min_d, k))
                     for k in range(-(-q**n // cli_module._words_per_task(q, n, min_d)))]
            # with no profile built for them
            assert [pair for task in tasks for pair in task] == [
                (x, y, None) for x, y in reference], min_d
            # whole words x per task, as many as fit in CHUNK pairs
            assert all(len(task) % partners == 0 for task in tasks)
            assert all(len(task) <= max(CHUNK, partners) for task in tasks)
            assert all(len(task) + partners > CHUNK for task in tasks[:-1])
        checked = []

        def recording(x, y):
            checked.append((x.symbols, y.symbols))
            return ()

        monkeypatch.setattr(cli_module, "verify_claims", recording)
        code, out, err = run_cli(
            capsys, "verify", "--scope", "claims", "--q", str(q), "--n", str(n),
            "--exhaustive", "--progress", "--format", "json",
        )
        assert code == 0
        reference = [(x, y) for x in words for y in words
                     if sum(a != b for a, b in zip(x, y)) >= 2]
        assert checked == reference
        assert json.loads(out)["pairs_checked"] == len(reference)
        assert {line.split()[1].split("/")[1] for line in err.splitlines()} == {
            str(len(reference))}

    def test_long_sampled_words_stream_one_pair_at_a_time(self, capsys, monkeypatch):
        # with a stand-in for the sweep's size stage, what a sampled task
        # allocates at once is a few words of 10,000 symbols (80 kB each as
        # tuples), not its 256 pairs (about 41 MB)
        import tracemalloc

        import delsub.cli as cli_module

        monkeypatch.setattr(cli_module, "_pair_report",
                            lambda xs, ys, q, profile, floor: SimpleNamespace(size=0))
        argv = ["verify", "--scope", "theorem", "--q", "2", "--n", "10000",
                "--seed", "1", "--jobs", "1", "--samples"]
        run_cli(capsys, *argv, "1")
        tracemalloc.start()
        try:
            code, _, _ = run_cli(capsys, *argv, "256")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
        word = 8 * 10000 + 64
        assert peak < 6 * 2 * word, peak

    @pytest.mark.parametrize("scope", ["theorem", "remark5"])
    def test_pruned_task_matches_exact_sizes(self, monkeypatch, scope):
        # a task that expands only the pairs whose bound can matter returns
        # what sizing every pair of the same stream returns, at the scope's
        # own limit and at limits low enough to force violations, whatever
        # the batch of pairs drawn ahead
        import delsub.cli as cli_module
        from delsub.cli import _check_task

        min_d, samples, seed = 3 if scope == "remark5" else 2, 600, 5
        violations = 0
        for q in (2, 3, 4, 5):
            n = min_valid_length(q)
            own = coverage_bound(n, q) if scope == "theorem" else constant_regime_bound(q)
            for limit in (own, 8, 20, 40):
                for k, batch in ((0, cli_module.BATCH_SYMBOLS), (1, 1), (2, 1 << 30)):
                    monkeypatch.setattr(cli_module, "BATCH_SYMBOLS", batch)
                    got = _check_task(q, n, scope, limit, min_d, samples, seed, k)
                    assert got == exact_task(q, n, scope, limit, min_d, samples, seed, k), \
                        (q, limit, k)
                    violations += got[2]
        assert violations > 40, violations

    @pytest.mark.parametrize("q", [257, 300])
    def test_task_past_byte_alphabets_matches_exact_sizes(self, q):
        # symbols wider than a byte pack two bytes to a field in the
        # empty-family test; a floor of -1 sizes every pair, the bound's
        # floor skips the pairs that cannot matter
        from delsub.cli import _check_task

        for n in (4, 5):
            for limit in (-1, coverage_bound(n, q)):
                checked = 0
                for k in (0, 1):
                    got = _check_task(q, n, "theorem", limit, 2, 300, 9, k)
                    assert got == exact_task(q, n, "theorem", limit, 2, 300, 9, k), (n, limit, k)
                    assert got[4] > 0, got
                    checked += got[0]
                assert checked == 300

    @staticmethod
    def _stream(monkeypatch, pairs, bounds=None):
        """Make every sampled task draw ``pairs`` and, when given, bound
        each pair by ``bounds`` (at least its size); returns the list that
        receives the pairs a task sizes, in visit order."""
        import delsub.cli as cli_module

        def drawn(rng, q, n, count, min_d, need_shift):
            return iter([(xs, ys, None) for xs, ys in pairs])

        monkeypatch.setattr(cli_module, "_sampled_pairs", drawn)
        if bounds is not None:
            monkeypatch.setattr(cli_module, "_packed_bound", lambda xs, ys, q: bounds[xs, ys])
        sized = []

        def recording(xs, ys, q, profile, floor, real=cli_module._pair_report):
            sized.append((xs, ys))
            return real(xs, ys, q, profile, floor)

        monkeypatch.setattr(cli_module, "_pair_report", recording)
        return sized

    def test_tie_ahead_of_the_witness_takes_it(self, monkeypatch):
        # the extremal pair and its mirror (y, x) both reach the maximum;
        # the mirror, drawn later with a larger bound, is sized first, and
        # the earlier pair, whose bound is the maximum itself, must still be
        # sized to take the witness, while a later pair with that bound is not
        from delsub.cli import _check_task

        q, n = 2, 29
        limit = coverage_bound(n, q)
        low = ((0,) * n, (1,) + (0,) * (n - 2) + (1,))
        first = tuple(w.symbols for w in extremal_pair(q, n))
        mirror = first[::-1]
        late = tuple(w[::-1] for w in first)
        pairs = [low, first, mirror, late]
        sized = self._stream(monkeypatch, pairs, {low: 300, first: limit, mirror: 170, late: limit})
        got = _check_task(q, n, "theorem", limit, 2, len(pairs), 1, 0)
        assert sized == [low, mirror, first]
        assert got == exact_task(q, n, "theorem", limit, 2, len(pairs), 1, 0)
        assert got[4:] == (limit, first)

    def test_violations_reported_in_stream_order(self, monkeypatch):
        # a stream drawn in ascending bound is visited backwards; at a low
        # limit every batch size reports the first violations of the
        # stream, as sizing each pair in order does
        import delsub.cli as cli_module
        from delsub.cli import SAMPLE_LIMIT, _check_task, _sampled_pairs
        from delsub.intersect import _packed_bound

        q, n = 3, min_valid_length(3)
        drawn = [(xs, ys) for xs, ys, _ in _sampled_pairs(random.Random(3), q, n, 120, 2, False)]
        pairs = sorted(drawn, key=lambda p: _packed_bound(*p, q))
        sized = self._stream(monkeypatch, pairs)
        expected = exact_task(q, n, "theorem", 8, 2, len(pairs), 1, 0)
        assert expected[2] > SAMPLE_LIMIT, expected
        results = []
        for batch in (1, cli_module.BATCH_SYMBOLS, 1 << 30):
            monkeypatch.setattr(cli_module, "BATCH_SYMBOLS", batch)
            sized.clear()
            results.append(_check_task(q, n, "theorem", 8, 2, len(pairs), 1, 0))
        assert results == [expected] * 3
        # the whole stream is one batch at 2^30 symbols, visited by bound
        visited = [_packed_bound(*p, q) for p in sized]
        assert visited == sorted(visited, reverse=True)
        assert sized != sorted(sized, key=pairs.index)

    @pytest.mark.parametrize("argv", [
        ["--scope", "theorem", "--q", "2", "--n", "29", "--samples", "0", "--seed", "1"],
        ["--scope", "theorem", "--q", "2", "--n", "29", "--samples", "-3", "--seed", "1",
         "--jobs", "0"],
        ["--scope", "claims", "--q", "2", "--n", "4", "--exhaustive", "--jobs", "0"],
        ["--scope", "lemmas", "--q", "2", "--n", "1", "--exhaustive"],
        ["--scope", "claims", "--q", "2", "--n", "1", "--samples", "5", "--seed", "1"],
        # over the exhaustive cap at the smallest n these scopes accept
        ["--scope", "remark5", "--q", "2", "--n", "29", "--exhaustive"],
        ["--scope", "theorem", "--q", "3", "--n", "17", "--exhaustive"],
        # an exhaustive sweep draws nothing, so a seed would have no effect
        ["--scope", "claims", "--q", "2", "--n", "4", "--exhaustive", "--seed", "5"],
    ])
    def test_empty_sweep_rejected_before_any_pair(self, capsys, monkeypatch, argv):
        # a sweep that would check no pair must not report "verified"
        import delsub.cli as cli_module

        def forbidden(*args, **kwargs):
            raise AssertionError("pairs built or workers started")

        for name in ("_exhaustive_pairs", "_sampled_pairs", "Pool"):
            monkeypatch.setattr(cli_module, name, forbidden)
        code, out, err = run_cli(capsys, "verify", *argv)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ")

    def test_csv_row(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--scope", "claims", "--q", "2", "--n", "4",
            "--exhaustive", "--format", "csv",
        )
        assert code == 0
        header, row = out.splitlines()
        assert header.startswith("scope,q,n,mode")
        assert row.startswith("claims,2,4,exhaustive")


class TestSimulateCommand:
    def test_parity_simulation_validates_and_repeats(self, capsys):
        argv = [
            "simulate", "--q", "2", "--parity", "--n", "10",
            "--reads", "1,25", "--trials", "10", "--seed", "3",
            "--sub-prob", "0.6", "--format", "json",
        ]
        code1, out1, _ = run_cli(capsys, *argv)
        code2, out2, _ = run_cli(capsys, *argv)
        assert code1 == code2 == 0
        assert out1 == out2
        payload = json.loads(out1)
        jsonschema.validate(payload, load_schema("simulate"))
        assert [row["reads_requested"] for row in payload["rows"]] == [1, 25]
        # 25 distinct reads exceed any pairwise intersection at n=10
        assert payload["rows"][1]["rate"] == 1.0
        assert [row["shortfall_trials"] for row in payload["rows"]] == [0, 0]
        for row in payload["rows"]:
            counts = [row[k] for k in ("unique_correct", "unique_wrong", "ambiguous", "infeasible")]
            assert sum(counts) == row["trials"]
            assert row["unique_correct"] == row["successes"]
            # the sent codeword explains its own reads, so it is always a candidate
            assert row["unique_wrong"] == row["infeasible"] == 0
            assert row["mean_distinct_reads"] == row["reads_requested"]
        assert payload["rows"][0]["ambiguous"] > 0

    def test_explicit_codebook_from_file(self, capsys, tmp_path):
        path = tmp_path / "book.txt"
        path.write_text("010101\n101010\n110011\n")
        code, out, _ = run_cli(
            capsys, "simulate", "--q", "2", "--codebook", str(path),
            "--reads", "8", "--trials", "5", "--seed", "11", "--format", "csv",
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "reads_requested,trials,successes,rate"
        assert lines[1].startswith("8,5,")

    def test_codebook_below_distance_two_rejected(self, capsys, tmp_path):
        path = tmp_path / "book.txt"
        path.write_text("000000\n000001\n111111\n")
        code, out, err = run_cli(
            capsys, "simulate", "--q", "2", "--codebook", str(path),
            "--reads", "8", "--trials", "50", "--seed", "3",
        )
        assert code == 2
        assert out == ""
        assert "closer than 2" in err

    def test_reads_beyond_ball_size_rejected(self, capsys):
        # a (1,1)-ball at q=2, n=6 holds at most 6 * 6 = 36 reads
        code, out, err = run_cli(
            capsys, "simulate", "--q", "2", "--parity", "--n", "6",
            "--reads", "200", "--trials", "5", "--seed", "1",
        )
        assert code == 2
        assert out == ""
        assert "at most 36" in err

    @pytest.mark.parametrize("flag", ["--trials", "--max-draws"])
    def test_non_positive_trials_or_draws_rejected(self, capsys, flag):
        argv = ["simulate", "--q", "2", "--parity", "--n", "6", "--reads", "1",
                "--trials", "2", "--seed", "1"]
        code, out, err = run_cli(capsys, *argv, flag, "0")
        assert code == 2
        assert out == ""
        assert "must be positive" in err

    def test_max_draws_shortfall_counted(self, capsys):
        code, out, err = run_cli(
            capsys, "simulate", "--q", "2", "--parity", "--n", "10",
            "--reads", "1,8", "--trials", "6", "--seed", "4",
            "--max-draws", "5", "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        jsonschema.validate(payload, load_schema("simulate"))
        assert [row["shortfall_trials"] for row in payload["rows"]] == [0, 6]
        assert payload["rows"][0]["mean_distinct_reads"] == 1.0
        assert payload["rows"][1]["mean_distinct_reads"] <= 5
        assert "6/6 trials at reads=8" in err

    @pytest.mark.parametrize("n", [300, 1000])
    def test_oversized_one_read_decode_refused_before_allocating(self, n):
        # one read's parity pool at q=4 holds about 0.27M words of 300
        # symbols or 3M of 1000; with its address space capped at 512 MiB
        # the child must refuse with a budget error, not run out of memory
        cap = 512 << 20
        proc = cli_process(
            ["simulate", "--q", "4", "--parity", "--n", str(n), "--reads", "1",
             "--trials", "1", "--seed", "1"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (cap, cap)),
        )
        out, err = proc.communicate(timeout=60)
        assert proc.returncode == 2
        assert out == ""
        assert err.startswith(f"error: the one-read decode at n={n}, q=4 may hold ")
        assert "bytes at once, above the budget of 10000000" in err
        assert "Traceback" not in err

    def test_alphabet_past_64_bit_fields_refused_before_allocating(self):
        # q = 2^65 has no packed field: the decode must refuse it, naming
        # the limit, before building a pool or a set of the alphabet, with
        # the child's address space capped at 512 MiB
        cap = 512 << 20
        proc = cli_process(
            ["simulate", "--q", str(1 << 65), "--n", "6", "--parity", "--reads", "3",
             "--trials", "1", "--seed", "1"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (cap, cap)),
        )
        out, err = proc.communicate(timeout=60)
        assert proc.returncode == 2
        assert out == ""
        assert err == ("error: packed words hold at most 2^64 symbols per field, "
                       f"not q = {1 << 65}\n")

    def test_huge_alphabet_two_read_pool_refused_before_allocating(self):
        # q = 2^40 fits a packed field, but the two-read pool loops over the
        # alphabet: the budget must refuse it before that loop allocates,
        # with the child's address space capped at 512 MiB
        cap = 512 << 20
        proc = cli_process(
            ["simulate", "--q", str(1 << 40), "--n", "6", "--parity", "--reads", "3",
             "--trials", "3", "--seed", "1"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (cap, cap)),
        )
        out, err = proc.communicate(timeout=60)
        assert proc.returncode == 2, err
        assert out == ""
        assert err.startswith("error: the two-read pool at n=6"), err

    def test_budget_option_bounds_one_read_decode(self, capsys):
        argv = ["simulate", "--q", "2", "--parity", "--n", "10", "--reads", "1",
                "--trials", "2", "--seed", "1"]
        code, out, err = run_cli(capsys, *argv, "--budget", "1000")
        assert code == 2
        assert out == ""
        assert "above the budget of 1000" in err
        assert run_cli(capsys, *argv)[0] == 0

    def test_codebook_takes_no_n(self, capsys, monkeypatch):
        # the file sets the length, so --n would be ignored: refused before
        # the file is read
        import delsub.cli as cli_module

        def forbidden(*args, **kwargs):
            raise AssertionError("codebook loaded")

        monkeypatch.setattr(cli_module.Codebook, "load", forbidden)
        code, out, err = run_cli(
            capsys, "simulate", "--q", "2", "--codebook", "book.txt", "--n", "9",
            "--reads", "1", "--trials", "2", "--seed", "1",
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and "--n" in err

    def test_parity_requires_n(self, capsys):
        code, _, _ = run_cli(
            capsys, "simulate", "--q", "2", "--parity",
            "--reads", "5", "--trials", "2", "--seed", "1",
        )
        assert code == 2

    def test_seed_is_mandatory(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--q", "2", "--parity", "--n", "8",
                  "--reads", "5", "--trials", "2"])
        assert exc.value.code == 2


class TestClosedStdout:
    @pytest.mark.parametrize("fmt", ["plain", "json", "csv"])
    @pytest.mark.parametrize("x,t", [("0123" * 15, 1), ("0123", 0)],
                             ids=["while-printing", "final-flush"])
    def test_closed_pipe_exits_141_quietly(self, fmt, x, t):
        # the reader is gone before the first write: the 640 kB ball fails
        # while printing, the small one only at the final flush
        read_end, write_end = os.pipe()
        os.close(read_end)
        proc = cli_process(["ball", "--q", "4", "--x", x, "--t", str(t), "--s", "1",
                            "--format", fmt], stdout=write_end, stderr=subprocess.PIPE)
        os.close(write_end)
        _, err = proc.communicate(timeout=60)
        assert proc.returncode == 141
        assert err == b""
