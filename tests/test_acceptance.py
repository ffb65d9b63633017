"""End-to-end acceptance suite.

Ten constructed experiments, one test each, every test printing a single
pass/fail line. Tolerances and runtime bounds are asserted as stated in
each criterion.
"""

import itertools
import statistics
import time
from dataclasses import replace

import numpy as np

from ffmerge.alignment import (Permutation, apply_permutation, centered,
                               cross_correlation, solve_assignment)
from ffmerge.analysis import cka_matrix, linear_cka
from ffmerge.checkpoint import (ParameterStore, parse_container,
                                serialize_container, tie_report)
from ffmerge.config import ff_param_basenames, ff_tensor_names
from ffmerge.engine import (EvalMetric, FFParams, capture_activations,
                            evaluate, ff_forward, ff_params)
from ffmerge.fixtures import (_random_ff, default_config, duplicate_model,
                              greedy_sequences, permuted_copy_model,
                              token_sequences, zeroed_layer_model)
from ffmerge.merging import MergeSpec, merge_ff, merge_window
from ffmerge.selection import (enumerate_windows, select_best_drop,
                               select_best_window)


NOISE_SCALE = 0.01  # noisy_permuted_pair's noise, as a share of each tensor's scale


def report(number: int, label: str, ok: bool) -> None:
    verdict = "PASS" if ok else "FAIL"
    print(f"criterion {number:2d} {label:<42s} {verdict}")


def random_ff_params(rng, d_model, d_ff, kind, biases):
    if kind == "swiglu":
        return FFParams(
            w_up=rng.normal(size=(d_ff, d_model)).astype(np.float32),
            v_gate=rng.normal(size=(d_ff, d_model)).astype(np.float32),
            w_down=rng.normal(size=(d_model, d_ff)).astype(np.float32))
    params = FFParams(
        w_in=rng.normal(size=(d_ff, d_model)).astype(np.float32),
        b_in=rng.normal(size=d_ff).astype(np.float32),
        w_out=rng.normal(size=(d_model, d_ff)).astype(np.float32),
        b_out=rng.normal(size=d_model).astype(np.float32))
    if not biases:
        del params["b_in"], params["b_out"]
    return params


def noisy_permuted_pair(cfg, seed: int):
    """A feed-forward plus a hidden-permuted copy with gaussian noise added
    at ``NOISE_SCALE`` of each tensor's own scale.

    Returns (base, noisy copy, planted permutation).
    """
    rng = np.random.default_rng(seed)
    base = _random_ff(cfg, rng)
    perm = Permutation(rng.permutation(cfg.d_ff).astype(np.int64))

    def jitter(arr: np.ndarray) -> np.ndarray:
        scale = float(arr.std())
        noise = rng.normal(0.0, NOISE_SCALE * scale, arr.shape)
        return (arr.astype(np.float64) + noise).astype(np.float32)

    # jitter every drawn tensor so the noise does not depend on has_ff_biases
    noisy = {b: jitter(arr) for b, arr in apply_permutation(base, perm).items()}
    kept = ff_param_basenames(cfg)
    return (FFParams({b: base[b] for b in kept}),
            FFParams({b: noisy[b] for b in kept}), perm)


class TestAcceptance:
    def test_criterion_01_permutation_symmetry(self):
        started = time.perf_counter()
        rng = np.random.default_rng(201)
        kinds = itertools.cycle((("relu", True), ("gelu", True),
                                 ("swiglu", False), ("relu", False),
                                 ("gelu", False)))
        worst = 0.0
        for _ in range(100):
            kind, biases = next(kinds)
            params = random_ff_params(rng, 16, 64, kind, biases)
            perm = Permutation(rng.permutation(64).astype(np.int64))
            x = rng.normal(size=(8, 16)).astype(np.float32)
            moved = apply_permutation(params, perm)
            _, y0 = ff_forward(params, x, kind)
            _, y1 = ff_forward(moved, x, kind)
            worst = max(worst, float(np.abs(y1 - y0).max()))
        elapsed = time.perf_counter() - started
        ok = worst <= 1e-5 and elapsed < 10.0
        report(1, "permutation symmetry of FF sublayers", ok)
        assert worst <= 1e-5
        assert elapsed < 10.0

    def test_criterion_02_assignment_matches_brute_force(self):
        started = time.perf_counter()
        rng = np.random.default_rng(202)
        sizes = itertools.cycle((2, 3, 4, 5, 6, 7))
        worst = 0.0
        for _ in range(200):
            d = next(sizes)
            values = rng.uniform(-1.0, 1.0, size=(d, d))
            perm = solve_assignment(values)
            solver_total = float(values[np.arange(d), perm.mapping].sum())
            brute_total = max(
                sum(values[j, cand[j]] for j in range(d))
                for cand in itertools.permutations(range(d)))
            worst = max(worst, abs(solver_total - brute_total))
        elapsed = time.perf_counter() - started
        ok = worst <= 1e-9 and elapsed < 30.0
        report(2, "assignment solver equals brute force", ok)
        assert worst <= 1e-9
        assert elapsed < 30.0

    def test_criterion_03_alignment_recovery(self):
        rng = np.random.default_rng(203)
        failures = 0
        for d in (8, 32, 64):
            for _ in range(20):
                acts = rng.normal(size=(500, d))
                sigma = rng.permutation(d)
                recovered = solve_assignment(
                    cross_correlation(centered(acts), centered(acts[:, sigma])))
                restored = acts[:, sigma][:, recovered.mapping]
                if not (np.array_equal(recovered.mapping, np.argsort(sigma))
                        and np.array_equal(restored, acts)):
                    failures += 1
        ok = failures == 0
        report(3, "planted permutation recovery", ok)
        assert failures == 0

    def test_criterion_04_lossless_merge_end_to_end(self):
        started = time.perf_counter()
        results = []
        for biases in (True, False):
            cfg = replace(default_config(n_layers=6, d_model=16, d_ff=64,
                                         ff_kind="relu"), has_ff_biases=biases)
            fixture = permuted_copy_model(cfg, seed=7)
            capture_data = token_sequences(cfg, 24, 16, seed=3)
            acts = capture_activations(fixture.model, capture_data,
                                       "ff_pre_act", max_samples=200)
            eval_data = greedy_sequences(fixture.model, 8, 24, seed=11)
            metric = EvalMetric("cross_entropy")
            selection, merged = select_best_window(fixture.model, acts, 3,
                                                   eval_data, metric)
            base_score = evaluate(fixture.model, eval_data, metric)
            ff_size = 64 * 16 + 16 * 64 + (64 + 16 if biases else 0)
            saved = (tie_report(fixture.model.store).unique_parameters
                     - tie_report(merged.store).unique_parameters)
            # the group is a functional no-op, so the score alone cannot
            # tell a right alignment from a wrong one: a correct alignment
            # averages three exact copies back into layer 2's own weights
            anchor = ff_params(fixture.model, 2)
            exact = all(ff_params(merged, 2)[base].tobytes() == arr.tobytes()
                        for base, arr in anchor.items())
            names = ff_tensor_names(cfg, 2)
            tied = all(merged.store.alias_target(member) == owner
                       for i in (3, 4)
                       for member, owner in zip(ff_tensor_names(cfg, i), names))
            _, vanilla = select_best_window(fixture.model, acts, 3, eval_data,
                                            metric, use_permutation=False)
            vanilla_exact = all(
                ff_params(vanilla, 2)[base].tobytes() == arr.tobytes()
                for base, arr in anchor.items())
            results.append((selection.best.start,
                            abs(selection.best.score - base_score),
                            saved, 2 * ff_size, exact, tied, vanilla_exact))
        elapsed = time.perf_counter() - started
        ok = (all(start == 2 and delta <= 1e-4 and saved == expected
                  and exact and tied and not vanilla_exact
                  for start, delta, saved, expected, exact, tied, vanilla_exact
                  in results)
              and elapsed < 60.0)
        report(4, "lossless merge found by selection", ok)
        for start, delta, saved, expected, exact, tied, vanilla_exact in results:
            assert start == 2
            assert delta <= 1e-4
            assert saved == expected
            assert exact and tied
            assert not vanilla_exact
        assert elapsed < 60.0

    def test_criterion_05_permuted_merge_beats_vanilla(self):
        cfg = default_config(n_layers=2, d_model=16, d_ff=64, ff_kind="relu")
        probe = np.random.default_rng(99).normal(size=(300, 16)) \
            .astype(np.float32)
        aligned_devs, vanilla_devs = [], []
        for i in range(50):
            base, noisy, _ = noisy_permuted_pair(cfg, seed=1000 + i)
            pre_base, y_base = ff_forward(base, probe, "relu")
            pre_noisy, _ = ff_forward(noisy, probe, "relu")
            recovered = solve_assignment(
                cross_correlation(centered(pre_base), centered(pre_noisy)))
            merged = merge_ff(base, [noisy], [recovered])
            vanilla = merge_ff(base, [noisy], [Permutation.identity(64)])
            _, y_merged = ff_forward(merged, probe, "relu")
            _, y_vanilla = ff_forward(vanilla, probe, "relu")
            aligned_devs.append(float(np.abs(y_merged - y_base).max()))
            vanilla_devs.append(float(np.abs(y_vanilla - y_base).max()))
        wins = sum(a <= v for a, v in zip(aligned_devs, vanilla_devs))
        med_aligned = statistics.median(aligned_devs)
        med_vanilla = statistics.median(vanilla_devs)
        ok = wins >= 48 and med_aligned < med_vanilla
        report(5, "aligned merge beats vanilla merge", ok)
        assert wins >= 48
        assert med_aligned < med_vanilla

    def test_criterion_06_anchor_robustness(self):
        cfg = default_config(n_layers=6, d_model=16, d_ff=64, ff_kind="relu")
        fixture = permuted_copy_model(cfg, seed=7)
        capture_data = token_sequences(cfg, 24, 16, seed=3)
        acts = capture_activations(fixture.model, capture_data, "ff_pre_act",
                                   max_samples=200)
        toks = np.array([3, 9, 4, 12, 1, 6, 2, 8], dtype=np.int64)
        logits = []
        for anchor in ("first", "middle", "last"):
            merged, _ = merge_window(
                fixture.model, acts,
                MergeSpec(start=2, k=3, anchor_position=anchor))
            logits.append(merged.forward(toks))
        worst = max(float(np.abs(a - b).max())
                    for a, b in itertools.combinations(logits, 2))
        ok = worst <= 1e-4
        report(6, "anchor choice does not move the merge", ok)
        assert worst <= 1e-4

    def test_criterion_07_window_enumeration(self):
        literal = enumerate_windows(12, 5)
        with_final = enumerate_windows(12, 5, include_final_window=True)
        ok = (literal == [0, 1, 2, 3, 4, 5, 6]
              and with_final == [0, 1, 2, 3, 4, 5, 6, 7])
        report(7, "window enumeration counts", ok)
        assert literal == [0, 1, 2, 3, 4, 5, 6]
        assert with_final == [0, 1, 2, 3, 4, 5, 6, 7]

    def test_criterion_08_cka_suite(self):
        rng = np.random.default_rng(208)
        x = rng.normal(size=(80, 12))
        self_ok = abs(linear_cka(x, x) - 1.0) <= 1e-6
        q, _ = np.linalg.qr(rng.normal(size=(12, 12)))
        y = rng.normal(size=(80, 12))
        base = linear_cka(x, y)
        ortho_ok = abs(linear_cka(x, y @ q) - base) <= 1e-6
        scale_ok = abs(linear_cka(x * 7.5, y) - base) <= 1e-6
        cfg = default_config(n_layers=5, d_model=16, d_ff=32, ff_kind="gelu")
        model = duplicate_model(cfg, seed=5)
        data = token_sequences(cfg, 12, 12, seed=6)
        acts = capture_activations(model, data, "ff_out", max_samples=100)
        matrix = cka_matrix(acts)
        off = [matrix.values[i, j] for i in range(5) for j in range(5)
               if i != j]
        dup_ok = min(off) >= 0.999
        sym_ok = bool(np.allclose(matrix.values, matrix.values.T, atol=1e-12))
        diag_ok = bool(np.allclose(np.diag(matrix.values), 1.0, atol=1e-6))
        ok = self_ok and ortho_ok and scale_ok and dup_ok and sym_ok \
            and diag_ok
        report(8, "CKA identities and duplicate-layer map", ok)
        assert self_ok and ortho_ok and scale_ok
        assert dup_ok
        assert sym_ok and diag_ok

    def test_criterion_09_checkpoint_integrity(self):
        rng = np.random.default_rng(209)
        for trial in range(100):
            table = {}
            expected_total = 0
            expected_unique = 0
            for i in range(int(rng.integers(1, 6))):
                shape = tuple(int(v) for v in rng.integers(1, 6, size=2))
                arr = rng.normal(size=shape).astype(np.float32)
                table[f"t{trial}.owner{i}"] = arr
                expected_total += arr.size
                expected_unique += arr.size
            owner_names = list(table)
            if trial % 2 == 0:
                for j in range(int(rng.integers(1, 4))):
                    target = owner_names[int(rng.integers(len(owner_names)))]
                    table[f"t{trial}.alias{j}"] = target
                    expected_total += table[target].size
            store = ParameterStore(table)
            blob = serialize_container(store, {"trial": trial})
            parsed, meta = parse_container(blob)
            blob2 = serialize_container(parsed, meta)
            assert blob2 == blob, f"round-trip changed bytes on {trial}"
            rep = tie_report(parsed)
            assert rep.total_parameters == expected_total
            assert rep.unique_parameters == expected_unique
            expected_ratio = (0.0 if expected_total == 0
                              else 1.0 - expected_unique / expected_total)
            assert rep.reduction_ratio == expected_ratio
        report(9, "checkpoint write/read/write integrity", True)

    def test_criterion_10_drop_baseline_finds_dead_layer(self):
        cfg = default_config(n_layers=5, d_model=16, d_ff=32, ff_kind="gelu")
        model = zeroed_layer_model(cfg, zero_layer=2, seed=19)
        eval_data = greedy_sequences(model, 8, 24, seed=23)
        metric = EvalMetric("cross_entropy")
        selection, pruned = select_best_drop(model, 1, eval_data, metric)
        base_score = evaluate(model, eval_data, metric)
        delta = abs(selection.best.score - base_score)
        ok = selection.best.start == 2 and delta <= 1e-5
        report(10, "layer-drop baseline finds the dead layer", ok)
        assert selection.best.start == 2
        assert delta <= 1e-5
        assert pruned.config.n_layers == 4
