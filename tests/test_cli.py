import json

import numpy as np
import pytest
import yaml

from cglb import cli, config, data, kernels, models, nystrom, training
from cglb.errors import ConfigError, NotPositiveDefinite


def write_config(tmp_path, text, name="cfg.yaml"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


SINE_CFG = """
model: cglb
m: 8
seed: 1
data:
  synthetic: {kind: sine, n: 120, d: 1, noise_std: 0.2, seed: 3}
optimizer: {max_steps: 15}
"""


class TestConfig:
    def test_defaults_and_validation(self):
        cfg = config.config_from_dict({"data": {"synthetic": {}}})
        assert cfg.model == "cglb"
        assert cfg.eps_train == 1.0 and cfg.eps_predict == 1e-3
        assert cfg.split_fraction == pytest.approx(2.0 / 3.0)
        assert cfg.resolve_floor() == 1e-6

    def test_iterative_floor_default(self):
        cfg = config.config_from_dict({"model": "iterative", "data": {"synthetic": {}}})
        assert cfg.resolve_floor() == 1e-4

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown key"):
            config.config_from_dict({"data": {"synthetic": {}}, "nope": 1})

    def test_nested_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown key"):
            config.config_from_dict({"data": {"synthetic": {"frequency": 2}}})

    def test_bad_model_kind(self):
        with pytest.raises(ConfigError):
            config.config_from_dict({"model": "vi", "data": {"synthetic": {}}})

    def test_missing_data_source(self):
        with pytest.raises(ConfigError):
            config.config_from_dict({"model": "exact"})

    def test_echo_roundtrip(self, tmp_path):
        cfg = config.config_from_dict({"m": 5, "data": {"synthetic": {"n": 50}}})
        path = tmp_path / "echo.yaml"
        config.dump_config(cfg, str(path))
        again = config.load_config(str(path))
        assert config.config_to_dict(cfg) == config.config_to_dict(again)

    @pytest.mark.parametrize("draws", [0, -2])
    def test_bound_draws_must_be_positive(self, draws):
        with pytest.raises(ConfigError, match="bound_draws"):
            config.config_from_dict({"bound_draws": draws, "data": {"synthetic": {}}})

    def test_exponent_float_without_dot(self, tmp_path):
        # YAML 1.1 reads 1e-4 as a string; it loads as the number 1.0e-4 does.
        dotted = config.load_config(write_config(tmp_path, SINE_CFG + "eps_predict: 1.0e-4\n"))
        from_file = config.load_config(
            write_config(tmp_path, SINE_CFG + "eps_predict: 1e-4\n", "exp.yaml"))
        from_set = config.load_config(write_config(tmp_path, SINE_CFG, "base.yaml"),
                                      ["eps_predict=1e-4"])
        assert dotted.eps_predict == 1e-4
        assert from_file == dotted and from_set == dotted

    def test_overrides(self):
        payload = {"data": {"synthetic": {}}}
        config.apply_overrides(payload, ["m=4", "optimizer.max_steps=9",
                                         "data.synthetic.n=33"])
        cfg = config.config_from_dict(payload)
        assert cfg.m == 4 and cfg.optimizer.max_steps == 9
        assert cfg.data.synthetic.n == 33


class TestMetrics:
    def test_perfect_prediction_unit_variance(self):
        y = np.linspace(-1, 1, 50)
        out = training.metrics_from_predictions(y.copy(), np.ones(50), y)
        assert out["rmse"] == 0.0
        assert out["nlpd"] == pytest.approx(0.5 * np.log(2 * np.pi), abs=1e-12)

    def test_calibrated_beats_inflated_variance(self):
        rng = np.random.default_rng(0)
        y = rng.standard_normal(500)
        mean = np.zeros(500)
        nlpd_good = training.metrics_from_predictions(mean, np.ones(500), y)["nlpd"]
        nlpd_wide = training.metrics_from_predictions(mean, 10.0 * np.ones(500), y)["nlpd"]
        assert nlpd_good < nlpd_wide

    def test_raw_rmse_consistent_with_destandardised(self):
        ds = data.synthetic_sine(120, 1, seed=4)
        cfg = config.config_from_dict({
            "model": "exact", "seed": 2,
            "data": {"synthetic": {"kind": "sine", "n": 120, "d": 1, "seed": 4}},
            "optimizer": {"max_steps": 5},
        })
        train_set, test_set, stats = data.split_standardize(ds, cfg.split_fraction, cfg.seed)
        model, _ = training.train(cfg, train_set)
        metrics = training.evaluate(model, test_set)
        pred = training.predict(model, test_set.X)
        mean_raw = pred.mean * stats.y_std + stats.y_mean
        y_raw = test_set.y * stats.y_std + stats.y_mean
        rmse_raw = float(np.sqrt(np.mean((mean_raw - y_raw) ** 2)))
        assert abs(metrics["rmse_raw"] - rmse_raw) <= 1e-10 * max(1.0, rmse_raw)


class TestTrainDriver:
    @pytest.mark.parametrize("kind", ["exact", "sgpr", "cglb", "iterative"])
    def test_all_model_kinds_train_and_predict(self, kind):
        cfg = config.config_from_dict({
            "model": kind, "m": 6, "seed": 0,
            "data": {"synthetic": {"kind": "sine", "n": 60, "d": 1, "seed": 1}},
            "optimizer": {"max_steps": 4},
            "iterative": {"probes": 3, "cg_tol": 1e-6},
        })
        ds = training.build_dataset(cfg)
        train_set, test_set, _ = data.split_standardize(ds, cfg.split_fraction, cfg.seed)
        records = []
        model, result = training.train(cfg, train_set, trace_sink=records.append)
        assert records[0]["step"] == 0
        assert len(records) == len(result.trace)
        assert all(np.isfinite(r["objective"]) for r in records)
        metrics = training.evaluate(model, test_set)
        assert np.isfinite(metrics["rmse"]) and np.isfinite(metrics["nlpd"])

    def test_objective_ascends_and_cg_work_decays(self):
        # 1-D sine data with 200 training points, m=16: the objective
        # ascends and the CG-iteration column trends to zero once the
        # warm start takes over.
        cfg = config.config_from_dict({
            "model": "cglb", "m": 16, "seed": 0,
            "data": {"synthetic": {"kind": "sine", "n": 300, "d": 1, "seed": 2}},
            "optimizer": {"max_steps": 60},
        })
        ds = training.build_dataset(cfg)
        train_set, _, _ = data.split_standardize(ds, cfg.split_fraction, cfg.seed)
        assert train_set.n == 200
        records = []
        training.train(cfg, train_set, trace_sink=records.append)
        assert records[-1]["objective"] >= records[0]["objective"]
        iters = [r["cg_iters"] for r in records]
        quarter = max(len(iters) // 4, 1)
        assert sum(iters[-quarter:]) <= sum(iters[:quarter])

    def test_deterministic_trace(self):
        cfg = config.config_from_dict({
            "model": "cglb", "m": 6, "seed": 5,
            "data": {"synthetic": {"kind": "sine", "n": 90, "d": 1, "seed": 5}},
            "optimizer": {"max_steps": 10},
        })
        ds = training.build_dataset(cfg)
        train_set, _, _ = data.split_standardize(ds, cfg.split_fraction, cfg.seed)
        r1, r2 = [], []
        training.train(cfg, train_set, trace_sink=r1.append)
        training.train(cfg, train_set, trace_sink=r2.append)
        for a, b in zip(r1, r2):
            assert a["objective"] == b["objective"]
            assert a["theta"] == b["theta"]
            assert a["cg_iters"] == b["cg_iters"]

    def test_model_roundtrip(self, tmp_path):
        cfg = config.config_from_dict({
            "model": "sgpr", "m": 5, "seed": 0,
            "data": {"synthetic": {"kind": "sine", "n": 60, "d": 2, "seed": 3}},
            "optimizer": {"max_steps": 3},
        })
        ds = training.build_dataset(cfg)
        train_set, test_set, _ = data.split_standardize(ds, cfg.split_fraction, cfg.seed)
        model, _ = training.train(cfg, train_set)
        path = tmp_path / "model.npz"
        training.save_model(model, str(path))
        loaded = training.load_model(str(path))
        p1 = training.predict(model, test_set.X)
        p2 = training.predict(loaded, test_set.X)
        np.testing.assert_array_equal(p1.mean, p2.mean)
        np.testing.assert_array_equal(p1.var, p2.var)

    @staticmethod
    def _cglb_model():
        cfg = config.config_from_dict({
            "model": "cglb", "m": 5, "seed": 0,
            "data": {"synthetic": {"kind": "sine", "n": 60, "d": 2, "seed": 3}},
            "optimizer": {"max_steps": 3},
        })
        ds = training.build_dataset(cfg)
        train_set, test_set, _ = data.split_standardize(ds, cfg.split_fraction, cfg.seed)
        model, _ = training.train(cfg, train_set)
        return model, test_set

    def test_cglb_predict_builds_no_kff(self, monkeypatch):
        model, test_set = self._cglb_model()
        assert model.r is not None and model.r.shape == model.y.shape
        shapes = []
        original = kernels.kernel_with_decay

        def recording(X, X2=None, params=None):
            out = original(X, X2, params)
            shapes.append(out[0].shape)
            return out

        monkeypatch.setattr(kernels, "kernel_with_decay", recording)
        training.predict(model, test_set.X)
        n = model.y.size
        assert shapes and (n, n) not in shapes

    def test_cglb_predict_builds_no_square_array(self, monkeypatch):
        # The packed n x n build returns one array, whose first row the shape
        # check above records as (n,); so count the (X, None) builds instead.
        model, test_set = self._cglb_model()
        square = []
        original = kernels.kernel_with_decay

        def recording(X, X2=None, params=None):
            square.append(X2 is None)
            return original(X, X2, params)

        monkeypatch.setattr(kernels, "kernel_with_decay", recording)
        training.predict(model, test_set.X)
        assert square and not any(square)

    def test_cglb_model_roundtrip_carries_residual(self, tmp_path):
        model, test_set = self._cglb_model()
        path = tmp_path / "model.npz"
        training.save_model(model, str(path))
        loaded = training.load_model(str(path))
        np.testing.assert_array_equal(loaded.r, model.r)
        p1 = training.predict(model, test_set.X)
        p2 = training.predict(loaded, test_set.X)
        np.testing.assert_array_equal(p1.mean, p2.mean)
        np.testing.assert_array_equal(p1.var, p2.var)

    def test_model_with_three_floors_predicts_identically(self, tmp_path):
        # a model.npz written when HyperParams kept one floor per parameter
        model, test_set = self._cglb_model()
        path = tmp_path / "model.npz"
        training.save_model(model, str(path))
        with np.load(str(path)) as payload:
            older = {key: payload[key] for key in payload.files}
        meta = json.loads(str(older["meta"]))
        floor = meta.pop("floor")
        meta["floors"] = [floor, floor, floor]
        older["meta"] = json.dumps(meta)
        np.savez(str(path), **older)
        loaded = training.load_model(str(path))
        assert loaded.params.floor == model.params.floor
        p1 = training.predict(model, test_set.X)
        p2 = training.predict(loaded, test_set.X)
        np.testing.assert_array_equal(p1.mean, p2.mean)
        np.testing.assert_array_equal(p1.var, p2.var)

    def test_model_without_residual_predicts_by_rebuilding(self, tmp_path):
        model, test_set = self._cglb_model()
        path = tmp_path / "model.npz"
        training.save_model(model, str(path))
        with np.load(str(path)) as payload:
            older = {key: payload[key] for key in payload.files if key != "r"}
        np.savez(str(path), **older)
        loaded = training.load_model(str(path))
        assert loaded.r is None
        pred = training.predict(loaded, test_set.X)
        rebuilt = models.cglb_predict(model.params, model.Z, model.X, model.y, model.v,
                                      test_set.X)
        np.testing.assert_array_equal(pred.mean, rebuilt.mean)
        np.testing.assert_array_equal(pred.var, rebuilt.var)


class TestCliCommands:
    @pytest.mark.parametrize("kind", ["exact", "sgpr", "cglb", "iterative"])
    def test_train_writes_outputs_and_reproduces(self, tmp_path, kind):
        cfg_path = write_config(tmp_path, SINE_CFG)
        out1 = tmp_path / "run1"
        assert cli.main(["train", "--config", cfg_path, "--set", f"model={kind}",
                         "--out", str(out1)]) == 0
        for name in ("config.yaml", "trace.jsonl", "model.npz", "summary.json"):
            assert (out1 / name).exists()
        # retrain from the echoed config: summary must be bit-identical
        out2 = tmp_path / "run2"
        assert cli.main(["train", "--config", str(out1 / "config.yaml"),
                         "--out", str(out2)]) == 0
        assert (out1 / "summary.json").read_bytes() == (out2 / "summary.json").read_bytes()
        # trace matches on every deterministic field
        t1 = [json.loads(l) for l in (out1 / "trace.jsonl").read_text().splitlines()]
        t2 = [json.loads(l) for l in (out2 / "trace.jsonl").read_text().splitlines()]
        assert len(t1) == len(t2)
        for a, b in zip(t1, t2):
            a.pop("elapsed_s"); b.pop("elapsed_s")
            assert a == b

    def test_evaluate_command(self, tmp_path):
        cfg_path = write_config(tmp_path, SINE_CFG)
        out = tmp_path / "run"
        assert cli.main(["train", "--config", cfg_path, "--out", str(out)]) == 0
        assert cli.main(["evaluate", "--model", str(out)]) == 0
        metrics = json.loads((out / "metrics.json").read_text())
        summary = json.loads((out / "summary.json").read_text())
        assert metrics == summary["metrics"]

    def test_compare_bounds_command(self, tmp_path):
        cfg_path = write_config(tmp_path, SINE_CFG)
        out_csv = tmp_path / "bounds.csv"
        code = cli.main(["compare-bounds", "--config", cfg_path,
                         "--set", "bound_draws=3", "--set", "data.synthetic.n=60",
                         "--out", str(out_csv)])
        assert code == 0
        rows = out_csv.read_text().splitlines()
        assert len(rows) == 4  # header + 3 draws
        header = rows[0].split(",")
        for col in ("logdet_exact", "logdet_lower", "logdet_waterfill",
                    "logdet_amgm", "logdet_trace", "quad_lower", "quad_upper",
                    "elbo", "cglb", "lml", "ordering_ok"):
            assert col in header
        assert all(line.endswith("True") for line in rows[1:])

    def test_compare_bounds_lml_is_exact_lml(self, monkeypatch):
        cfg = config.config_from_dict({
            "m": 5, "seed": 2, "bound_draws": 3,
            "data": {"synthetic": {"kind": "sine", "n": 60, "d": 2, "seed": 3}},
        })
        ds = training.build_dataset(cfg)
        drawn = []
        select = nystrom.greedy_select

        def recording(X, params, m):
            drawn.append(params)
            return select(X, params, m)

        monkeypatch.setattr(nystrom, "greedy_select", recording)
        rows = training.compare_bounds_rows(cfg, ds)
        assert len(drawn) == len(rows) == 3
        for row, params in zip(rows, drawn):
            assert row["lml"] == models.exact_lml(params, ds.X, ds.y).value

    def test_check_gradients_command(self, capsys):
        assert cli.main(["check-gradients", "--seeds", "2"]) == 0
        out = capsys.readouterr().out
        assert "exact" in out and "elbo" in out and "cglb" in out

    @pytest.mark.parametrize("command, extra", [
        ("train", ["--seeds", "0"]),
        ("check-gradients", ["--seeds", "0"]),
        ("check-gradients", ["--set", "seed=notanumber"]),
        ("compare-bounds", ["--set", "bound_draws=0"]),
        # out of range: each would otherwise run with its meaning silently changed
        ("train", ["--set", "iterative.cg_tol=-0.01"]),
        ("train", ["--set", "optimizer.max_line_search=0"]),
        ("train", ["--set", "optimizer.memory=0"]),
        ("train", ["--set", "positivity_floor=-1e-6"]),
        ("train", ["--set", "data.synthetic.kind=gp", "--set", "data.synthetic.variance=0"]),
        ("train", ["--set", "data.synthetic.kind=gp",
                   "--set", "data.synthetic.lengthscale=-1"]),
        ("train", ["--set", "data.synthetic.kind=gp",
                   "--set", "data.synthetic.noise_variance=-0.1"]),
        ("train", ["--set", "data.synthetic.noise_std=-1"]),
        ("train", ["--set", "dense_cap=0"]),
        ("train", ["--workers", "0"]),
        ("train", ["--seeds", "2", "--workers", "-3"]),
        # non-finite floats: PCG cannot meet a NaN tolerance
        ("train", ["--set", "eps_predict=.nan"]),
        ("train", ["--set", "eps_train=.inf"]),
        ("train", ["--set", "iterative.cg_tol=.nan"]),
        ("train", ["--set", "optimizer.grad_tol=.nan"]),
        ("train", ["--set", "positivity_floor=.nan"]),
        # at or below the generator's positivity floor
        ("train", ["--set", "data.synthetic.kind=gp",
                   "--set", "data.synthetic.variance=0.0000001"]),
        ("train", ["--set", "data.synthetic.kind=gp",
                   "--set", "data.synthetic.lengthscale=1e-6"]),
    ])
    def test_rejected_arguments_exit_2(self, tmp_path, command, extra):
        argv = [command, *extra]
        if command != "check-gradients":
            argv += ["--config", write_config(tmp_path, SINE_CFG),
                     "--out", str(tmp_path / "out")]
        assert cli.main(argv) == 2
        assert not (tmp_path / "out").exists()

    def test_check_gradients_applies_set_without_config(self, monkeypatch):
        seeds = []

        def report(seed):
            seeds.append(seed)
            return {"exact": 0.0}

        monkeypatch.setattr(training, "gradient_check_report", report)
        assert cli.main(["check-gradients", "--seeds", "2", "--set", "seed=4"]) == 0
        assert seeds == [4, 5]

    def test_unknown_key_exits_2(self, tmp_path):
        cfg_path = write_config(tmp_path, SINE_CFG)
        code = cli.main(["train", "--config", cfg_path, "--set", "bogus=1",
                         "--out", str(tmp_path / "x")])
        assert code == 2

    def test_missing_config_file_exits_2(self, tmp_path):
        code = cli.main(["train", "--config", str(tmp_path / "absent.yaml"),
                         "--out", str(tmp_path / "x")])
        assert code == 2

    @pytest.mark.parametrize("model", ["exact", "iterative", "cglb"])
    def test_numerical_failure_exits_3(self, tmp_path, monkeypatch, model):
        # a dense model with a dense cap below n fails before its n x n build
        cfg_path = write_config(tmp_path, SINE_CFG)
        cfg = config.config_from_dict(yaml.safe_load(SINE_CFG))
        n = data.split_standardize(training.build_dataset(cfg), cfg.split_fraction,
                                   cfg.seed)[0].n
        square = []
        original = kernels.kernel_with_decay

        def recording(X, X2=None, params=None):
            square.append(X2 is None or len(X) == len(X2) == n)
            return original(X, X2, params)

        monkeypatch.setattr(kernels, "kernel_with_decay", recording)
        code = cli.main(["train", "--config", cfg_path, "--set", f"model={model}",
                         "--set", f"dense_cap={n - 1}", "--out", str(tmp_path / "x")])
        assert code == 3
        assert not any(square)

    def test_multi_seed_training(self, tmp_path):
        cfg_path = write_config(tmp_path, SINE_CFG)
        out = tmp_path / "sweep"
        code = cli.main(["train", "--config", cfg_path, "--out", str(out),
                         "--set", "optimizer.max_steps=3", "--seeds", "2"])
        assert code == 0
        for seed in (1, 2):
            assert (out / f"seed-{seed}" / "summary.json").exists()
        s1 = json.loads((out / "seed-1" / "summary.json").read_text())
        s2 = json.loads((out / "seed-2" / "summary.json").read_text())
        assert s1["seed"] == 1 and s2["seed"] == 2

    def test_worker_pool_matches_sequential(self, tmp_path):
        cfg_path = write_config(tmp_path, SINE_CFG)
        for workers in ("1", "2"):
            assert cli.main(["train", "--config", cfg_path, "--out", str(tmp_path / workers),
                             "--set", "optimizer.max_steps=3", "--seeds", "2",
                             "--workers", workers]) == 0
        for seed in (1, 2):
            one, two = (tmp_path / workers / f"seed-{seed}" for workers in ("1", "2"))
            assert (one / "summary.json").read_bytes() == (two / "summary.json").read_bytes()
            # array by array: the zip members of model.npz carry a write time
            with np.load(one / "model.npz") as a, np.load(two / "model.npz") as b:
                assert a.files == b.files
                for key in a.files:
                    assert a[key].dtype == b[key].dtype and a[key].shape == b[key].shape
                    assert a[key].tobytes() == b[key].tobytes()

    def test_failed_run_keeps_streamed_trace(self, tmp_path, monkeypatch):
        # Every accepted step's record is on disk before the next step starts.
        elbo = models.elbo
        calls = 0

        def failing(*args, **kwargs):
            nonlocal calls
            calls += 1
            if calls == 9:
                raise NotPositiveDefinite("forced at the 9th evaluation")
            return elbo(*args, **kwargs)

        monkeypatch.setattr(models, "elbo", failing)
        out = tmp_path / "run"
        code = cli.main(["train", "--config", write_config(tmp_path, SINE_CFG),
                         "--set", "model=sgpr", "--set", "data.synthetic.n=90",
                         "--out", str(out)])
        assert code == 3
        records = [json.loads(line) for line in (out / "trace.jsonl").read_text().splitlines()]
        assert len(records) >= 2
        assert [r["step"] for r in records] == list(range(len(records)))

    def test_csv_input_end_to_end(self, tmp_path):
        ds = data.synthetic_sine(60, 2, seed=9)
        csv_path = tmp_path / "input.csv"
        data.write_csv(str(csv_path), ds)
        cfg_path = write_config(tmp_path, f"""
model: sgpr
m: 6
seed: 0
data: {{csv: "{csv_path}", target: y}}
optimizer: {{max_steps: 5}}
""")
        out = tmp_path / "run_csv"
        assert cli.main(["train", "--config", cfg_path, "--out", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["n_train"] == 40 and summary["n_test"] == 20
