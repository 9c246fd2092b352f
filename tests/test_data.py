import hashlib
import math
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from tlammcox import (CoxObjective, CsvParseError, DataError, Independent,
                      SimulationConfig, SurvivalDataset, data, load_csv, save_csv,
                      simulate_dataset)
from tlammcox.data import (Autoregressive, ConstantCorrelation, ConstantSignal,
                           DecayingSignal, build_risk_cache, generate_covariates)
from tlammcox.errors import ConfigError
from conftest import autoregressive_design, constant_correlation_design, traced_peak


def pairwise_corr(x):
    return np.corrcoef(x, rowvar=False)


def test_independent_design_uncorrelated():
    x = generate_covariates(Independent(), 10_000, 2, seed=1)
    r = pairwise_corr(x)[0, 1]
    assert -0.05 < r < 0.05


def test_constant_correlation_design():
    x = generate_covariates(ConstantCorrelation(0.5), 10_000, 3, seed=2)
    r = pairwise_corr(x)
    for i in range(3):
        for j in range(i + 1, 3):
            assert 0.45 < r[i, j] < 0.55


def test_autoregressive_lag_two_correlation():
    # analytic AR(1): corr(x1, x3) = rho^2 = 0.9025
    x = generate_covariates(Autoregressive(0.95), 10_000, 3, seed=3)
    r = pairwise_corr(x)[0, 2]
    assert abs(r - 0.95**2) < 0.03


def test_design_unit_marginals():
    for design in (ConstantCorrelation(0.5), Autoregressive(0.95)):
        x = generate_covariates(design, 20_000, 4, seed=4)
        assert_allclose(x.std(axis=0), 1.0, atol=0.05)


def test_censoring_window_must_be_finite_and_non_negative():
    # an infinite high end overflows the uniform draw; a negative low end
    # gives the censoring exponential a negative scale
    for window in ((2.0, np.inf), (-1.0, 2.0)):
        with pytest.raises(ConfigError, match="censoring window"):
            SimulationConfig(n=10, p=5, censoring=window)
    assert SimulationConfig(n=10, p=5, censoring=(0.0, 1.0)).censoring == (0.0, 1.0)


def test_seed_rule():
    # an integer in [0, 2**64): a fractional seed is refused, not truncated
    for seed in (1.5, -1, 2**64, "3"):
        with pytest.raises(ConfigError, match="seed must be an unsigned 64-bit integer"):
            SimulationConfig(n=20, p=5, seed=seed)
    for seed in (0, 2**64 - 1, np.uint64(7)):
        assert SimulationConfig(n=20, p=5, seed=seed).seed == seed


def test_invalid_rho_rejected():
    with pytest.raises(ConfigError):
        generate_covariates(ConstantCorrelation(1.0), 10, 2, seed=0)
    with pytest.raises(ConfigError):
        generate_covariates(Autoregressive(-0.1), 10, 2, seed=0)


def test_design_rejects_rho_when_built():
    for design in (ConstantCorrelation, Autoregressive):
        for rho in (1.0, -0.1, math.nan):
            with pytest.raises(ConfigError, match="rho must lie in"):
                design(rho)


def test_signal_rejects_non_finite_values():
    # no draw can use an infinite or NaN coefficient; the error names the field
    for value in (math.inf, -math.inf, math.nan):
        with pytest.raises(ConfigError, match="signal value must be finite"):
            ConstantSignal(value)
        with pytest.raises(ConfigError, match="signal values must be finite"):
            DecayingSignal([1.0, value, 0.5])


def test_simulate_censoring_fraction_band():
    # per-seed rates fluctuate a few points around the population value, so
    # the band is asserted on the across-seed mean
    rates = []
    for seed in range(20):
        cfg = SimulationConfig(n=400, p=100, s=10, signal=ConstantSignal(0.8),
                               design=Independent(), seed=seed)
        ds, _ = simulate_dataset(cfg)
        rates.append(1 - ds.status.mean())
    assert 0.40 < float(np.mean(rates)) < 0.60
    assert 0.35 < min(rates) and max(rates) < 0.65


def test_simulate_null_signal_event_fraction():
    # with beta* = 0: T ~ Exp(1), C ~ Exp(mean U); P(event) = U/(1+U),
    # integrated over U ~ Uniform[2,3] this is 1 - log(4/3)
    from scipy.integrate import quad
    expected, err = quad(lambda u: u / (1.0 + u), 2.0, 3.0)
    assert err < 1e-10
    assert abs(expected - (1.0 - math.log(4.0 / 3.0))) < 1e-12
    cfg = SimulationConfig(n=10_000, p=3, s=1, signal=ConstantSignal(0.0), seed=5)
    ds, beta = simulate_dataset(cfg)
    assert_array_equal(beta, 0.0)
    assert abs(ds.status.mean() - expected) < 0.03


def test_simulate_deterministic_bytes(tmp_path):
    cfg = SimulationConfig(n=50, p=4, s=2, seed=77)
    a, beta_a = simulate_dataset(cfg)
    b, beta_b = simulate_dataset(cfg)
    assert_array_equal(a.times, b.times)
    assert_array_equal(a.status, b.status)
    assert_array_equal(a.covariates, b.covariates)
    assert_array_equal(beta_a, beta_b)
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    save_csv(a, p1, true_beta=beta_a, seed=cfg.seed)
    save_csv(b, p2, true_beta=beta_b, seed=cfg.seed)
    assert p1.read_bytes() == p2.read_bytes()
    assert (tmp_path / "a.truth.json").exists()


def test_true_beta_layout():
    cfg = SimulationConfig(n=10, p=6, s=3, signal=ConstantSignal(0.8), seed=0)
    assert_array_equal(cfg.true_beta(), [0.8, 0.8, 0.8, 0, 0, 0])
    cfg = SimulationConfig(n=10, p=5, s=3,
                           signal=DecayingSignal([1.0, 0.9, 0.8]), seed=0)
    assert_array_equal(cfg.true_beta(), [1.0, 0.9, 0.8, 0, 0])
    with pytest.raises(ConfigError):
        SimulationConfig(n=10, p=5, s=2, signal=DecayingSignal([1.0]), seed=0)
    with pytest.raises(ConfigError):
        SimulationConfig(n=10, p=5, s=6, seed=0)


def test_csv_roundtrip(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("time,status,x1,x2\n1.5,1,0.25,-1.0\n2.0,0,0.5,2.0\n0.75,1,-3.0,0.0\n")
    ds = load_csv(path)
    assert ds.n == 3 and ds.p == 2
    assert_allclose(ds.times, [1.5, 2.0, 0.75])
    assert_array_equal(ds.status, [1, 0, 1])
    out = tmp_path / "round.csv"
    save_csv(ds, out)
    assert load_csv(out).covariates.tolist() == ds.covariates.tolist()


def test_csv_writes_shortest_round_trip_repr(tmp_path):
    values = [-0.0, 5e-324, 1e300, 0.1, 1 / 3, 123456789.123]
    ds = SurvivalDataset([0.1, 1 / 3], [1, 0], np.array(values).reshape(2, 3))
    path = tmp_path / "awkward.csv"
    save_csv(ds, path)
    assert path.read_bytes() == (
        b"time,status,x1,x2,x3\n"
        b"0.1,1,-0.0,5e-324,1e+300\n"
        b"0.3333333333333333,0,0.1,0.3333333333333333,123456789.123\n")
    assert load_csv(path).covariates.tobytes() == ds.covariates.tobytes()


def test_csv_roundtrip_bit_exact(tmp_path):
    ds, _ = simulate_dataset(SimulationConfig(n=2000, p=20, s=5, seed=8))
    path = tmp_path / "sim.csv"
    save_csv(ds, path)
    back = load_csv(path)
    assert back.times.tobytes() == ds.times.tobytes()
    assert back.status.tobytes() == ds.status.tobytes()
    assert back.covariates.tobytes() == ds.covariates.tobytes()
    assert back.covariates.shape == (2000, 20)


def test_save_csv_bytes_are_pinned(tmp_path):
    # the digest of write_rows' str output, which the repr data rows must keep
    ds, _ = simulate_dataset(SimulationConfig(n=500, p=30, seed=3))
    path = tmp_path / "pin.csv"
    save_csv(ds, path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == (
        "63e49dae32dd1e70d039e77c2aab2f804b701ad3afa1a6f26cddfccb35806418")
    back = load_csv(path)
    for got, want in ((back.times, ds.times), (back.status, ds.status),
                      (back.covariates, ds.covariates)):
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
    assert back.covariates.flags.c_contiguous


def test_clean_csv_skips_the_row_loop(tmp_path, monkeypatch):
    ds, _ = simulate_dataset(SimulationConfig(n=50, p=4, s=2, seed=1))
    path = tmp_path / "clean.csv"
    save_csv(ds, path)

    def row_loop(*args):
        raise AssertionError("the row loop ran on a clean file")
    monkeypatch.setattr(data, "_parse_rows", row_loop)
    assert load_csv(path).covariates.tobytes() == ds.covariates.tobytes()


def test_csv_blank_lines_and_padding_load_as_the_clean_file(tmp_path):
    clean, padded = tmp_path / "clean.csv", tmp_path / "padded.csv"
    clean.write_text("time,status,x1,x2\n1.5,1,0.25,-1.0\n2.0,0,0.5,2.0\n0.75,1,-3.0,0.0\n")
    padded.write_text("time,status,x1,x2\n1.5,1,0.25,-1.0\n\n2.0, 0 ,0.5,2.0\n \t \n"
                      "0.75,1,  -3.0,0.0\n")
    a, b = load_csv(clean), load_csv(padded)
    for got, want in ((b.times, a.times), (b.status, a.status), (b.covariates, a.covariates)):
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


def test_csv_header_only_file_has_no_data_rows(tmp_path):
    path = tmp_path / "header.csv"
    path.write_text("time,status,x1,x2\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DataError, match="no data rows"):
            load_csv(path)


def test_csv_not_utf8_is_a_data_error(tmp_path):
    path = tmp_path / "cp1252.csv"
    path.write_bytes(b"time,status,x1\n1.0,1,0\x96\n")     # a cp1252 dash
    with pytest.raises(DataError, match="not UTF-8") as exc:
        load_csv(path)
    assert str(path) in str(exc.value)


@pytest.mark.parametrize("body", [
    "1.0,1,0.5\n2.0,0,1.5\n",                # numpy's reader
    "1.0,1,0.5\n \n2.0,0,1_0\n",             # only the row loop reads these
], ids=["numpy_reader", "row_loop"])
def test_csv_with_a_byte_order_mark_loads_as_without(tmp_path, body):
    plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
    plain.write_text("time,status,x1\n" + body, encoding="utf-8")
    marked.write_text("time,status,x1\n" + body, encoding="utf-8-sig")
    assert marked.read_bytes().startswith(b"\xef\xbb\xbftime,")
    a, b = load_csv(plain), load_csv(marked)
    for got, want in ((b.times, a.times), (b.status, a.status), (b.covariates, a.covariates)):
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


def test_csv_with_a_byte_order_mark_cites_the_bad_row(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("time,status,x1\n1.0,1,0.5\n2.0,0,abc\n", encoding="utf-8-sig")
    with pytest.raises(CsvParseError, match="row 2: non-numeric field"):
        load_csv(path)


def test_load_csv_holds_one_design(tmp_path):
    # the parsed (n, p + 2) table becomes the design in place; a second
    # n x p copy would put the peak near 2x
    ds, _ = simulate_dataset(SimulationConfig(n=20000, p=20, s=5, seed=8))
    path = tmp_path / "big.csv"
    save_csv(ds, path)
    assert traced_peak(lambda: load_csv(path)) <= 1.25 * ds.covariates.nbytes


def test_save_csv_memory_does_not_grow_with_n(tmp_path):
    # rows are formatted one at a time; the whole 20000 x 20 matrix as
    # Python floats would take about 15 MB
    ds, _ = simulate_dataset(SimulationConfig(n=20000, p=20, s=5, seed=8))
    assert traced_peak(lambda: save_csv(ds, tmp_path / "big.csv")) < 4e6


def test_dataset_checks_its_design_without_a_copy():
    # an n x p finiteness mask would take 0.72 MB of this 5.76 MB design
    ds, _ = simulate_dataset(SimulationConfig(n=300, p=2400, s=10, seed=8))
    assert traced_peak(lambda: SurvivalDataset(ds.times, ds.status, ds.covariates)) < 0.1e6


@pytest.mark.parametrize("design, reference", [
    (ConstantCorrelation, constant_correlation_design),
    (Autoregressive, autoregressive_design),
])
def test_correlated_design_built_in_its_draw(design, reference):
    # the bytes of the direct formula, with one n x p array alive at a time
    for rho, (n, p), seed in [(0.0, (40, 7), 1), (0.2, (300, 240), 2),
                              (0.5, (1, 30), 3), (0.95, (25, 1), 4)]:
        x = generate_covariates(design(rho), n, p, seed)
        assert x.tobytes() == reference(rho, n, p, seed).tobytes()
    nbytes = 1000 * 300 * 8
    assert traced_peak(lambda: generate_covariates(design(0.5), 1000, 300, 5)) <= 1.05 * nbytes


@pytest.mark.parametrize("row,match", [
    ("1.0,2,0.1,0.2", "status"),
    ("-1.0,1,0.1,0.2", "time"),
    ("1.0,1,nan,0.2", "non-finite"),
    ("1.0,1,0.1", "fields"),
    ("1.0,1,abc,0.2", "non-numeric"),
    ("1.0,1,inf,0.2\n2.0,0,abc,0.2", "non-finite"),   # first bad row wins
    ("1.0,1,0.1,0.2,", "fields"),
    ("\n1.0,1,abc,0.2", "non-numeric"),                # a blank line counts as a row
])
def test_csv_parse_errors_cite_row(tmp_path, row, match):
    path = tmp_path / "bad.csv"
    path.write_text(f"time,status,x1,x2\n1.0,1,0.0,0.0\n{row}\n")
    bad = 2 + len(row) - len(row.lstrip("\n"))
    with pytest.raises(CsvParseError, match=f"row {bad}") as exc:
        load_csv(path)
    assert match in str(exc.value) and exc.value.row == bad


def test_csv_missing_file_and_header(tmp_path):
    with pytest.raises(DataError):
        load_csv("/nonexistent/file.csv")
    path = tmp_path / "empty.csv"
    path.write_text("")
    with pytest.raises(DataError, match="empty file"):
        load_csv(path)


def test_csv_header_must_match(tmp_path):
    path = tmp_path / "h.csv"
    path.write_text("time,status,z1\n1.0,1,0.5\n")
    with pytest.raises(DataError):
        load_csv(path)
    for header in ("t,status,x1", "time,event,x1", "time,status"):
        path.write_text(f"{header}\n1.0,1,0.5\n")
        with pytest.raises(DataError, match="header must be time,status,x1,...,xp"):
            load_csv(path)


@pytest.mark.parametrize("body", ["1.0,1,0.1,0.2,9\n2.0,0,0.3,0.4,9\n",
                                  "1.0,1,0.1\n2.0,0,0.3\n"],
                         ids=["one_field_too_many", "one_field_too_few"])
def test_csv_rows_all_of_one_wrong_width_cite_row_1(tmp_path, body):
    # numpy's reader takes a table of one consistent width; its width check
    # hands it to the row loop, which names the first row
    path = tmp_path / "wide.csv"
    path.write_text("time,status,x1,x2\n" + body)
    with pytest.raises(CsvParseError, match="row 1") as exc:
        load_csv(path)
    assert "fields" in str(exc.value) and exc.value.row == 1


def test_censored_only_file_loads_but_fit_raises(tmp_path):
    path = tmp_path / "cens.csv"
    path.write_text("time,status,x1\n1.0,0,0.5\n2.0,0,-0.5\n")
    ds = load_csv(path)
    assert ds.n_events == 0
    with pytest.raises(DataError, match="no events"):
        CoxObjective(ds)


def test_build_risk_cache_examples():
    ds = SurvivalDataset([3.0, 1.0, 2.0], [1, 1, 1], np.zeros((3, 1)))
    cache = build_risk_cache(ds)
    assert_array_equal(cache.order, [0, 2, 1])
    assert_array_equal(cache.event_rows, [1, 2, 0])
    assert_array_equal(cache.tie_counts, [1, 1, 1])
    assert_array_equal(cache.risk_sizes, [3, 2, 1])

    ds = SurvivalDataset([2.0, 2.0, 1.0], [1, 1, 0], np.zeros((3, 1)))
    cache = build_risk_cache(ds)
    assert_array_equal(cache.event_rows, [0, 1])
    assert_array_equal(cache.tie_counts, [2])
    assert_array_equal(cache.risk_sizes, [2])

    ds = SurvivalDataset([1.0, 2.0], [0, 0], np.zeros((2, 1)))
    cache = build_risk_cache(ds)
    for arr in (cache.event_rows, cache.tie_counts, cache.risk_sizes):
        assert arr.shape == (0,) and arr.dtype == np.intp


def test_build_risk_cache_matches_brute_force():
    """Integer times give ties among events and between events and censored
    subjects; each group is checked against a direct count."""
    rng = np.random.default_rng(17)
    for case in range(100):
        n = int(rng.integers(1, 40))
        times = rng.integers(1, 8, size=n).astype(float)
        status = rng.integers(0, 2, size=n)
        cache = build_risk_cache(SurvivalDataset(times, status, np.zeros((n, 1))))
        group_times = sorted(set(times[status == 1]))
        assert cache.tie_counts.tolist() == [
            int(np.sum((times == t) & (status == 1))) for t in group_times], case
        assert cache.risk_sizes.tolist() == [
            int(np.sum(times >= t)) for t in group_times], case
        ends = np.cumsum(cache.tie_counts)
        for t, start, end in zip(group_times, ends - cache.tie_counts, ends):
            rows = cache.event_rows[start:end]
            assert rows.tolist() == np.flatnonzero((times == t) & (status == 1)).tolist(), case
        assert cache.event_rows.size == status.sum(), case


def test_risk_cache_permutation_valid():
    rng = np.random.default_rng(0)
    times = rng.exponential(1, 40) + 0.01
    ds = SurvivalDataset(times, rng.integers(0, 2, 40) | 1, rng.standard_normal((40, 2)))
    cache = build_risk_cache(ds)
    assert sorted(cache.order.tolist()) == list(range(40))
    inverse = np.empty(40, dtype=int)
    inverse[cache.order] = np.arange(40)
    assert_array_equal(ds.times[cache.order][inverse], ds.times)
    assert np.all(np.diff(ds.times[cache.order]) <= 0)


def test_censoring_rate_examples():
    ds = SurvivalDataset([1, 2, 3, 4], [0, 0, 1, 1], np.zeros((4, 1)))
    assert 1 - ds.status.mean() == 0.5
    ds = SurvivalDataset([1, 2], [1, 1], np.zeros((2, 1)))
    assert 1 - ds.status.mean() == 0.0


def test_censoring_rate_benchmark_band():
    rates = [1 - simulate_dataset(
        SimulationConfig(n=200, p=100, s=10, seed=seed))[0].status.mean()
        for seed in range(11, 31)]
    assert 0.40 < float(np.mean(rates)) < 0.65


def test_null_signal_times_covariate_independent():
    # beta*'x is identically zero under a null signal, so probe with the
    # unit-weight combination of the would-be support columns
    cfg = SimulationConfig(n=10_000, p=5, s=3, signal=ConstantSignal(0.0), seed=9)
    ds, _ = simulate_dataset(cfg)
    combo = ds.covariates[:, :3].sum(axis=1)
    r = np.corrcoef(combo, np.log(ds.times))[0, 1]
    assert -0.05 < r < 0.05


def test_event_rate_seed_stability():
    rates = []
    for seed in range(50):
        ds, _ = simulate_dataset(SimulationConfig(n=200, p=100, s=10, seed=seed))
        rates.append(1 - ds.status.mean())
    assert max(rates) - min(rates) < 0.15


def test_dataset_validation():
    with pytest.raises(DataError):
        SurvivalDataset([1.0, -2.0], [1, 1], np.zeros((2, 1)))
    with pytest.raises(DataError):
        SurvivalDataset([1.0, 2.0], [1, 2], np.zeros((2, 1)))
    with pytest.raises(DataError):
        SurvivalDataset([1.0], [1, 1], np.zeros((2, 1)))
    with pytest.raises(DataError):
        SurvivalDataset([1.0, np.inf], [1, 1], np.zeros((2, 1)))
    with pytest.raises(DataError, match="covariates must be a 2-d array"):
        SurvivalDataset([1.0, 2.0], [1, 1], np.zeros(2))
    with pytest.raises(DataError, match="empty dataset"):
        SurvivalDataset([], [], np.zeros((0, 1)))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_covariate_rejected(bad):
    x = np.zeros((3, 2))
    x[1, 1] = bad
    with pytest.raises(DataError, match="non-finite"):
        SurvivalDataset([1.0, 2.0, 3.0], [1, 0, 1], x)


def test_design_without_covariates_is_constructible():
    ds = SurvivalDataset([1.0, 2.0], [1, 0], np.empty((2, 0)))
    assert (ds.n, ds.p, ds.n_events) == (2, 0, 1)
