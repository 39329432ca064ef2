"""The sequence forms of the samplers against the loop of scalar calls they
replace: the same results bit for bit, the same errors after the same cases,
and the same generator state afterwards, also when tolerance overrides make
the stacked first draws fail mid-window and the scalar sampler takes over."""

import json

import numpy as np
import pytest

from timps import cli, sampling
from timps.cli import main
from timps.config import DEFAULT_TOLS
from timps.errors import NotInEError, NotInOError, TimpsError
from timps.sampling import (
    _move_draws,
    random_core,
    random_gauge_move,
    random_observable,
    random_split_spectrum_tensor,
    random_tensor_in_e,
)

SEEDS = [0, 1, 2]
TOLS = {
    "default": DEFAULT_TOLS,
    "eps_rank": DEFAULT_TOLS.override(eps_rank=0.12),  # refuses about half the rank-2 cores
    "tol_distinct": DEFAULT_TOLS.override(tol_distinct=0.7),  # rejects most spectra
}
CORE_CASES = [(4, 2), (2, 1), (5, 2), (1, 1), (4, 2), (3, 1)] * 4
IN_E_CASES = [(4, 2, 2), (4, 3, 2), (2, 2, 1), (3, 2, 1), (5, 4, 2)] * 4
SPLIT_CASES = [(2, 2), (3, 3), (2, 3), (3, 4)] * 5


def same(a, b):
    if isinstance(a, TimpsError) or isinstance(b, TimpsError):
        return (type(a), str(a)) == (type(b), str(b))
    if isinstance(a, tuple):
        return len(a) == len(b) and all(map(same, a, b))
    if hasattr(a, "norm_residual"):
        return (a.chi == b.chi and a.norm_residual == b.norm_residual
                and all(bits(getattr(a, k)) == bits(getattr(b, k))
                        for k in ("X", "K", "M", "mats")))
    if hasattr(a, "lam"):
        return (a.lam == b.lam and bits(a.Z) == bits(b.Z)
                and bits(a.filler.mats) == bits(b.filler.mats))
    if hasattr(a, "factors"):
        return all(bits(x) == bits(y) for x, y in zip(a.factors, b.factors, strict=True))
    return bits(a.mats) == bits(b.mats)


def bits(a):
    a = np.asarray(a)
    return a.dtype.str, a.shape, a.tobytes()


def scalar_loop(rng, cases, sample, then=None):
    """The loop the sequence forms replace: one case at a time, stopping at
    the first error."""
    out = []
    for case in cases:
        try:
            dec = sample(rng, *case)
            out.append(then(rng, dec) if then else dec)
        except TimpsError as exc:
            return out + [exc]
    return out


def samplers(tols):
    """name -> (cases, scalar call, sequence call)."""
    return {
        "random_core": (
            CORE_CASES, lambda rng, d, chi: random_core(rng, d, chi, tols),
            lambda rng, cases, then: random_core(rng, *zip(*cases), tols, then=then)),
        "random_tensor_in_e": (
            IN_E_CASES, lambda rng, d, D, chi: random_tensor_in_e(rng, d, D, chi, tols=tols),
            lambda rng, cases, then: random_tensor_in_e(rng, *zip(*cases), tols=tols, then=then)),
        "random_split_spectrum_tensor": (
            SPLIT_CASES, lambda rng, chi, D: random_split_spectrum_tensor(rng, chi, D, tols),
            lambda rng, cases, then: random_split_spectrum_tensor(rng, *zip(*cases), tols,
                                                                  then=then)),
    }


def gauge_then(tols):
    return lambda rng, dec: (dec, random_gauge_move(rng, dec, tols=tols))


def observable_then(rng, dec):
    return dec.tensor, random_observable(rng, dec.d, int(rng.integers(1, 4)))


def check_against_scalar_loop(seed, cases, scalar, sequence, then):
    rng_a, rng_b = np.random.default_rng(seed), np.random.default_rng(seed)
    want = scalar_loop(rng_a, cases, scalar, then)
    got = sequence(rng_b, cases, then)
    assert len(got) == len(want)
    assert all(map(same, got, want))
    assert rng_b.bit_generator.state == rng_a.bit_generator.state
    return got


def count_fallbacks(monkeypatch, name):
    calls = []
    scalar = getattr(sampling, name)

    def counted(*args, **kwargs):
        calls.append(args[1:3])
        return scalar(*args, **kwargs)

    monkeypatch.setattr(sampling, name, counted)
    return calls


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("tols_name", list(TOLS))
@pytest.mark.parametrize("name", ["random_core", "random_tensor_in_e",
                                  "random_split_spectrum_tensor"])
@pytest.mark.parametrize("with_then", [False, True], ids=["plain", "then"])
def test_sequence_forms_match_the_scalar_loop(monkeypatch, seed, tols_name, name, with_then):
    tols = TOLS[tols_name]
    cases, scalar, sequence = samplers(tols)[name]
    then = (observable_then if name == "random_core" else gauge_then(tols)) if with_then else None
    fallbacks = count_fallbacks(monkeypatch, name)
    check_against_scalar_loop(seed, cases, scalar, sequence, then)
    # the overrides reject first draws inside windows, which the scalar sampler redraws
    forced = {"eps_rank": name != "random_split_spectrum_tensor",
              "tol_distinct": name == "random_split_spectrum_tensor"}.get(tols_name, False)
    assert bool(fallbacks) >= forced
    assert len(fallbacks) < len(cases)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("name, cases, tols, error", [
    # rank-3 cores never pass at eps_rank 0.2, the others do
    ("random_core", [(2, 1), (4, 2), (9, 3), (4, 2)], DEFAULT_TOLS.override(eps_rank=0.2),
     NotInEError),
    ("random_tensor_in_e", [(2, 1, 1), (4, 2, 2), (9, 3, 3), (4, 2, 2)],
     DEFAULT_TOLS.override(eps_rank=0.2), NotInEError),
    # a single core eigenvalue is never split; at tol_distinct 0.85 rank-3
    # spectra are split too rarely for 64 draws, rank-2 ones often enough
    ("random_split_spectrum_tensor", [(2, 3), (2, 2), (1, 2), (2, 3)], DEFAULT_TOLS,
     NotInOError),
    ("random_split_spectrum_tensor", [(2, 3), (2, 2), (3, 3), (2, 2)],
     DEFAULT_TOLS.override(tol_distinct=0.85), NotInOError),
])
def test_exhausted_draws_end_the_list_after_the_same_cases(seed, name, cases, tols, error):
    _, scalar, sequence = samplers(tols)[name]
    for then in (None, gauge_then(tols)):
        got = check_against_scalar_loop(seed, cases, scalar, sequence, then)
        assert isinstance(got[-1], error) and str(got[-1]).startswith("64 draws failed")
        assert len(got) == 3 and not any(isinstance(x, TimpsError) for x in got[:-1])


def draws_then(rng, dec):
    return dec, _move_draws(rng, dec)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("tols_name", ["default", "eps_rank"])
@pytest.mark.parametrize("name", ["random_tensor_in_e", "random_split_spectrum_tensor"])
def test_moves_built_from_window_draws_are_the_n1_moves(seed, tols_name, name):
    # windows of mixed shapes; after each the generator is where the scalar loop leaves it
    tols = TOLS[tols_name]
    cases, scalar, sequence = samplers(tols)[name]
    rng_a, rng_b = np.random.default_rng(seed), np.random.default_rng(seed)
    for start in range(0, len(cases), 7):
        want = scalar_loop(rng_a, cases[start:start + 7], scalar, gauge_then(tols))
        drawn = sequence(rng_b, cases[start:start + 7], draws_then)
        assert rng_b.bit_generator.state == rng_a.bit_generator.state
        end = drawn[-1:] if drawn and isinstance(drawn[-1], TimpsError) else []
        decs = [dec for dec, _ in drawn[:len(drawn) - len(end)]]
        moves = random_gauge_move([draws for _, draws in drawn[:len(decs)]], decs, tols)
        got = list(zip(decs, moves)) + end
        assert len(got) == len(want) and all(map(same, got, want))


@pytest.mark.parametrize("args, moves", [
    (["retract-sweep", "--seed", "1", "--count", "400"], 400),
    (["oracle-check", "--seed", "0"], 100),  # 100 gauge trials
])
def test_sweeps_build_each_gauge_move_once(monkeypatch, tmp_path, args, moves):
    built, build = [], sampling.GaugeMove

    def counted(*args, **kwargs):
        built.append(1)
        return build(*args, **kwargs)

    monkeypatch.setattr(sampling, "GaugeMove", counted)
    assert main(args + ["--out", str(tmp_path)]) == 0
    assert len(built) == moves


def test_the_scalar_call_is_the_one_case_sequence(make_rng):
    rng_a, rng_b = make_rng(4), make_rng(4)
    assert same(random_tensor_in_e(rng_a, [5], [3], [2])[0], random_tensor_in_e(rng_b, 5, 3, 2))
    assert random_core(rng_a, [], [], then=observable_then) == []
    assert rng_a.bit_generator.state == rng_b.bit_generator.state


def one_case_at_a_time_error(experiment, seed, tols):
    """The error that ends a sweep drawn one case at a time, as the sweeps
    drew before they speculated."""
    rng = np.random.default_rng(np.random.PCG64(seed))
    for case in range(20):
        try:
            if experiment == "retract-sweep":
                chi = (2, 3)[case % 2]
                dec = random_split_spectrum_tensor(rng, chi, chi + (case // 2) % 2, tols)
                random_gauge_move(rng, dec, tols=tols)
            else:
                shape = cli._CONTRACT_SHAPES[case % len(cli._CONTRACT_SHAPES)]
                random_tensor_in_e(rng, *shape, tols=tols)
        except TimpsError as exc:
            return case, f"{type(exc).__name__}: {exc}"
    return None, None


@pytest.mark.parametrize("experiment, tol", [
    ("retract-sweep", "tol_distinct=0.9"),  # chi=2 cases pass, chi=3 cases run out
    ("contract-sweep", "eps_rank=0.25"),  # some (4, 2, 2) cases run out
])
def test_sweeps_report_a_draw_that_runs_out_mid_window(tmp_path, capsys, experiment, tol):
    tols = DEFAULT_TOLS.override(**{tol.split("=")[0]: float(tol.split("=")[1])})
    case, message = one_case_at_a_time_error(experiment, 3, tols)
    assert case is not None and case > 0  # cases before it were drawn
    code = main([experiment, "--seed", "3", "--count", "20", "--tol", tol, "--out", str(tmp_path)])
    out, err = capsys.readouterr()
    assert code == 1 and "Traceback" not in err
    report = json.loads(out)
    assert report == {"experiment": experiment, "pass": False, "failures": [message]}
    assert json.loads((tmp_path / f"{experiment}.json").read_text())["failures"] == [message]
