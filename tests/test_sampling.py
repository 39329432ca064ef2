"""The samplers' one body against the rejection loops it replaces, run one
case at a time: the same results bit for bit, the same errors after the
same cases, and the same generator state afterwards, for sequences and for
N=1 calls, also when tolerance overrides make draws fail mid-window and the
rejected case redraws alone."""

import json

import numpy as np
import pytest

from timps import cli, sampling
from timps.cli import main
from timps.config import DEFAULT_TOLS
from timps.errors import NotInEError, NotInOError, TimpsError
from timps.homotopy import has_split_core_spectrum
from timps.sampling import (
    _FILLER_SCALE,
    _ginibre,
    _haar,
    _move_draws,
    random_core,
    random_gauge_move,
    random_observable,
    random_split_spectrum_tensor,
    random_tensor_in_e,
)
from timps.tensors import MpsTensor, assemble, canonical_decompose, right_normalize

SEEDS = [0, 1, 2]
TOLS = {
    "default": DEFAULT_TOLS,
    "eps_rank": DEFAULT_TOLS.override(eps_rank=0.12),  # refuses about half the rank-2 cores
    "tol_distinct": DEFAULT_TOLS.override(tol_distinct=0.7),  # rejects most spectra
}
CORE_CASES = [(4, 2), (2, 1), (5, 2), (1, 1), (4, 2), (3, 1)] * 4
IN_E_CASES = [(4, 2, 2), (4, 3, 2), (2, 2, 1), (3, 2, 1), (5, 4, 2)] * 4
SPLIT_CASES = [(2, 2), (3, 3), (2, 3), (3, 4)] * 5
# name, cases, tolerances: the last case drawn runs out of draws
EXHAUSTED = [
    # rank-3 cores never pass at eps_rank 0.2, the others do
    ("random_core", [(2, 1), (4, 2), (9, 3), (4, 2)], DEFAULT_TOLS.override(eps_rank=0.2)),
    ("random_tensor_in_e", [(2, 1, 1), (4, 2, 2), (9, 3, 3), (4, 2, 2)],
     DEFAULT_TOLS.override(eps_rank=0.2)),
    # a single core eigenvalue is never split; at tol_distinct 0.85 rank-3
    # spectra are split too rarely for 64 draws, rank-2 ones often enough
    ("random_split_spectrum_tensor", [(2, 3), (2, 2), (1, 2), (2, 3)], DEFAULT_TOLS),
    ("random_split_spectrum_tensor", [(2, 3), (2, 2), (3, 3), (2, 2)],
     DEFAULT_TOLS.override(tol_distinct=0.85)),
]


# The rejection loops the samplers ran one case at a time before they had
# one body, as they were written then: the reference.

def ref_random_core(rng, d, chi, tols=DEFAULT_TOLS):
    if d < chi * chi:
        raise ValueError("injectivity needs d >= chi^2")
    for _ in range(64):
        raw = MpsTensor(_ginibre(rng, (d, chi, chi)))
        try:
            dec = canonical_decompose(right_normalize(raw, tols), tols)
            if dec.chi == chi:
                return dec
        except TimpsError:
            continue
    raise NotInEError(f"64 draws failed to give an injective normalized core (d={d}, chi={chi})")


def haar_unitary(rng, n):
    return _haar(_ginibre(rng, (n, n)))


def ref_random_tensor_in_e(rng, d, D, chi, tols=DEFAULT_TOLS):
    K = ref_random_core(rng, d, chi, tols).K
    X = haar_unitary(rng, D)
    M = _FILLER_SCALE * _ginibre(rng, (d, D - chi, chi))
    return canonical_decompose(assemble(X, K, M), tols)


def ref_random_split_spectrum_tensor(rng, chi, D, tols=DEFAULT_TOLS):
    d = chi * chi
    for _ in range(64):
        try:
            dec = ref_random_tensor_in_e(rng, d, D, chi, tols=tols)
        except TimpsError:
            continue
        if has_split_core_spectrum(dec, tols):
            return dec
    raise NotInOError(f"64 draws failed to give a split core spectrum (chi={chi}, D={D})")


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
    if isinstance(a, (float, np.ndarray)):
        return bits(a) == bits(b)
    return bits(a.mats) == bits(b.mats)


def bits(a):
    a = np.asarray(a)
    return a.dtype.str, a.shape, a.tobytes()


def samplers(tols):
    """name -> (cases, case -> (d, D, chi), reference call, sequence call, N=1 call)."""
    return {
        "random_core": (
            CORE_CASES, lambda d, chi: (d, chi, chi),
            lambda rng, d, chi: ref_random_core(rng, d, chi, tols),
            lambda rng, cases, then: random_core(rng, *zip(*cases), tols, then=then),
            lambda rng, d, chi, then: random_core(rng, d, chi, tols, then=then)),
        "random_tensor_in_e": (
            IN_E_CASES, lambda *case: case,
            lambda rng, d, D, chi: ref_random_tensor_in_e(rng, d, D, chi, tols=tols),
            lambda rng, cases, then: random_tensor_in_e(rng, *zip(*cases), tols=tols, then=then),
            lambda rng, d, D, chi, then: random_tensor_in_e(rng, d, D, chi, tols, then)),
        "random_split_spectrum_tensor": (
            SPLIT_CASES, lambda chi, D: (chi * chi, D, chi),
            lambda rng, chi, D: ref_random_split_spectrum_tensor(rng, chi, D, tols),
            lambda rng, cases, then: random_split_spectrum_tensor(rng, *zip(*cases), tols,
                                                                  then=then),
            lambda rng, chi, D, then: random_split_spectrum_tensor(rng, chi, D, tols, then)),
    }


def scalar_loop(rng, cases, shape, sample, then=None):
    """The reference loop: one case at a time, ``then`` on the case's shape
    after its draws, stopping at the first error."""
    out = []
    for case in cases:
        try:
            dec = sample(rng, *case)
        except TimpsError as exc:
            return out + [exc]
        out.append((dec, then(rng, *shape(*case))) if then else dec)
    return out


def observable_then(rng, d, D, chi):
    return random_observable(rng, d, int(rng.integers(1, 4)))


def counted(then, calls):
    def counting(*args):
        calls.append(args[1:])
        return then(*args)
    return counting


def check_against_scalar_loop(seed, cases, shape, reference, sequence, then):
    rng_a, rng_b = np.random.default_rng(seed), np.random.default_rng(seed)
    want = scalar_loop(rng_a, cases, shape, reference, then)
    got = sequence(rng_b, cases, then)
    assert len(got) == len(want)
    assert all(map(same, got, want))
    assert rng_b.bit_generator.state == rng_a.bit_generator.state
    return got


def count_passes(monkeypatch):
    """Record each pass of the samplers' body: cases drawn, cases accepted."""
    passes, real = [], sampling._pass

    def recording(rng, todo, *args):
        out = real(rng, todo, *args)
        passes.append((len(todo), len(out[0])))
        return out

    monkeypatch.setattr(sampling, "_pass", recording)
    return passes


def retry_passes(passes):
    """The first of the one-case passes that redraw a case rejected in a
    full window: a pass after one that rejected a case redraws it alone, and
    the first such pass of a case follows a full window."""
    retry = [False] + [accepted < drew for drew, accepted in passes[:-1]]
    assert all(drew == 1 for (drew, _), again in zip(passes, retry) if again)
    return [n for n in range(len(passes)) if retry[n] and not retry[n - 1]]


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("tols_name", list(TOLS))
@pytest.mark.parametrize("name", ["random_core", "random_tensor_in_e",
                                  "random_split_spectrum_tensor"])
@pytest.mark.parametrize("with_then", [False, True], ids=["plain", "then"])
def test_sequence_forms_match_the_scalar_loop(monkeypatch, seed, tols_name, name, with_then):
    tols = TOLS[tols_name]
    cases, shape, reference, sequence, _ = samplers(tols)[name]
    calls = []
    then = counted(observable_then if name == "random_core" else _move_draws, calls)
    passes = count_passes(monkeypatch)
    got = check_against_scalar_loop(seed, cases, shape, reference, sequence,
                                    then if with_then else None)
    retries = retry_passes(passes)
    # the overrides reject draws inside windows, and the rejected case redraws alone
    forced = {"eps_rank": name != "random_split_spectrum_tensor",
              "tol_distinct": name == "random_split_spectrum_tensor"}.get(tols_name, False)
    assert bool(retries) >= forced
    assert len(retries) < len(cases)
    if with_then and not retries and not isinstance(got[-1], TimpsError):
        # the reference loop's calls, then the body's: once per case, on its shape
        assert calls == 2 * [shape(*case) for case in cases]


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("name, cases, tols", EXHAUSTED)
def test_exhausted_draws_end_the_list_after_the_same_cases(seed, name, cases, tols):
    _, shape, reference, sequence, _ = samplers(tols)[name]
    error = NotInEError if name != "random_split_spectrum_tensor" else NotInOError
    for then in (None, _move_draws):
        got = check_against_scalar_loop(seed, cases, shape, reference, sequence, then)
        assert isinstance(got[-1], error) and str(got[-1]).startswith("64 draws failed")
        assert len(got) == 3 and not any(isinstance(x, TimpsError) for x in got[:-1])


def one_case_calls(rng, cases, sample, *then):
    """Each case's N=1 call on one generator, or the error it raises."""
    out = []
    for case in cases:
        try:
            out.append(sample(rng, *case, *then))
        except TimpsError as exc:
            out.append(exc)
    return out


N1_RUNS = ([pytest.param(name, samplers(tols)[name][0][:8], tols, id=f"{name}-{tols_name}")
            for name in samplers(DEFAULT_TOLS) for tols_name, tols in TOLS.items()]
           + [pytest.param(*run, id=f"{run[0]}-exhausted-{n}") for n, run in enumerate(EXHAUSTED)])


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("name, cases, tols", N1_RUNS)
def test_n1_calls_match_the_reference(seed, name, cases, tols):
    _, shape, reference, _, one = samplers(tols)[name]
    rng_a, rng_b, rng_c = (np.random.default_rng(seed) for _ in range(3))
    want = one_case_calls(rng_a, cases, reference)
    assert all(map(same, one_case_calls(rng_b, cases, one, None), want))
    assert rng_b.bit_generator.state == rng_a.bit_generator.state
    # with ``then``, the N=1 call returns the pair, ``then`` run once, after
    # the case's draws, also for a case that redraws
    calls = []
    paired = one_case_calls(rng_c, cases, one, counted(_move_draws, calls))
    rng_a = np.random.default_rng(seed)
    for case, got in zip(cases, paired):
        try:
            want = reference(rng_a, *case)
        except TimpsError as exc:
            assert same(got, exc)
            continue
        assert same(got, (want, _move_draws(rng_a, *shape(*case))))
    assert rng_c.bit_generator.state == rng_a.bit_generator.state
    assert calls == [shape(*case) for case, got in zip(cases, paired)
                     if not isinstance(got, TimpsError)]


def test_an_n1_call_with_then_returns_the_pair(make_rng):
    rng_a, rng_b = make_rng(4), make_rng(4)
    dec, draws = random_core(rng_a, 4, 2, then=_move_draws)
    assert same(dec, ref_random_core(rng_b, 4, 2))
    assert same(draws, _move_draws(rng_b, 4, 2, 2))
    assert rng_a.bit_generator.state == rng_b.bit_generator.state


@pytest.mark.parametrize("call", [
    lambda rng: random_core(rng, [4, 2], [2, 2]),
    lambda rng: random_tensor_in_e(rng, [4, 4, 2], [2, 2, 2], [2, 2, 2]),
    lambda rng: random_core(rng, 2, 2),
], ids=["core-sequence", "in-e-sequence", "core-n1"])
def test_a_case_with_too_small_d_is_refused_before_any_draw(make_rng, call):
    rng = make_rng(6)
    state = rng.bit_generator.state
    with pytest.raises(ValueError, match="injectivity needs d >= chi"):
        call(rng)
    assert rng.bit_generator.state == state


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("tols_name", ["default", "eps_rank"])
@pytest.mark.parametrize("name", ["random_tensor_in_e", "random_split_spectrum_tensor"])
def test_moves_built_from_window_draws_are_the_n1_moves(seed, tols_name, name):
    # windows of mixed shapes; after each the generator is where the reference
    # loop, which builds each move with an N=1 call, leaves it
    tols = TOLS[tols_name]
    cases, _, reference, sequence, _ = samplers(tols)[name]
    rng_a, rng_b = np.random.default_rng(seed), np.random.default_rng(seed)
    for start in range(0, len(cases), 7):
        want = []
        for case in cases[start:start + 7]:
            try:
                dec = reference(rng_a, *case)
            except TimpsError as exc:
                want.append(exc)
                break
            want.append((dec, random_gauge_move(rng_a, dec, tols=tols)))
        drawn = sequence(rng_b, cases[start:start + 7], _move_draws)
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


@pytest.mark.parametrize("args, calls", [
    (["retract-sweep", "--seed", "1", "--count", "400"], {"_move_draws": 400}),
    # 100 oracle trials, each with an observable, and 100 gauge trials
    (["oracle-check", "--seed", "0"], {"_move_draws": 100, "random_observable": 100}),
])
def test_sweeps_make_each_cases_further_draws_once(monkeypatch, tmp_path, args, calls):
    made = {name: [] for name in calls}
    for name in calls:
        monkeypatch.setattr(cli, name, counted(getattr(cli, name), made[name]))
    assert main(args + ["--out", str(tmp_path)]) == 0
    assert {name: len(made[name]) for name in calls} == calls


def test_the_scalar_call_is_the_one_case_sequence(make_rng):
    rng_a, rng_b = make_rng(4), make_rng(4)
    assert same(random_tensor_in_e(rng_a, [5], [3], [2])[0], random_tensor_in_e(rng_b, 5, 3, 2))
    assert random_core(rng_a, [], [], then=observable_then) == []
    assert rng_a.bit_generator.state == rng_b.bit_generator.state


def one_case_at_a_time_error(experiment, seed, tols):
    """The error that ends a sweep drawn one case at a time by the reference
    loops, as the sweeps drew before they drew cases in stacks."""
    rng = np.random.default_rng(np.random.PCG64(seed))
    for case in range(20):
        try:
            if experiment == "retract-sweep":
                chi = (2, 3)[case % 2]
                dec = ref_random_split_spectrum_tensor(rng, chi, chi + (case // 2) % 2, tols)
                random_gauge_move(rng, dec, tols=tols)
            else:
                shape = cli._CONTRACT_SHAPES[case % len(cli._CONTRACT_SHAPES)]
                ref_random_tensor_in_e(rng, *shape, tols=tols)
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
