"""Oracle implementations, instance generation, file round trips."""

import json
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from powerprobe.algorithms import compute_window, identity_test
from powerprobe.ff_core import BudgetExceededError, DomainError
from powerprobe.oracle import (CachingOracle, InstanceSpec, LocalPowerOracle,
                               PowerOracle, ReplayOracle, TranscriptIncompleteError,
                               gen_instance, instance_from_json,
                               instance_to_json, make_oracle, read_instance,
                               read_transcript, replay_oracle_from_file,
                               transcript_from_jsonl, transcript_to_jsonl,
                               write_instance,
                               write_transcript)
from powerprobe.poly_algebra import (Poly, RationalFn, is_square_free,
                                     perfect_power_decompose)


class TestInstanceSpec:
    def test_validation(self):
        f = Poly(13, [1, 1])
        with pytest.raises(DomainError):
            InstanceSpec(12, 3, 1, f)
        with pytest.raises(DomainError):
            InstanceSpec(13, 5, 1, f)  # 5 does not divide 12
        with pytest.raises(DomainError):
            InstanceSpec(13, 3, 0, f)
        with pytest.raises(DomainError):
            InstanceSpec(13, 3, 2, f)  # degree mismatch
        with pytest.raises(DomainError):
            InstanceSpec(13, 3, 1, Poly(13, [1, 2]))  # not monic
        with pytest.raises(DomainError):
            InstanceSpec(13, 3, 1, f, g=Poly(13, [1, 2, 1]))

    def test_accepts_valid(self):
        spec = InstanceSpec(13, 3, 2, Poly(13, [1, 0, 1]), g=Poly(13, [2, 0, 1]), seed=9)
        assert spec.p == 13 and spec.e == 3 and spec.d == 2


class TestLocalOracle:
    def test_frozen_answers(self):
        o = LocalPowerOracle(13, 3, Poly(13, [1, 1]))
        assert o.query(1) == 8
        assert o.query(12) == 0
        o2 = LocalPowerOracle(13, 4, Poly(13, [1, 0, 1]))
        assert o2.query(2) == 1

    def test_transcript_and_counting(self):
        o = LocalPowerOracle(13, 3, Poly(13, [1, 1]))
        assert o.query_count == 0
        o.query(3)
        o.query(4)
        assert o.query_count == 2
        assert o.transcript == ((3, 12), (4, 8))
        o.query(3)
        assert o.transcript == ((3, 12), (4, 8), (3, 12))
        assert o.query_count == 3

    def test_pure_function_of_input(self):
        o = LocalPowerOracle(101, 5, Poly(101, [7, 3, 1]))
        assert o.query(42) == o.query(42)

    def test_rejects_out_of_range(self):
        o = LocalPowerOracle(13, 3, Poly(13, [1, 1]))
        with pytest.raises(DomainError):
            o.query(13)
        with pytest.raises(DomainError):
            o.query(-1)


class HornerOracle(PowerOracle):
    """Reference: f(x)^e by its own Horner loop at every query."""

    def __init__(self, p, e, coeffs):
        super().__init__(p, e)
        self.coeffs = coeffs

    def _answer(self, x):
        acc = 0
        for c in reversed(self.coeffs):
            acc = (acc * x + c) % self.p
        return pow(acc, self.e, self.p)


def assert_matches_horner(p, e, coeffs, xs):
    local = LocalPowerOracle(p, e, Poly(p, coeffs))
    ref = HornerOracle(p, e, coeffs)
    assert [local.query(x) for x in xs] == [ref.query(x) for x in xs]
    assert local.transcript == ref.transcript
    assert local.query_count == ref.query_count == len(xs)


@st.composite
def query_sequences(draw, p, cap):
    # scans of up to 4 cap + 3 points, jumps, repeats of an earlier point,
    # scans that restart inside an earlier one, descending runs and scans
    # that end at p - 1
    xs = []
    for _ in range(draw(st.integers(1, 6))):
        kind = draw(st.sampled_from(["scan", "jump", "repeat", "back", "down", "tail"]))
        if kind in ("repeat", "back") and not xs:
            kind = "jump"
        if kind in ("scan", "back"):
            start = draw(st.integers(0, p - 1) if kind == "scan" else st.sampled_from(xs))
            length = draw(st.one_of(st.integers(1, 4 * cap + 3),
                                    st.integers(2 * cap, 4 * cap + 3)))
            xs += range(start, min(p, start + length))
        elif kind == "jump":
            xs.append(draw(st.integers(0, p - 1)))
        elif kind == "repeat":
            xs.append(draw(st.sampled_from(xs)))
        elif kind == "down":
            start = draw(st.integers(0, p - 1))
            xs += range(start, max(-1, start - draw(st.integers(1, 2 * cap))), -1)
        else:
            xs += range(max(0, p - draw(st.integers(1, 3 * cap))), p)
    return xs


class TestAgainstHornerReference:
    # LocalPowerOracle and identity_test against the Horner reference on
    # scans, jumps and repeats: small primes, and 2^61 - 1 and 2^62 - 57,
    # where products of two field elements pass 2^64, with d <= 8 and d = 15
    @settings(max_examples=200, deadline=None)
    @given(st.sampled_from([(101, 5), (257, 16), (7681, 3), (65537, 4),
                            (2 ** 61 - 1, 231), (2 ** 62 - 57, 18)]),
           st.one_of(st.just(15), st.integers(0, 8)), st.data())
    def test_matches_horner_oracle(self, pe, d, data):
        p, e = pe
        coeffs = data.draw(st.lists(st.integers(0, p - 1), min_size=d + 1, max_size=d + 1))
        coeffs[-1] = coeffs[-1] or 1
        assert_matches_horner(p, e, coeffs, data.draw(query_sequences(p, 64 * (d + 1))))

    def test_long_scans_and_jumps_near_2_62(self):
        # a 3,000-point scan at d = 15 near 2^62, two jumps back into earlier
        # points, and a scan that ends at p - 1
        p, e, d = 2 ** 62 - 57, 18, 15
        coeffs = [pow(7, k, p) for k in range(d)] + [1]
        xs = list(range(5, 3005)) + [2500, 700] + list(range(p - 1500, p))
        assert_matches_horner(p, e, coeffs, xs)

    def test_equal_pair_matches_horner_oracles(self):
        # H = 13,788 > d*e + 1 = 161: the scan stops at 161
        p, e, d = 65537, 4, 40
        inst = gen_instance(p, e, d, 7, equal_g=True)
        window = compute_window(p, e, d)
        of, og = make_oracle(inst, "f"), make_oracle(inst, "g")
        rf, rg = HornerOracle(p, e, inst.f.coeffs), HornerOracle(p, e, inst.g.coeffs)
        verdict, ref = identity_test(of, og, window), identity_test(rf, rg, window)
        assert not verdict.different and verdict.witness is None
        assert verdict.queries == ref.queries == 322
        assert of.query_count == og.query_count == 161
        assert of.transcript == rf.transcript and og.transcript == rg.transcript

    def test_identity_witness_at_one_costs_two_queries(self):
        p, e = 65537, 4
        f = Poly(p, [3] * 40 + [1])
        g = f + 1
        assert pow(f(1), e, p) != pow(g(1), e, p)
        of, og = LocalPowerOracle(p, e, f), LocalPowerOracle(p, e, g)
        verdict = identity_test(of, og, compute_window(p, e, 40))
        assert verdict.witness == 1 and verdict.queries == 2
        assert of.transcript == ((1, pow(f(1), e, p)),)
        assert og.transcript == ((1, pow(g(1), e, p)),)


class TestReplayOracle:
    def test_answers_and_gap(self):
        o = ReplayOracle(13, 3, {1: 8, 2: 1})
        assert o.query(1) == 8
        with pytest.raises(TranscriptIncompleteError) as err:
            o.query(5)
        assert "x = 5" in str(err.value)

    def test_round_trip_through_file(self, tmp_path):
        inner = LocalPowerOracle(13, 3, Poly(13, [1, 1]))
        for x in range(6):
            inner.query(x)
        path = tmp_path / "t.jsonl"
        write_transcript(inner, path)
        replay = replay_oracle_from_file(path)
        assert replay.p == 13 and replay.e == 3
        for x in range(6):
            assert replay.query(x) == pow(x + 1, 3, 13)

    def test_header_and_count_validation(self, tmp_path):
        lines = transcript_to_jsonl(13, 3, [])
        header = json.loads(lines.splitlines()[0])
        assert header == {"p": 13, "e": 3, "query_count": 0}
        bad = '{"p": 13, "e": 3, "query_count": 2}\n{"x": 1, "answer": 8}\n'
        path = tmp_path / "bad.jsonl"
        path.write_text(bad)
        with pytest.raises(Exception):
            read_transcript(path)

    def test_rejects_malformed_and_out_of_field_entries(self):
        head = '{"p": 13, "e": 3, "query_count": 2}\n{"x": 1, "answer": 8}\n'
        for entry, why in (('{"x": 2, "answer": 14}', "answer = 14"),
                           ('{"x": 2, "answer": -1}', "answer = -1"),
                           ('{"x": 13, "answer": 1}', "x = 13"),
                           ('{"x": -1, "answer": 1}', "x = -1"),
                           ('{"x": 1, "answer": 5}', "x = 1 repeats"),
                           ('{"x": 2}', "missing 'answer'"),
                           ('[2, 1]', "missing 'x'"),
                           ('{"x": null, "answer": 1}', "must be integers")):
            with pytest.raises(DomainError) as err:
                transcript_from_jsonl(head + entry + "\n")
            assert "entry 2" in str(err.value) and why in str(err.value)
        assert transcript_from_jsonl(head + '{"x": 1, "answer": 8}\n')[2] == [(1, 8), (1, 8)]
        for bad_head in ('7', '{"p": 13, "e": null, "query_count": 0}'):
            with pytest.raises(DomainError) as err:
                transcript_from_jsonl(bad_head + "\n")
            assert "transcript header" in str(err.value)


class TestCachingOracle:
    def test_dedup(self):
        inner = LocalPowerOracle(13, 3, Poly(13, [1, 1]))
        o = CachingOracle(inner)
        assert o.query(4) == 8
        assert o.query(4) == 8
        assert o.query(5) == pow(6, 3, 13)
        assert o.query_count == 2  # distinct points only
        assert inner.query_count == 2  # repeat served from cache
        assert inner.transcript == ((4, 8), (5, pow(6, 3, 13)))

    def test_repeats_read_from_inner_transcript(self):
        inner = make_oracle(gen_instance(101, 5, 2, 3))
        inner.query(1)
        inner.query(1)
        o = CachingOracle(inner)
        o.query(2)
        assert o.transcript == ((1, 95), (1, 95), (2, 41))


class TestGenInstance:
    def test_deterministic(self):
        a = gen_instance(13, 3, 2, seed=1)
        b = gen_instance(13, 3, 2, seed=1)
        assert a == b
        c = gen_instance(13, 3, 2, seed=2)
        assert a != c

    def test_monic_degree(self):
        for seed in range(10):
            spec = gen_instance(101, 5, 3, seed=seed)
            assert spec.f.is_monic and spec.f.degree == 3
            assert spec.g is None

    def test_require_square_free(self):
        for seed in range(10):
            spec = gen_instance(13, 3, 2, seed=seed, require_square_free=True)
            assert is_square_free(spec.f)

    def test_square_free_test_charged_before_its_gcd(self):
        # gcd(f, f') at d = 20,000 is about 4 * 10^8 operations: refused at once
        t0 = time.perf_counter()
        with pytest.raises(BudgetExceededError):
            gen_instance(2 ** 61 - 1, 2, 20000, 1, require_square_free=True)
        assert time.perf_counter() - t0 < 1

    def test_with_g_variants(self):
        spec = gen_instance(101, 5, 2, seed=3, with_g=True)
        assert spec.g is not None and spec.g.is_monic and spec.g.degree == 2
        eq = gen_instance(101, 5, 2, seed=3, equal_g=True)
        assert eq.g == eq.f
        npp = gen_instance(101, 4, 4, seed=5, with_g=True,
                           require_non_perfect_power_ratio=True)
        assert npp.f != npp.g
        _, k = perfect_power_decompose(RationalFn(npp.f, npp.g))
        assert k == 1

    def test_degree_bound(self):
        with pytest.raises(DomainError):
            gen_instance(13, 3, 13, seed=1)

    # (f, g) coefficients, low to high, as first recorded: a change to how
    # the draw loop uses the RNG or decides to redraw shows up here
    FROZEN_NON_PP = {
        1: ((17611, 8271, 33432, 15455, 64937, 58915, 61898, 49756, 27519,
             12302, 63944, 3715, 51093, 56723, 276, 58377, 34908, 29984,
             13399, 41606, 4009, 2925, 3335, 1206, 49965, 28390, 55327, 3806,
             29057, 57394, 64987, 30550, 45311, 30260, 28676, 1),
            (60241, 37982, 2816, 54549, 13107, 24367, 38848, 15845, 43607,
             55326, 24883, 39763, 37245, 65452, 51557, 4525, 62944, 31816,
             52990, 54304, 22676, 48119, 49113, 11333, 57535, 14146, 21456,
             51544, 48565, 64185, 3876, 61514, 5699, 40439, 51589, 1)),
        2: ((7412, 12004, 11124, 47324, 22162, 40388, 32975, 27815, 4683,
             20759, 56448, 51581, 48766, 58307, 35158, 4708, 3597, 47712,
             60934, 41741, 49809, 55523, 21559, 23256, 30949, 30225, 3127,
             23163, 42617, 22752, 17917, 47145, 23834, 58410, 54351, 1),
            (47743, 46371, 47433, 58427, 21126, 52410, 60477, 32755, 64227,
             36582, 65282, 46389, 59596, 60425, 45976, 59841, 63780, 29073,
             42554, 21767, 35145, 62883, 40575, 39753, 53303, 40874, 27239,
             64081, 48050, 9879, 44755, 1103, 25087, 13914, 7701, 1)),
        3: ((31190, 17094, 48490, 62135, 8588, 1725, 61503, 33994, 30714,
             25132, 61638, 62436, 52053, 19741, 30398, 19873, 51109, 1985,
             8392, 20892, 5608, 39487, 4064, 35314, 61964, 50804, 55959,
             51768, 58277, 17583, 47909, 12773, 4703, 17821, 64865, 1),
            (28440, 33814, 57168, 39456, 55200, 50576, 45994, 53421, 30459,
             44140, 3756, 36658, 21377, 42780, 13641, 27672, 35007, 37349,
             16309, 8317, 63176, 63374, 11602, 45099, 8730, 53800, 19761,
             2637, 38520, 55986, 54420, 15586, 5792, 5890, 49519, 1)),
    }

    @pytest.mark.parametrize("seed", sorted(FROZEN_NON_PP))
    def test_frozen_non_perfect_power_draws(self, seed):
        spec = gen_instance(65537, 4, 35, seed, with_g=True,
                            require_non_perfect_power_ratio=True)
        assert (spec.f.coeffs, spec.g.coeffs) == self.FROZEN_NON_PP[seed]

    def test_bad_e(self):
        with pytest.raises(DomainError):
            gen_instance(13, 5, 2, seed=1)


class TestMakeOracle:
    def test_f_and_g(self):
        spec = gen_instance(101, 5, 2, seed=3, with_g=True)
        of = make_oracle(spec)
        og = make_oracle(spec, which="g")
        assert of.query(7) == pow(spec.f(7), 5, 101)
        assert og.query(7) == pow(spec.g(7), 5, 101)

    def test_missing_g_rejected(self):
        spec = gen_instance(101, 5, 2, seed=3)
        with pytest.raises(DomainError):
            make_oracle(spec, which="g")


class TestInstanceFiles:
    def test_json_shape(self):
        spec = gen_instance(13, 3, 2, seed=1)
        text = instance_to_json(spec)
        data = json.loads(text)
        assert list(data) == ["p", "e", "d", "f", "seed"]
        assert data["f"] == [str(c) for c in spec.f.coeffs]
        assert text.endswith("\n")
        assert instance_from_json(text) == spec

    def test_optional_keys_omitted(self):
        spec = InstanceSpec(13, 3, 2, Poly(13, [1, 0, 1]))
        data = json.loads(instance_to_json(spec))
        assert "g" not in data and "seed" not in data

    def test_write_read_write_byte_identical(self, tmp_path):
        for seed in range(8):
            spec = gen_instance(101, 5, 3, seed=seed, with_g=True)
            p1 = tmp_path / ("a%d.json" % seed)
            p2 = tmp_path / ("b%d.json" % seed)
            write_instance(spec, p1)
            write_instance(read_instance(p1), p2)
            assert p1.read_bytes() == p2.read_bytes()

    def test_redact_drops_hidden_polys(self, tmp_path):
        spec = gen_instance(13, 3, 2, seed=1, with_g=True)
        path = tmp_path / "r.json"
        write_instance(spec, path, redact=True)
        data = json.loads(path.read_text())
        assert "f" not in data and "g" not in data
        back = read_instance(path)
        assert back.f is None
        assert (back.p, back.e, back.d) == (13, 3, 2)

    @pytest.mark.parametrize("text", ['{"p": 101, "e": 5, "d": 2, "f": 5}',
                                      '{"p": 101, "e": 5, "d": 2, "g": {"0": 1}}',
                                      '{"p": null, "e": 5, "d": 2}',
                                      '{"p": 101, "e": 5, "d": 2, "f": [1, [2], 1]}',
                                      "5", "[101, 5, 2]"])
    def test_malformed_shapes_are_domain_errors(self, text):
        with pytest.raises(DomainError):
            instance_from_json(text)


class TestTranscriptFiles:
    def test_round_trip(self, tmp_path):
        o = LocalPowerOracle(101, 5, Poly(101, [7, 3, 1]))
        for x in (0, 5, 9, 5):
            o.query(x)
        path = tmp_path / "t.jsonl"
        write_transcript(o, path)
        p, e, entries = read_transcript(path)
        assert (p, e) == (101, 5)
        assert entries == list(o.transcript)

    def test_write_read_write_byte_identical(self, tmp_path):
        o = LocalPowerOracle(101, 5, Poly(101, [7, 3, 1]))
        for x in range(7):
            o.query(x)
        p1 = tmp_path / "t1.jsonl"
        write_transcript(o, p1)
        p_, e_, entries = read_transcript(p1)
        replay = ReplayOracle(p_, e_, dict(entries))
        for x, _ in entries:
            replay.query(x)
        p2 = tmp_path / "t2.jsonl"
        write_transcript(replay, p2)
        assert p1.read_bytes() == p2.read_bytes()
