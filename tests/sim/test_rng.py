"""Unit tests for named reproducible random streams."""

from repro.sim.rng import RngStreams


class TestRngStreams:
    def test_same_seed_same_stream(self):
        a = RngStreams(42).stream("noise")
        b = RngStreams(42).stream("noise")
        assert [a.random() for _ in range(5)] == [b.random() for _ in range(5)]

    def test_different_names_are_independent(self):
        streams = RngStreams(42)
        first = [streams.stream("a").random() for _ in range(5)]
        second = [streams.stream("b").random() for _ in range(5)]
        assert first != second

    def test_stream_isolation_under_interleaving(self):
        # Draws on stream "a" must not perturb stream "b".
        solo = RngStreams(1)
        solo_b = [solo.stream("b").random() for _ in range(3)]

        mixed = RngStreams(1)
        mixed.stream("a").random()
        interleaved_b = []
        for _ in range(3):
            mixed.stream("a").random()
            interleaved_b.append(mixed.stream("b").random())
        assert solo_b == interleaved_b

    def test_stream_cached(self):
        streams = RngStreams(0)
        assert streams.stream("x") is streams.stream("x")

    def test_helpers(self):
        streams = RngStreams(3)
        value = streams.uniform("u", 5.0, 6.0)
        assert 5.0 <= value <= 6.0
        gauss_values = [streams.gauss("g", 0.0, 1.0) for _ in range(100)]
        assert -1.0 < sum(gauss_values) / len(gauss_values) < 1.0

