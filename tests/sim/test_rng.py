"""Unit tests for named reproducible random streams."""

import os
import subprocess
import sys

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

    def test_different_seeds_differ(self):
        a = RngStreams(1).stream("noise")
        b = RngStreams(2).stream("noise")
        assert [a.random() for _ in range(5)] != [b.random() for _ in range(5)]

    def test_streams_do_not_depend_on_the_string_hash_seed(self):
        # The per-name seed comes from a stable digest, not hash(), so
        # another process with another PYTHONHASHSEED draws the same.
        draw = (
            "from repro.sim.rng import RngStreams; "
            "print(repr(RngStreams(7).stream('noise').random()))"
        )
        outputs = set()
        for hash_seed in ("1", "2"):
            env = dict(os.environ, PYTHONHASHSEED=hash_seed,
                       PYTHONPATH=os.pathsep.join(sys.path))
            done = subprocess.run(
                [sys.executable, "-c", draw], env=env, capture_output=True,
                text=True, check=True, timeout=60,
            )
            outputs.add(done.stdout.strip())
        assert outputs == {repr(RngStreams(7).stream("noise").random())}
