import numpy as np
import pytest

from spacings_gof import montecarlo


@pytest.fixture
def zero_draws(monkeypatch):
    """zero_draws(reps) makes the replication streams of ``montecarlo``
    draw an exact 0 as the second exponential of every replication in
    ``reps``.  Observations 1 and 2 of those samples then tie: with m = 1
    that is a zero spacing, which moran's -log cannot take."""

    def install(reps):
        reps = set(reps)

        class ZeroDraw:
            def __init__(self, bit_generator):
                self.bit_generator = bit_generator
                self._rng = np.random.Generator(bit_generator)

            def standard_exponential(self, n, out):
                self._rng.standard_exponential(n, out=out)
                if int(self.bit_generator.state["state"]["key"][1]) in reps:
                    out[1] = 0.0

        monkeypatch.setattr(montecarlo, "Generator", ZeroDraw)

    return install
