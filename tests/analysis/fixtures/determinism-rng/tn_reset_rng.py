# module: repro.quality.fixture
from repro.rng import make_rng, reset_rng, start_states

rng = make_rng(7)
snapshot = rng.bit_generator.state
reset_rng(rng, start_states([8])[0])
