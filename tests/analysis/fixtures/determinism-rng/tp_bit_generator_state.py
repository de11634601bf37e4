# module: repro.quality.fixture
from repro.rng import make_rng

rng = make_rng(7)
rng.bit_generator.state = make_rng(8).bit_generator.state
