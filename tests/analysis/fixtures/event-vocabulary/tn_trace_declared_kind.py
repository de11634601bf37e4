# module: repro.zynq.fixture
trace.emit(0.0, 'pr', 'pr.done', bitstream='dark')
