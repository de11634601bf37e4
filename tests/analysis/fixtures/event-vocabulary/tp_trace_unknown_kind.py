# module: repro.zynq.fixture
trace.emit(0.0, 'soc', 'soc.mystery')
