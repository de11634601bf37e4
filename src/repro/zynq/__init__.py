"""Zynq SoC substrate: event kernel, AXI paths, DMA, PR controllers, SoC."""
