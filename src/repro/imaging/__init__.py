"""Image-processing substrate: the software model of the PL image path.

Everything the detection pipelines consume is built from this package:
color conversion, spatial filtering, thresholding, binary morphology,
resampling, connected components, geometry, and drawing.
"""
