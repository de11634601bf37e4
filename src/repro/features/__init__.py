"""Feature extraction: HOG (Dalal-Triggs) and sliding-window machinery."""
