"""Detection pipelines: HOG+SVM (day/dusk vehicles and pedestrians), dark (DBN+pairing)."""
