"""Machine-learning substrate: linear SVM (LibLINEAR-style), RBM, DBN.

Each trainer runs one fixed recipe, its module's constants.  The settings
left are the SVM's ``C`` and an RBM's seed.
"""
