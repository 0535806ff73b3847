"""First-order logic query answering over incomplete knowledge graphs.

The pipeline: load a triplet KG, train an embedding link-prediction scorer,
calibrate its scores into [0,1] (normalize, adapt per-(head,relation) scales,
pin known facts to 1), materialize a sparse calibrated tensor, and answer
logic queries by forward propagation of fuzzy-set operations over it.

The package root holds only __version__, so that `import kgreason` loads no
other module; every name is imported from its submodule.
"""

__version__ = "0.1.0"
